"""Johnson association scheme combinatorics, exact throughout.

The distance-d relation on r-subsets of [m] (edge iff r - |S ∩ T| = d) has
adjacency eigenvalues given by an explicit alternating binomial sum indexed
by an eigenspace label x in 0..min(r, m - r), of multiplicity
C(m, x) - C(m, x - 1).  Everything here is integer arithmetic;
floating point enters only when brute-force diagonalization cross-checks
the predicted spectra.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from collections import Counter
from dataclasses import dataclass, field
from math import comb
from operator import mul

import numpy as np

from .graphs import _incidence, _overlap_blocks
from .kernel import CapacityError, InputError

__all__ = [
    "binom0",
    "dual_hahn",
    "HahnTable",
    "johnson_adjacency",
    "verify_scheme_spectrum",
    "SchemeReport",
]

MAX_SCHEME_VERTICES = 2000
# Cap on _hahn_work, sized from perf_counter timings of the G F product
# on one core (59 points, m = 100..10^300, r = 40..250, min of 3-5 runs):
# one unit took 2.8e-9 to 1.3e-8 s, and 2.8e-9 to 7.1e-9 s from 5e7 units
# on.  Admitted: (1000, 200) 1.3e8 units 0.85 s, the slowest admitted
# point measured, (10^300, 60) 1.1e8 0.76 s, (400, 200) 1.2e8 0.66 s and
# (300, 150) 3.8e7 0.29 s.  Refused: (300, 250) 2.9e8 0.80 s,
# (10^4, 200) 1.8e8 0.97 s and (10^300, 80) 3.4e8 2.1 s.
MAX_HAHN_WORK = 15 * 10**7


def binom0(a: int, b: int) -> int:
    """Binomial coefficient that vanishes outside 0 <= b <= a (C(a, 0) = 1)."""
    if b < 0:
        return 0
    if b == 0:
        return 1
    if a < b:
        return 0
    return comb(a, b)


def dual_hahn(m: int, r: int, d: int, x: int) -> int:
    """Eigenvalue of the distance-d adjacency on eigenspace x, exactly.

    Computes sum_{j=0..d} (-1)^(d-j) C(r-j, d-j) C(r-x, j) C(m-r+j-x, j).
    """
    if not (0 <= d <= r <= m):
        raise InputError(f"require 0 <= d <= r <= m, got d={d} r={r} m={m}")
    if not (0 <= x <= r):
        raise InputError(f"eigenspace label x={x} outside 0..{r}")
    total = 0
    for j in range(d + 1):
        total += (-1) ** (d - j) * binom0(r - j, d - j) * binom0(r - x, j) * binom0(m - r + j - x, j)
    return total


def _hahn_work(m: int, r: int) -> int:
    """Cost of a Hahn table in 64-bit limb operations: (r+1)^2 (r+2)/2
    binomial products, each about r log2(m) bits wide."""
    return (r + 1) ** 2 * (r + 2) // 2 * (1 + r * m.bit_length() // 64)


def _check_hahn_work(m: int, r: int):
    """Refuse a Hahn table over ``MAX_HAHN_WORK`` before any entry."""
    work = _hahn_work(m, r)
    if work > MAX_HAHN_WORK:
        raise CapacityError(
            f"Hahn table ({m}, {r}) needs {work} limb operations, above the cap of {MAX_HAHN_WORK}"
        )


@dataclass(frozen=True)
class HahnTable:
    """All eigenvalues of the scheme on [m] choose r, indexed [d][x].

    Entry [d][x] equals :func:`dual_hahn` (m, r, d, x); the table is its
    eigenmatrix, computed as one exact integer product."""

    m: int
    r: int
    values: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self):
        m, r = self.m, self.r
        if not 0 <= r <= m:
            raise InputError("require 0 <= r <= m")
        _check_hahn_work(m, r)
        # dual_hahn's sum regrouped as one integer product E = G F:
        # G[d][j] = (-1)^(d-j) C(r-j, d-j) for j <= d depends only on r, and
        # column x of F, C(r-x, j) C(m-r+j-x, j), vanishes beyond j = r - x
        G = [[(-1) ** (d - j) * binom0(r - j, d - j) for j in range(d + 1)] for d in range(r + 1)]
        F = [[binom0(r - x, j) * binom0(m - r + j - x, j) for j in range(r - x + 1)]
             for x in range(r + 1)]
        vals = tuple(tuple(sum(map(mul, g, f)) for f in F) for g in G)
        object.__setattr__(self, "values", vals)

    def __getitem__(self, dx: tuple[int, int]) -> int:
        d, x = dx
        return self.values[d][x]

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["d\\x"] + list(range(self.r + 1)))
        for d in range(self.r + 1):
            w.writerow([d] + list(self.values[d]))
        return buf.getvalue()


def _check_scheme_vertices(m: int, r: int) -> int:
    """C(m, r), refused over ``MAX_SCHEME_VERTICES``."""
    nverts = comb(m, r)
    if nverts > MAX_SCHEME_VERTICES:
        raise CapacityError(f"{nverts} vertices exceed the scheme cap {MAX_SCHEME_VERTICES}")
    return nverts


def johnson_adjacency(m: int, r: int, d: int) -> np.ndarray:
    """Read-only float 0/1 adjacency of the distance-d relation on r-subsets
    in lex order.

    Subsets S, T are at distance d when r - |S & T| == d; every overlap
    comes from one row-blocked product of the subset incidence matrix with
    itself.
    """
    if not (0 <= d <= r <= m):
        raise InputError(f"require 0 <= d <= r <= m, got d={d} r={r} m={m}")
    nverts = _check_scheme_vertices(m, r)
    S = _incidence(list(itertools.combinations(range(m), r)), m)
    A = np.empty((nverts, nverts))
    for start, block in _overlap_blocks(S, S, lambda overlaps: overlaps == r - d):
        A[start : start + len(block)] = block
    A.setflags(write=False)
    return A


@dataclass
class SchemeReport:
    """Outcome of the brute-force spectrum check for one (m, r)."""

    m: int
    r: int
    ok: bool
    per_distance: list[dict]
    multiplicities: dict[int, int]
    notes: list[str]

    def to_json(self) -> str:
        return json.dumps(
            {
                "m": self.m,
                "r": self.r,
                "ok": self.ok,
                "per_distance": self.per_distance,
                "multiplicities": self.multiplicities,
                "notes": self.notes,
            }
        )


def verify_scheme_spectrum(m: int, r: int) -> SchemeReport:
    """Check that every distance relation has the predicted integer spectrum.

    Eigenspace x of the scheme has multiplicity C(m, x) - C(m, x-1) for
    x <= m - r; for r > m - r the columns x > m - r of the Hahn table are
    not eigenspaces, multiplicity 0.  Relation d is predicted to have
    eigenvalue table[d][x] with multiplicity summed over the x that share
    it.  For each d <= r the brute-force eigenvalues must be integers to
    within 1e-8 times the row's largest magnitude (at least 1), and their
    rounded counts must equal that prediction.  Mismatches produce a
    failing report, not an exception.  A table over the Hahn cap, then a
    scheme over ``MAX_SCHEME_VERTICES``, is refused before any entry.
    """
    if not 0 <= r <= m:
        raise InputError("require 0 <= r <= m")
    _check_hahn_work(m, r)
    _check_scheme_vertices(m, r)
    table = HahnTable(m, r)
    multiplicities = {x: binom0(m, x) - binom0(m, x - 1) if x <= m - r else 0
                      for x in range(r + 1)}
    notes: list[str] = []
    per_distance: list[dict] = []
    ok = True
    for d in range(r + 1):
        w = np.linalg.eigvalsh(johnson_adjacency(m, r, d))
        scale = max(1.0, float(max(abs(v) for v in table.values[d])))
        rounded = np.rint(w).astype(int)
        if np.abs(w - rounded).max() > 1e-8 * scale:
            ok = False
            notes.append(f"d={d}: eigenvalues deviate from integers beyond tolerance")
        counts = Counter(rounded.tolist())
        predicted: Counter = Counter()
        for value, mult in zip(table.values[d], multiplicities.values()):
            if mult:
                predicted[value] += mult
        if counts != predicted:
            ok = False
            notes.append(f"d={d}: spectrum {dict(sorted(counts.items()))} "
                         f"differs from the predicted {dict(sorted(predicted.items()))}")
        per_distance.append({"d": d, "spectrum": {str(k): v for k, v in sorted(counts.items())}})
    return SchemeReport(
        m=m,
        r=r,
        ok=ok,
        per_distance=per_distance,
        multiplicities=multiplicities,
        notes=notes,
    )
