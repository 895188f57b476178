"""Commutation index of operator families: bounds, exact values, heuristics.

The commutation index of a set {A_1..A_m} is the supremum over pure states
of (1/m) sum_i <psi|A_i|psi>^2.  :func:`index_estimate` brackets it for a
full family, named by (kind, n, locality): the rigorous upper bound is
theta of the commutation graph divided by m; the rigorous lower bound of a
full even-degree Majorana family comes from a commuting subfamily, as an
exact rational; a monotone see-saw ascent supplies heuristic maximizers in
between.  A full family's rigorous bound becomes a float only here,
rounded up (:func:`_upper_bound_float`).

The see-saw runs on the matrix-free
:class:`~fermitheta.algebra.TermBank`, so no m x d x d stack of term
matrices is ever built, and takes its eigenvectors from the bank's parity
sectors (``TermBank.sector_eigh``).  An estimate is
``exact`` only when its two rigorous bounds are equal rationals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb, inf, nextafter

import numpy as np

from .algebra import OperatorSet, TermBank, _admit_bank, enumerate_set
from .graphs import _check_graph_vertices, best_commuting_family, commutation_graph
from .kernel import InputError, RandomStream, random_state
from .theta import _check_sdp_vertices, theta_johnson_lp, theta_sdp

__all__ = [
    "IndexEstimate",
    "index_lower_family",
    "index_pauli_product",
    "index_seesaw",
    "pauli_index_weak_bound",
    "index_estimate",
]

SEESAW_RESTARTS = 8  # seeded restarts of the see-saw
SEESAW_ITERS = 200  # iterations per restart at most


@dataclass(frozen=True)
class IndexEstimate:
    """Bracketing of a commutation index, exact when the bracket closes
    on equal rationals."""

    upper: Fraction | float
    lower: Fraction | float
    heuristic: float | None
    exact: Fraction | None
    method: str

    def to_json(self) -> str:
        def enc(v):
            if isinstance(v, Fraction):
                return {"rational": str(v), "float": float(v)}
            return v

        return json.dumps(
            {
                "upper": enc(self.upper),
                "lower": enc(self.lower),
                "heuristic": self.heuristic,
                "exact": enc(self.exact),
                "method": self.method,
            }
        )


def _upper_bound_float(kind: str, n: int, locality: int) -> float:
    """The least float at or above the rigorous index bound of the full
    family: theta / C(n, q) for Majorana terms of any degree, else the weak
    Pauli bound (2/3)^k."""
    if kind == "majorana":
        exact = theta_johnson_lp(n, locality).value / comb(n, locality)
    else:
        exact = pauli_index_weak_bound(n, locality)
    value = float(exact)
    return value if value >= exact else nextafter(value, inf)


def index_lower_family(n: int, q: int) -> Fraction:
    """Sharpest explicit-family lower bound |family| / C(n, q), exact.

    The family is the 14-block Hamming family at (8, 4), the C(n/2, q/2)
    pair products otherwise; its constructor checks it pairwise commuting
    on the supports (``graphs._pairwise_commuting``) and refuses an odd n
    or q.  Commuting Hermitian involutions share an eigenvector, on which
    each has <A>^2 = 1, so the index is at least |family| / C(n, q).
    """
    return Fraction(len(best_commuting_family(n, q)), comb(n, q))


def index_pauli_product(n: int, k: int, state) -> float:
    """Mean squared expectation of weight-k Paulis in an explicit product state.

    ``state`` is a sequence of n single-qubit unit vectors.  The sum
    factorizes through single-qubit Bloch purities, so the value is
    3**(-k) for every pure product state.
    """
    if len(state) != n:
        raise InputError(f"expected {n} single-qubit factors, got {len(state)}")
    purities = []
    for j, v in enumerate(state):
        v = np.asarray(v, dtype=complex)
        if v.shape != (2,):
            raise InputError(f"factor {j} is not a single-qubit vector")
        if abs(np.vdot(v, v) - 1.0) > 1e-10:
            raise InputError(f"factor {j} is not normalized")
        rx = 2 * np.real(np.conj(v[0]) * v[1])
        ry = 2 * np.imag(np.conj(v[0]) * v[1])
        rz = float(np.abs(v[0]) ** 2 - np.abs(v[1]) ** 2)
        purities.append(rx * rx + ry * ry + rz * rz)
    # elementary symmetric polynomial e_k over the per-qubit purities
    e = np.zeros(k + 1)
    e[0] = 1.0
    for p in purities:
        e[1 : k + 1] = e[1 : k + 1] + p * e[0:k]
    return float(e[k]) / (comb(n, k) * 3**k)


def pauli_index_weak_bound(n: int, k: int) -> Fraction:
    """Unconditional upper bound (2/3)**k, valid for every n."""
    return Fraction(2, 3) ** k


@dataclass(frozen=True)
class SeesawResult:
    value: float
    state: np.ndarray
    history: tuple[float, ...]
    restart: int


def index_seesaw(ops: OperatorSet, seed: int = 7) -> SeesawResult:
    """Monotone alternating ascent on the mean squared expectation.

    Each iteration replaces the state by the top eigenvector of
    M(psi) = (1/m) sum_i <psi|A_i|psi> A_i, which never decreases the
    objective; a run stops when an iteration gains less than 1e-12 or
    after ``SEESAW_ITERS`` iterations, and the best of ``SEESAW_RESTARTS``
    seeded runs is returned.  Always a valid lower
    bound on the index.  M(psi) is sqrt(m)^-1 times the bank's Hamiltonian
    of the expectations, so its top eigenpair is the largest of
    :meth:`~fermitheta.algebra.TermBank.sector_eigh` over all sectors,
    placed at that sector's basis states.  In a mirror +1 bank both
    sectors share the top level; the objective is invariant under the
    mirror P, so either vector serves, and the first (sector 0) is taken.
    """
    bank = TermBank.from_set(ops)
    d = bank.dim
    side = bank.sector_rows.shape[1]
    best = None
    for r in range(SEESAW_RESTARTS):
        psi = random_state(RandomStream(seed, r), d)
        history = []
        prev = -np.inf
        for _ in range(SEESAW_ITERS):
            w = bank.expectations(psi)
            obj = float(np.mean(w**2))
            history.append(obj)
            if obj - prev < 1e-12 and len(history) > 1:
                break
            prev = obj
            # argmax over every sector: a mirror -1 bank stores sector 1 descending
            values, vectors = bank.sector_eigh(w)
            s, k = divmod(int(np.argmax(values)), side)
            psi = np.zeros(d, dtype=complex)
            psi[bank.sector_rows[s]] = vectors[s, :, k]
        final = float(np.mean(bank.expectations(psi) ** 2))
        history.append(final)
        cand = SeesawResult(final, psi, tuple(history), r)
        if best is None or cand.value > best.value:
            best = cand
    return best


def index_estimate(kind: str, n: int, locality: int, seed: int = 7) -> IndexEstimate:
    """Bracket the commutation index of the full family S^n_q
    (``kind="majorana"``) or P^n_k (``"pauli"``).

    The family is refused in closed form before any member is enumerated:
    first as the see-saw's term bank (``algebra._admit_bank``, with the
    line that ``model`` prints for the same family), then a Pauli one at
    its commutation graph or theta SDP.
    The upper bound is theta / m: the Johnson LP's for Majorana terms,
    ``theta_sdp``'s coherent-closure LP of the commutation graph for Pauli
    ones.  The see-saw runs at its 8 restarts of at most 200 iterations
    from ``seed``.  The lower bound is the commuting-family rational for
    Majorana terms, the see-saw value for Pauli ones; ``exact`` is set
    only when both bounds are the same rational."""
    m = _admit_bank(kind, n, locality)
    majorana = kind == "majorana"
    if not majorana:
        _check_graph_vertices(m)
        _check_sdp_vertices(m)
    ops = enumerate_set(kind, n, locality)
    theta = theta_johnson_lp(n, locality) if majorana else theta_sdp(commutation_graph(ops))
    upper = theta.value / m
    seesaw = index_seesaw(ops, seed=seed)
    lower = index_lower_family(n, locality) if majorana else seesaw.value
    return IndexEstimate(
        upper=upper,
        lower=lower,
        heuristic=seesaw.value,
        exact=upper if majorana and lower == upper else None,
        method=theta.method,
    )
