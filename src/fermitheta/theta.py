"""Lovasz theta of commutation graphs.

Two routes:

* ``theta_johnson_lp`` -- the commutation graph of the full degree-q
  Majorana family is a union of odd-distance Johnson relations, so its
  theta reduces to a tiny linear program over exact integers: maximize
  p(0) = sum over odd d of a_d * H(d, 0) subject to p(x) >= -1 on the
  scheme's other eigenspaces x = 1..min(q, n - q), and the value is
  C(n, q) / (1 + p(0)).  Solved exactly by the fraction-free integer
  simplex of ``simplex.py``; the optimal coefficients must then satisfy
  every constraint exactly.

* ``theta_sdp`` -- a numeric solver for graphs of at most 600 vertices
  whose coherent closure is a commutative association scheme, which
  every full Pauli and Majorana family is, as are circulants and strongly
  regular graphs.  It has one route.  The vertex pairs are refined from
  {diagonal, edge, non-edge} to the graph's coherent closure.  When its
  diagonal stays one class and its class matrices commute (a generic
  combination of them has as many eigenspaces as there are classes), the
  optimum of the dual characterization of theta -- minimize lambda_max(A)
  over symmetric A fixed to 1 on the diagonal and on non-edges -- lies in
  the scheme's algebra (de Klerk, Pasechnik & Schrijver 2007), so theta
  is a Delsarte LP over one coefficient per edge class (Schrijver 1979),
  of the same form as the Johnson LP, solved by the float simplex of
  ``simplex.py``.  Any other graph is refused (:class:`InputError`).
  Neither route imports scipy.

  ``converged`` is a full-matrix certificate: the value is lambda_max of
  the assembled m x m dual matrix, an upper bound on theta, and the m x m
  primal must be PSD with unit trace, vanish on every edge and match that
  value within ``tol`` (one ``eigvalsh`` each).  A wrong closure is
  therefore refused or returned unconverged, never passed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

import numpy as np

from .algebra import _check_even_family
from .graphs import CommutationGraph
from .kernel import CapacityError, InputError
from .scheme import HahnTable, _check_hahn_work
from .simplex import LPSolution, PivotLimit, UnboundedProgram, solve_lp_max, solve_lp_max_float

__all__ = ["ThetaResult", "theta_johnson_lp", "theta_sdp", "round_half_up"]

MAX_SDP_VERTICES = 600
# Cap on _lp_work, sized from perf_counter timings of theta_johnson_lp on
# one core (71 (n, q) points with q = 10..70 and n = 2q..10^300): one
# unit took 0.3e-12 to 8.8e-12 s.  Admitted: (100, 40) at 3.7e11 units,
# 2.2 s, the slowest admitted point measured.  Refused: (120, 44) 7.9e11
# units 5.1 s, (120, 60) 5.3e12 3.0 s, (150, 50) 2.1e12 9.6 s,
# (10^300, 20) 3.7e12 14.7 s, and (160, 80) (21.8 s).
MAX_LP_WORK = 4 * 10**11


def _check_sdp_vertices(m: int):
    """Refuse an SDP over more than ``MAX_SDP_VERTICES`` vertices."""
    if m > MAX_SDP_VERTICES:
        raise CapacityError(f"{m} vertices exceed the SDP cap {MAX_SDP_VERTICES}")


class StructuralError(RuntimeError):
    """The symmetry-reduced program misbehaved; indicates an internal bug."""


def round_half_up(value) -> float:
    """Rounding to two decimals with ties away from zero, exact for
    Fractions."""
    shifted = Fraction(value) * 100
    if shifted >= 0:
        rounded = (2 * shifted + 1) // 2
    else:
        rounded = -((2 * -shifted + 1) // 2)
    return float(Fraction(rounded, 100))


@dataclass(frozen=True)
class ThetaResult:
    """Theta value with method tag, certificate and diagnostics."""

    value: Fraction | float
    method: str
    certificate: dict
    residuals: dict
    wall_time: float
    converged: bool = True

    @property
    def value_float(self) -> float:
        return float(self.value)

    def to_json(self) -> str:
        cert = {
            k: (str(v) if isinstance(v, Fraction) else v)
            for k, v in self.certificate.items()
        }
        return json.dumps(
            {
                "value": str(self.value) if isinstance(self.value, Fraction) else self.value,
                "value_float": self.value_float,
                "method": self.method,
                "certificate": cert,
                "residuals": self.residuals,
                "wall_time": self.wall_time,
                "converged": self.converged,
            }
        )


def _lp_work(q: int, bits: int) -> int:
    """Cost model of the exact Johnson LP (at most q rows, q variables)
    whose largest Hahn entry has ``bits`` bits: q^5 bits (q + bits/512).
    The time tracks q^6 bits while the entries are a few hundred bits wide
    (the pivot count leads) and q^5 bits^2 beyond (the width of the
    integer tableau leads)."""
    return q**5 * bits * (q + bits // 512)


def _check_lp_work(n: int, q: int):
    """Refuse a Johnson LP over ``MAX_LP_WORK`` before its Hahn table.

    The largest Hahn entry is a valency C(q, d) C(n - q, d); the d = 1
    valency bounds the work from below first, so that a huge n or q is
    refused without computing the others."""
    low = _lp_work(q, (q * (n - q)).bit_length())
    if low <= MAX_LP_WORK:
        bits = max((comb(q, d) * comb(n - q, d)).bit_length() for d in range(q + 1))
        low = _lp_work(q, bits)
    if low > MAX_LP_WORK:
        raise CapacityError(
            f"Johnson LP ({n}, {q}) needs at least {low} work units, above the cap of {MAX_LP_WORK}"
        )


def _delsarte_program(p0, rows) -> tuple[list, list, list]:
    """The (c, A, b) of the Delsarte LP over one free coefficient a_c per
    edge class c, split as a_c = u_c - v_c:  maximize p(0) = sum_c a_c
    p0[c] subject to p(j) = sum_c a_c row[c] >= -1 for each row, that is
    -p(j) <= 1.  Exact entries stay exact; theta is then m / (1 + p(0))."""
    c = [v for h in p0 for v in (h, -h)]
    A = [[v for h in row for v in (-h, h)] for row in rows]
    return c, A, [1] * len(A)


def theta_johnson_lp(n: int, q: int) -> ThetaResult:
    """Exact theta of the degree-q Majorana commutation graph on n modes.

    Refuses (:class:`CapacityError`) an (n, q) over the Hahn-table cap or
    over ``MAX_LP_WORK``, before the table is built."""
    _check_even_family(n, q)
    _check_hahn_work(n, q)
    _check_lp_work(n, q)
    t0 = time.perf_counter()
    table = HahnTable(n, q)
    odd_ds = list(range(1, q, 2))
    xs = range(1, min(q, n - q) + 1)  # eigenspaces; columns x > n - q are not
    c, A, b = _delsarte_program([table[d, 0] for d in odd_ds],
                                [[table[d, x] for d in odd_ds] for x in xs])
    try:
        sol: LPSolution = solve_lp_max(c, A, b)
    except Exception as exc:  # the program is always feasible and bounded
        raise StructuralError(f"theta LP failed unexpectedly: {exc}") from exc
    p0 = sol.value
    coeffs = {
        d: sol.point[2 * i] - sol.point[2 * i + 1] for i, d in enumerate(odd_ds)
    }
    # exact feasibility of the optimal certificate, zero tolerance, on the
    # integer numerators of p(x) over the coefficients' common denominator
    den = lcm(*(a.denominator for a in coeffs.values()))
    nums = {d: a.numerator * (den // a.denominator) for d, a in coeffs.items()}
    slacks = []
    for x in xs:
        px = sum(nums[d] * table[d, x] for d in odd_ds)
        if px < -den:
            raise StructuralError(f"certificate infeasible at x={x}: p(x)={Fraction(px, den)}")
        slacks.append(px + den)
    # q = n: one vertex, no constraint, and theta = 1
    min_slack = str(Fraction(min(slacks), den)) if slacks else None
    value = Fraction(comb(n, q), 1) / (1 + p0)
    return ThetaResult(
        value=value,
        method="johnson-lp-exact",
        certificate={f"a_{d}": coeffs[d] for d in odd_ds},
        residuals={"p0": str(p0), "min_constraint_slack": min_slack},
        wall_time=time.perf_counter() - t0,
    )


def _edge_list(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints (i, j), i < j, of the nonzero upper-triangle entries in
    row-major order, which fixes the layout of the SDP's edge variables."""
    return np.nonzero(np.triu(adj, 1))


# Seeded class weights of the closure rounds: below 2^12, so every entry of
# R @ R is an integer below 600 * 2^24 < 2^53, exact in float64.
_CLOSURE_SEED = 20070101
_CLOSURE_WEIGHT = 1 << 12
# Eigenvalues of the generic class combination closer than this, relative to
# its spectral radius, belong to one eigenspace.
_EIGENSPACE_RTOL = 1e-8


def _coherent_closure(m: int, ei, ej) -> tuple[np.ndarray, int, bool]:
    """Vertex-pair classes of the coherent closure of the graph on m
    vertices with edges (ei, ej).

    Starts from the partition {diagonal, edge, non-edge} of the pairs.  Each
    round draws seeded integer weights r, one per class, and splits every
    class by the entries of R @ R, R = r[labels]; stops when the class
    count stops growing, or as soon as the diagonal splits.  Returns the
    (m, m) class labels, the class count and whether the diagonal is one
    class (class 0).  A chance collision of two entries can only leave the
    partition too coarse, which the eigenspace count or the full-matrix
    certificate then rejects.
    """
    labels = np.full((m, m), 2)
    labels[ei, ej] = labels[ej, ei] = 1
    np.fill_diagonal(labels, 0)
    classes = int(labels.max()) + 1  # 2 for a complete graph
    rng = np.random.default_rng(_CLOSURE_SEED)
    while True:
        r = rng.integers(1, _CLOSURE_WEIGHT, size=classes).astype(float)
        R = r[labels]
        walks = np.unique(R @ R, return_inverse=True)[1].reshape(m, m)
        key = labels * (int(walks.max()) + 1) + walks
        labels = np.unique(key, return_inverse=True)[1].reshape(m, m)
        grown, classes = classes, int(labels.max()) + 1
        homogeneous = int(labels.diagonal().max()) == 0
        if not homogeneous or classes == grown:
            return labels, classes, homogeneous


def _eigenspaces(labels: np.ndarray, classes: int) -> tuple[np.ndarray, list]:
    """Eigenvectors U of a seeded generic combination of the classes and
    the column ranges of its eigenspaces.  A commutative closure has as
    many eigenspaces as classes, and its class matrices act on each as a
    scalar."""
    s = np.random.default_rng(_CLOSURE_SEED).uniform(1.0, 2.0, size=classes)
    w, U = np.linalg.eigh(s[labels])
    split = _EIGENSPACE_RTOL * max(abs(w[0]), abs(w[-1]))
    return U, np.split(np.arange(len(w)), np.flatnonzero(np.diff(w) > split) + 1)


def _coherent_lp(labels, classes, U, spaces, ei, ej):
    """Dual matrix A and primal X from the Delsarte LP of a commutative
    closure.

    P[j, c], the eigenvalue of class c's 0/1 matrix A_c on eigenspace E_j,
    is its entry sum over E_j divided by dim E_j; the sums run row by row
    and then over the rows, so their rounding grows with m, not m^2 (the
    complete graph K_544 read theta = 1 + 4e-9 with one sum over all
    entries, and 1 + 1.3e-11 this way).  The trivial eigenspace
    E_0 is the one holding the all-ones vector (1'E_j 1 is m there and 0
    elsewhere), and its row is the valencies.  With a free a_c on each edge
    class, maximize p0 = sum_c a_c P[0, c] subject to sum_c a_c P[j, c] >= -1
    on every other E_j; then theta = m / (1 + p0) and A = J - theta sum_c
    a_c A_c, edge weight 1 - theta a_c, has lambda_max theta.  The optimal
    duals z give x = (1, z) / (1 + sum z) and X = sum_j x_j E_j / dim E_j,
    whose entries on class c are (x P)_c / |c| (zero on the edge classes by
    dual feasibility).

    Solved by the float simplex of ``simplex.py``, not the exact one, whose
    Bareiss integers grow with the row count and the entries' bit width: on
    the program of a random circulant with m = 200 (101 classes, float
    entries taken as exact binary fractions) the exact solver took 287 s
    against 8.6 ms for the float one.  The program is feasible (a = 0)
    and bounded, so an unbounded program or a hit pivot limit is a
    :class:`StructuralError`.
    """
    m = labels.shape[0]
    keys = (labels + classes * np.arange(m)[:, None]).ravel()
    sums = np.stack([
        np.bincount(keys, weights=(U[:, cols] @ U[:, cols].T).ravel(),
                    minlength=m * classes).reshape(m, classes).sum(axis=0)
        for cols in spaces
    ])
    P = sums / np.array([len(cols) for cols in spaces])[:, None]
    edge = np.zeros(classes, bool)
    edge[labels[ei, ej]] = True
    trivial = int(np.argmax(sums.sum(axis=1)))
    rest = np.delete(np.arange(len(spaces)), trivial)
    try:
        p0, y, z = solve_lp_max_float(*_delsarte_program(P[trivial, edge], P[rest][:, edge]))
    except (UnboundedProgram, PivotLimit) as exc:
        raise StructuralError(f"coherent LP failed: {exc}") from exc
    theta = m / (1 + p0)
    weights = np.ones(classes)
    weights[edge] = 1 - theta * (y[0::2] - y[1::2])
    x = np.empty(len(spaces))
    x[trivial] = 1.0
    x[rest] = z
    primal = (x / (1 + z.sum()) @ P) / np.bincount(labels.ravel(), minlength=classes)
    return weights[labels], primal[labels]


def _certified(A, X, ei, ej, tol, t0, residuals) -> ThetaResult:
    """The theta result of dual matrix A and primal X, checked on the full
    m x m matrices: the value is lambda_max(A), an upper bound since A is
    fixed to 1 off the edges; ``converged`` needs X's edge entries, PSD
    violation and trace error within tol, and |lambda_max(A) - 1'X1|
    within tol * max(1, lambda)."""
    m = A.shape[0]
    lam = float(np.linalg.eigvalsh(A)[-1])
    edge_residual = float(np.abs(X[ei, ej]).max())
    primal_value = float(np.ones(m) @ X @ np.ones(m))
    primal_trace = float(np.trace(X))
    psd_violation = max(0.0, -float(np.linalg.eigvalsh(X)[0]))
    gap = abs(lam - primal_value)
    converged = (
        edge_residual <= tol
        and psd_violation <= tol
        and abs(primal_trace - 1.0) <= tol
        and gap <= tol * max(lam, 1.0)
    )
    return ThetaResult(
        value=lam,
        method="generic-sdp",
        certificate={
            "primal_value": primal_value,
            "primal_trace": primal_trace,
            "dual_edge_weights_norm": float(np.abs(A[ei, ej]).max()),
        },
        residuals={
            "edge_residual": edge_residual,
            "psd_violation": psd_violation,
            "duality_gap": float(gap),
            **residuals,
        },
        wall_time=time.perf_counter() - t0,
        converged=converged,
    )


def _adjacency(g: CommutationGraph | np.ndarray) -> np.ndarray:
    """The adjacency matrix of g; an array must be square, symmetric and
    0/1 with a zero diagonal (:class:`InputError` otherwise)."""
    if isinstance(g, CommutationGraph):
        return g.adjacency_matrix()
    adj = np.asarray(g, dtype=float)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise InputError(f"adjacency matrix must be square, got shape {adj.shape}")
    if not (np.isin(adj, (0.0, 1.0)).all() and (adj == adj.T).all() and not adj.diagonal().any()):
        raise InputError("adjacency matrix must be symmetric and 0/1 with a zero diagonal")
    return adj


def theta_sdp(g: CommutationGraph | np.ndarray, tol: float = 1e-6) -> ThetaResult:
    """Numeric theta, with primal-feasibility residuals, of a graph whose
    coherent closure is a commutative association scheme.

    One route: the coherent-closure LP, checked by the full-matrix
    certificate; a result that fails it is returned with ``converged``
    False.  A graph whose closure splits the diagonal, or has another
    eigenspace count than class count, is refused (:class:`InputError`).
    ``residuals`` name the route and the class and eigenspace counts.
    """
    adj = _adjacency(g)
    m = adj.shape[0]
    _check_sdp_vertices(m)
    t0 = time.perf_counter()
    ei, ej = _edge_list(adj)
    if len(ei) == 0:
        return ThetaResult(
            value=float(m),
            method="generic-sdp",
            certificate={"primal_trace": 1.0, "primal_rank_hint": 1},
            residuals={"edge_residual": 0.0, "psd_violation": 0.0, "duality_gap": 0.0,
                       "route": "edgeless"},
            wall_time=time.perf_counter() - t0,
        )
    labels, classes, homogeneous = _coherent_closure(m, ei, ej)
    if not homogeneous:
        raise InputError("graph is not a commutative association scheme: "
                         "its coherent closure splits the diagonal")
    U, spaces = _eigenspaces(labels, classes)
    if len(spaces) != classes:
        raise InputError(f"graph is not a commutative association scheme: its coherent "
                         f"closure has {classes} classes but {len(spaces)} eigenspaces")
    # "smoothing" stays in the residuals schema, always 0.0
    return _certified(*_coherent_lp(labels, classes, U, spaces, ei, ej), ei, ej, tol, t0,
                      {"smoothing": 0.0, "route": "coherent-lp", "classes": classes,
                       "eigenspaces": len(spaces)})
