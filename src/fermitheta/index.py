"""Commutation index of operator families: bounds, exact values, heuristics.

The commutation index of a set {A_1..A_m} is the supremum over pure states
of (1/m) sum_i <psi|A_i|psi>^2.  Rigorous upper bounds come from theta of
the commutation graph divided by m; rigorous lower bounds come from
explicit witness states; a monotone see-saw ascent supplies heuristic
maximizers in between.

Witnesses, see-saw and off-diagonal steps run on the matrix-free
:class:`~fermitheta.algebra.TermBank`, so no m x d x d stack of term
matrices is ever built.  The see-saw takes its eigenvectors from the
bank's parity sectors (``TermBank.sector_eigh``); only the off-diagonal
check, whose matrix is not a sum of bank terms, solves a dense d x d
matrix (:func:`~fermitheta.kernel.eigh`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .algebra import OperatorSet, TermBank, _check_bank_entries, _check_dim, term_bank
from .graphs import (
    _check_graph_vertices,
    best_commuting_family,
    commutation_graph,
    joint_eigenstate,
)
from .kernel import InputError, RandomStream, eigh, random_state
from .theta import ThetaResult, _check_sdp_vertices, theta_johnson_lp, theta_sdp

__all__ = [
    "IndexEstimate",
    "index_upper",
    "index_lower_family",
    "index_pauli_product",
    "index_seesaw",
    "pauli_index_weak_bound",
    "offdiag_index_check",
    "index_estimate",
]

MAX_SEESAW_DIM = 1 << 12
MAX_OFFDIAG_DIM = 1 << 10


@dataclass(frozen=True)
class IndexEstimate:
    """Bracketing of a commutation index, exact when the bracket closes."""

    upper: Fraction | float
    lower: Fraction | float | None
    heuristic: float | None
    exact: Fraction | float | None
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


def _is_full_majorana_family(ops: OperatorSet) -> bool:
    return (
        ops.kind == "majorana"
        and len(ops) == comb(ops.n, ops.locality)
        and all(m.degree == ops.locality for m in ops.members)
        and ops.locality % 2 == 0
        and ops.n % 2 == 0
    )


def index_upper(ops: OperatorSet) -> Fraction | float:
    """theta(G(S)) / |S|: exact rational for full even-degree Majorana
    families, else ``theta_sdp``'s coherent-closure LP at its tolerance
    1e-6, which refuses a graph that is not a commutative association
    scheme (:class:`InputError`)."""
    return _theta_for_set(ops).value / len(ops)


def _theta_for_set(ops: OperatorSet) -> ThetaResult:
    if _is_full_majorana_family(ops):
        return theta_johnson_lp(ops.n, ops.locality)
    return theta_sdp(commutation_graph(ops))


def index_lower_family(n: int, q: int, verify_dim_cap: int = 1 << 12):
    """Sharpest explicit-family lower bound: |family| / C(n, q).

    Uses the largest known commuting subfamily (the 14-block Hamming
    family at (8, 4), the pair-product family of C(n/2, q/2) members
    otherwise) and certifies it numerically with an adaptive-sign joint
    eigenstate when the dense dimension permits.  Returns (value,
    witness_mean_square), the witness entry None above the cap.
    """
    if n % 2 != 0 or q % 2 != 0:
        raise InputError("n and q must both be even")
    family = best_commuting_family(n, q)
    value = Fraction(len(family), comb(n, q))
    witness = None
    if 1 << (n // 2) <= verify_dim_cap:
        psi, _ = joint_eigenstate(family)
        witness = float(np.mean(term_bank("majorana", n, q).expectations(psi) ** 2))
        if witness < float(value) - 1e-9:
            raise RuntimeError(
                f"joint eigenstate witness {witness} fell below the family bound {float(value)}"
            )
    return value, witness


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


def index_seesaw(
    ops: OperatorSet,
    restarts: int = 8,
    iters: int = 200,
    seed: int = 7,
) -> SeesawResult:
    """Monotone alternating ascent on the mean squared expectation.

    Each iteration replaces the state by the top eigenvector of
    M(psi) = (1/m) sum_i <psi|A_i|psi> A_i, which never decreases the
    objective; a run stops when an iteration gains less than 1e-12, and
    the best run over seeded restarts is returned.  Always a valid lower
    bound on the index.  M(psi) is sqrt(m)^-1 times the bank's Hamiltonian
    of the expectations, so its top eigenpair is the largest of
    :meth:`~fermitheta.algebra.TermBank.sector_eigh` over all sectors,
    placed at that sector's basis states.  In a mirror +1 bank both
    sectors share the top level; the objective is invariant under the
    mirror P, so either vector serves, and the first (sector 0) is taken.
    """
    bank = TermBank.from_set(ops, MAX_SEESAW_DIM)
    d = bank.dim
    side = bank.sector_rows.shape[1]
    best = None
    for r in range(restarts):
        psi = random_state(RandomStream(seed, r), d)
        history = []
        prev = -np.inf
        for _ in range(iters):
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


def offdiag_index_check(ops: OperatorSet, trials: int = 32, seed: int = 11, upper=None) -> dict:
    """Randomized search for the two-vector variant of the index.

    Estimates sup over unit u, v of (1/m) sum_i |<u|A_i|v>|^2 by an
    alternating top-eigenvector ascent and checks it against 16 times the
    standard index upper bound.
    """
    bank = TermBank.from_set(ops, MAX_OFFDIAG_DIM)
    m, d = len(bank), bank.dim
    if upper is None:
        upper = index_upper(ops)

    def top(x):
        # top eigenvector of (1/m) sum_i (A_i x)(A_i x)^dag
        Ax = bank.apply(x)
        K = Ax.T @ Ax.conj() / m
        return eigh((K + K.conj().T) / 2)[1][:, -1]

    best = 0.0
    for t in range(trials):
        u = random_state(RandomStream(seed, 2 * t), d)
        v = random_state(RandomStream(seed, 2 * t + 1), d)
        prev = -np.inf
        for _ in range(100):
            u = top(v)
            v = top(u)
            obj = float(np.mean(np.abs(bank.apply(v) @ u.conj()) ** 2))
            if obj - prev < 1e-12:
                break
            prev = obj
        best = max(best, prev)
    bound = 16 * float(upper) + 1e-9
    if best > bound:
        raise RuntimeError(f"off-diagonal estimate {best} exceeds 16x index bound {bound}")
    return {"estimate": best, "bound": bound, "trials": trials, "passed": True}


def _check_estimate(kind: str, n: int, locality: int, members: int):
    """Refuse, from its member count alone, an enumerated family that
    :func:`index_estimate` would refuse: an odd-degree Majorana family (the
    see-saw cannot hermitize it), an even-degree one (theta from the
    Johnson LP) at its see-saw's term bank, any other at its commutation
    graph or theta SDP; then any family above the see-saw's dense
    dimension cap ``MAX_SEESAW_DIM``."""
    dim = 1 << (n // 2 if kind == "majorana" else n)
    if kind == "majorana" and locality % 2:
        raise InputError("hermitization requires even degree")
    if kind == "majorana":
        _check_bank_entries(members, dim)
    else:
        _check_graph_vertices(members)
        _check_sdp_vertices(members)
    _check_dim(dim, MAX_SEESAW_DIM)


def index_estimate(ops: OperatorSet, seed: int = 7) -> IndexEstimate:
    """Aggregate upper/lower/heuristic information for one operator set:
    :func:`index_upper` and the see-saw at its 8 restarts of at most 200
    iterations from ``seed``."""
    theta = _theta_for_set(ops)
    upper = theta.value / len(ops)
    seesaw = index_seesaw(ops, seed=seed)
    lower: Fraction | float | None
    if _is_full_majorana_family(ops):
        lower, _ = index_lower_family(ops.n, ops.locality, verify_dim_cap=0)
    else:
        lower = seesaw.value
    exact = None
    if lower is not None and abs(float(upper) - float(lower)) <= 1e-9:
        exact = upper if isinstance(upper, Fraction) else float(upper)
    return IndexEstimate(
        upper=upper,
        lower=lower,
        heuristic=seesaw.value,
        exact=exact,
        method=theta.method,
    )
