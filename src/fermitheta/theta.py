"""Lovasz theta of commutation graphs.

Two routes:

* ``theta_johnson_lp`` -- the commutation graph of the full degree-q
  Majorana family is a union of odd-distance Johnson relations, so its
  theta reduces to a tiny linear program over exact integers: maximize
  p(0) = sum over odd d of a_d * H(d, 0) subject to p(x) >= -1 for
  x = 1..q, and the value is C(n, q) / (1 + p(0)).  Solved exactly in
  rational arithmetic.

* ``theta_sdp`` -- a generic numeric solver for arbitrary small graphs.
  It minimizes lambda_max(A) over symmetric matrices that are fixed to 1
  on the diagonal and on non-edges while edge entries float (the standard
  dual characterization of theta), using a log-sum-exp smoothing of
  lambda_max with decreasing smoothing parameter and L-BFGS.  The softmax
  gradient matrix at the optimum doubles as a primal certificate: it is
  positive semidefinite with unit trace, and its residual edge entries
  measure feasibility.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

import numpy as np
from scipy.optimize import minimize

from .graphs import CommutationGraph
from .kernel import CapacityError, InputError
from .scheme import HahnTable
from .simplex import LPSolution, solve_lp_max

__all__ = ["ThetaResult", "theta_johnson_lp", "theta_sdp", "round_half_up"]

MAX_SDP_VERTICES = 600


def _check_sdp_vertices(m: int):
    """Refuse an SDP over more than ``MAX_SDP_VERTICES`` vertices."""
    if m > MAX_SDP_VERTICES:
        raise CapacityError(f"{m} vertices exceed the SDP cap {MAX_SDP_VERTICES}")


class StructuralError(RuntimeError):
    """The symmetry-reduced program misbehaved; indicates an internal bug."""


def round_half_up(value, digits: int = 2) -> float:
    """Decimal rounding with ties away from zero, exact for Fractions."""
    f = Fraction(value)
    scale = Fraction(10) ** digits
    shifted = f * scale
    if shifted >= 0:
        rounded = (2 * shifted + 1) // 2
    else:
        rounded = -((2 * -shifted + 1) // 2)
    return float(Fraction(rounded, 1) / scale)


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


def theta_johnson_lp(n: int, q: int) -> ThetaResult:
    """Exact theta of the degree-q Majorana commutation graph on n modes."""
    if n % 2 != 0 or q % 2 != 0:
        raise InputError("n and q must both be even")
    if not 0 < q <= n:
        raise InputError("q must lie in 1..n")
    t0 = time.perf_counter()
    table = HahnTable(n, q)
    odd_ds = list(range(1, q, 2))
    if not odd_ds:
        raise InputError("q must be at least 2")
    # free variables a_d split into nonnegative parts u_d - v_d
    c = []
    for d in odd_ds:
        h0 = table[d, 0]
        c.extend([h0, -h0])
    A, b = [], []
    for x in range(1, q + 1):
        row = []
        for d in odd_ds:
            h = table[d, x]
            row.extend([-h, h])
        A.append(row)
        b.append(1)
    try:
        sol: LPSolution = solve_lp_max(c, A, b)
    except Exception as exc:  # the program is always feasible and bounded
        raise StructuralError(f"theta LP failed unexpectedly: {exc}") from exc
    p0 = sol.value
    coeffs = {
        d: sol.point[2 * i] - sol.point[2 * i + 1] for i, d in enumerate(odd_ds)
    }
    # exact feasibility of the optimal certificate, zero tolerance
    min_slack = None
    for x in range(1, q + 1):
        px = sum(coeffs[d] * table[d, x] for d in odd_ds)
        if px < -1:
            raise StructuralError(f"certificate infeasible at x={x}: p(x)={px}")
        slack = px + 1
        min_slack = slack if min_slack is None else min(min_slack, slack)
    value = Fraction(comb(n, q), 1) / (1 + p0)
    return ThetaResult(
        value=value,
        method="johnson-lp-exact",
        certificate={f"a_{d}": coeffs[d] for d in odd_ds},
        residuals={"p0": str(p0), "min_constraint_slack": str(min_slack)},
        wall_time=time.perf_counter() - t0,
    )


def _edge_list(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints (i, j), i < j, of the nonzero upper-triangle entries in
    row-major order, which fixes the layout of the SDP's edge variables."""
    return np.nonzero(np.triu(adj, 1))


def theta_sdp(g: CommutationGraph | np.ndarray, tol: float = 1e-6) -> ThetaResult:
    """Numeric theta of an arbitrary graph with primal-feasibility residuals."""
    adj = g.adjacency_matrix() if isinstance(g, CommutationGraph) else np.asarray(g, dtype=float)
    m = adj.shape[0]
    _check_sdp_vertices(m)
    t0 = time.perf_counter()
    ei, ej = _edge_list(adj)
    if len(ei) == 0:
        return ThetaResult(
            value=float(m),
            method="generic-sdp",
            certificate={"primal_trace": 1.0, "primal_rank_hint": 1},
            residuals={"edge_residual": 0.0, "psd_violation": 0.0, "duality_gap": 0.0},
            wall_time=time.perf_counter() - t0,
        )
    base = np.ones((m, m)) - adj  # fixed entries; edges float

    def assemble(y):
        A = base.copy()
        A[ei, ej] = y
        A[ej, ei] = y
        return A

    def smoothed(y, mu):
        w, U = np.linalg.eigh(assemble(y))
        shifted = (w - w[-1]) / mu
        weights = np.exp(shifted)
        Z = weights.sum()
        value = w[-1] + mu * np.log(Z)
        S = (U * (weights / Z)) @ U.T
        return value, 2.0 * S[ei, ej], S

    y = np.zeros(len(ei))
    mu_final = max(tol / max(np.log(m), 1.0) * 1e-1, 1e-9)
    mu = 1.0
    schedule = []
    while mu > mu_final:
        schedule.append(mu)
        mu /= 10.0
    schedule.append(mu_final)
    converged = True
    for mu in schedule:
        res = minimize(
            lambda yy: smoothed(yy, mu)[:2],
            y,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 5000, "ftol": 1e-18, "gtol": 1e-12},
        )
        y = res.x
    value, _, S = smoothed(y, mu_final)
    lam = float(np.linalg.eigvalsh(assemble(y))[-1])
    edge_residual = float(np.abs(S[ei, ej]).max())
    primal_value = float(np.ones(m) @ S @ np.ones(m))
    gap = abs(lam - primal_value)
    if edge_residual > tol or gap > max(tol * max(lam, 1.0), tol):
        converged = False
    return ThetaResult(
        value=lam,
        method="generic-sdp",
        certificate={
            "primal_value": primal_value,
            "primal_trace": float(np.trace(S)),
            "dual_edge_weights_norm": float(np.abs(y).max()),
        },
        residuals={
            "edge_residual": edge_residual,
            "psd_violation": max(0.0, -float(np.linalg.eigvalsh(S)[0])),
            "duality_gap": float(gap),
            "smoothing": float(mu_final),
        },
        wall_time=time.perf_counter() - t0,
        converged=converged,
    )
