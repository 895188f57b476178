"""Simplex solvers for small linear programs.

Both solve  max c.y  subject to  A y <= b,  y >= 0,  b >= 0,  from the
slack basis:

* ``solve_lp_max`` exactly, with Bland's anti-cycling rule, for problems
  with at most tens of variables and constraints; the Johnson theta
  programs have q/2 free variables and at most q constraints;
* ``solve_lp_max_float`` in float64, with the optimal duals, for the
  coherent-closure theta programs of up to a few hundred classes.  It
  takes Dantzig's rule, and Bland's rule after a degenerate pivot: on the
  programs of random circulants with 101 classes, Bland's rule alone took
  577-842 pivots against 112-198.

In the exact solver the tableau is kept as integers over one common
denominator D (Edmonds/Bareiss fraction-free elimination, Bareiss 1968):
each constraint row is scaled by the lcm of its denominators, its slack
column stays the unit vector (only the slack variable is rescaled, and
it is not returned), the cost row is scaled the same way, and D starts
at 1.  A pivot on the entry p updates every other entry a of the
tableau to (a p - f q) / D, where f is the entry of a's row in the
pivot column and q that of a's column in the pivot row, then sets
D = p.  Every entry is a minor of the integer starting tableau, so the
division is exact, and D stays positive, so every entry has the sign of
the rational it stands for.  Bland's rule reads the entering column
from the signs of the integer cost row and compares ratios by integer
cross-multiplication, ties going to the smaller basis index; the pivot
sequence, the optimal point and the value are those of the rational
tableau.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

__all__ = [
    "LPSolution",
    "solve_lp_max",
    "solve_lp_max_float",
    "UnboundedProgram",
    "InfeasibleProgram",
    "PivotLimit",
]

# A pivot entry at most this fraction of its column's largest magnitude,
# a reduced cost above -this fraction of the largest objective coefficient
# and two ratios within this fraction of the smaller one count as zero,
# zero and equal in the float solver.
FLOAT_RTOL = 1e-10
# The float solver refuses a program that takes more pivots than this
# multiple of its variable-plus-constraint count.
FLOAT_PIVOTS_PER_COLUMN = 20


class UnboundedProgram(RuntimeError):
    pass


class InfeasibleProgram(RuntimeError):
    pass


class PivotLimit(RuntimeError):
    pass


@dataclass(frozen=True)
class LPSolution:
    value: Fraction
    point: tuple[Fraction, ...]


def _rational(v) -> int | Fraction:
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def _integer_row(values: Sequence[int | Fraction]) -> tuple[list[int], int]:
    """The numerators of ``values`` over the lcm of their denominators, and
    that lcm."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def solve_lp_max(c: Sequence, A: Sequence[Sequence], b: Sequence) -> LPSolution:
    """Maximize c.y over {A y <= b, y >= 0}.

    Requires b >= 0 so the slack basis is feasible (all callers here satisfy
    this); Bland's rule guarantees termination.
    """
    ncons, nvar = len(A), len(c)
    rhs = [_rational(v) for v in b]
    if any(v < 0 for v in rhs):
        raise InfeasibleProgram("slack basis infeasible: negative right-hand side")
    width = nvar + ncons
    # constraint rows, then the cost row last
    tableau = []
    for i in range(ncons):
        ints, _ = _integer_row([_rational(A[i][j]) for j in range(nvar)] + [rhs[i]])
        slack = [0] * ncons
        slack[i] = 1
        tableau.append(ints[:nvar] + slack + ints[nvar:])
    cost, cost_scale = _integer_row([-_rational(v) for v in c])
    tableau.append(cost + [0] * (ncons + 1))
    basis = [nvar + i for i in range(ncons)]
    denom = 1
    while True:
        cost = tableau[-1]
        enter = next((j for j in range(width) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(ncons):
            a = tableau[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # ratio_i = rhs_i / a versus ratio_leave, both a's positive
                cross = tableau[i][-1] * tableau[leave][enter] - tableau[leave][-1] * a
                if cross < 0 or (cross == 0 and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise UnboundedProgram("objective unbounded above")
        prow = tableau[leave]
        piv = prow[enter]
        for i, row in enumerate(tableau):
            if i != leave:
                f = row[enter]
                tableau[i] = [(a * piv - f * q) // denom for a, q in zip(row, prow)]
        denom = piv
        basis[leave] = enter
    point = [Fraction(0)] * width
    for i, var in enumerate(basis):
        point[var] = Fraction(tableau[i][-1], denom)
    return LPSolution(value=Fraction(cost[-1], denom * cost_scale), point=tuple(point[:nvar]))


def solve_lp_max_float(c, A, b) -> tuple[float, np.ndarray, np.ndarray]:
    """Maximize c.y over {A y <= b, y >= 0} in float64.

    Returns the value, the optimal y and the optimal duals z >= 0 of
    min b.z over {A'z >= c}, read from the slack columns of the final cost
    row.  A reduced cost below -``FLOAT_RTOL`` times the largest |c| may
    enter: the most negative one (Dantzig's rule), or the first one
    (Bland's rule) right after a degenerate pivot, so that no basis
    repeats.  The
    leaving row has the least ratio among the rows whose pivot entry
    exceeds ``FLOAT_RTOL`` times the column's largest magnitude, ties
    (relative ``FLOAT_RTOL``) going to the smaller basis index.  Requires
    b >= 0 (:class:`InfeasibleProgram` otherwise); raises
    :class:`UnboundedProgram`, or :class:`PivotLimit` after
    ``FLOAT_PIVOTS_PER_COLUMN`` pivots per variable and constraint.
    """
    A = np.asarray(A, dtype=float)
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    if (b < 0).any():
        raise InfeasibleProgram("slack basis infeasible: negative right-hand side")
    ncons, nvar = A.shape
    # constraint rows, then the cost row last; the right-hand side is the last column
    tableau = np.zeros((ncons + 1, nvar + ncons + 1))
    tableau[:ncons, :nvar] = A
    tableau[:ncons, nvar:-1] = np.eye(ncons)
    tableau[:ncons, -1] = b
    tableau[-1, :nvar] = -c
    basis = np.arange(nvar, nvar + ncons)
    cost, rhs = tableau[-1, :-1], tableau[:-1, -1]
    cost_tol = -FLOAT_RTOL * np.abs(c).max(initial=0.0)
    limit = FLOAT_PIVOTS_PER_COLUMN * (nvar + ncons)
    pivots, degenerate = 0, False
    while True:
        enter = np.argmax(cost < cost_tol) if degenerate else np.argmin(cost)
        if cost[enter] >= cost_tol:
            break
        if pivots == limit:
            raise PivotLimit(f"no optimum within {limit} pivots")
        column = tableau[:-1, enter]
        rows = np.flatnonzero(column > FLOAT_RTOL * np.abs(column).max())
        if len(rows) == 0:
            raise UnboundedProgram("objective unbounded above")
        ratios = np.maximum(rhs[rows], 0.0) / column[rows]
        best = ratios.min()
        ties = rows[ratios <= best * (1 + FLOAT_RTOL)]
        leave = ties[np.argmin(basis[ties])]
        tableau[leave] /= tableau[leave, enter]
        factors = tableau[:, enter].copy()
        factors[leave] = 0.0
        tableau -= np.outer(factors, tableau[leave])
        basis[leave] = enter
        pivots, degenerate = pivots + 1, best == 0.0
    point = np.zeros(nvar + ncons)
    point[basis] = rhs
    return float(tableau[-1, -1]), point[:nvar], tableau[-1, nvar:-1].copy()
