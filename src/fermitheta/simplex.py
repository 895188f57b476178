"""Exact fraction-free simplex for small linear programs.

Solves  max c.y  subject to  A y <= b,  y >= 0  exactly, with Bland's
anti-cycling rule.  Intended for problems with at most tens of variables
and constraints; the symmetry-reduced theta programs have q/2 free
variables and q constraints.

The tableau is kept as integers over one common denominator D
(Edmonds/Bareiss fraction-free elimination, Bareiss 1968): each
constraint row is scaled by the lcm of its denominators, its slack
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

__all__ = ["LPSolution", "solve_lp_max", "UnboundedProgram", "InfeasibleProgram"]


class UnboundedProgram(RuntimeError):
    pass


class InfeasibleProgram(RuntimeError):
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
