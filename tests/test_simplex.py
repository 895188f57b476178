"""Fraction-free simplex against the rational tableau it replaces; the
float simplex against HiGHS (``scipy.optimize.linprog``, a test-only
reference)."""

import csv
import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import fermitheta.simplex
import fermitheta.theta as theta_module
from fermitheta.cli import reproduce_table
from fermitheta.scheme import HahnTable
from fermitheta.simplex import (
    InfeasibleProgram,
    LPSolution,
    PivotLimit,
    UnboundedProgram,
    solve_lp_max,
    solve_lp_max_float,
)
from fermitheta.theta import StructuralError, theta_johnson_lp


def fraction_reference(c, A, b) -> LPSolution:
    """The Fraction tableau with Bland's rule that the integer simplex
    replaced: the same program, pivot by pivot in rational arithmetic."""
    ncons, nvar = len(A), len(c)
    if any(Fraction(v) < 0 for v in b):
        raise InfeasibleProgram("slack basis infeasible: negative right-hand side")
    tableau = [
        [Fraction(A[i][j]) for j in range(nvar)]
        + [Fraction(1) if k == i else Fraction(0) for k in range(ncons)]
        + [Fraction(b[i])]
        for i in range(ncons)
    ]
    cost = [-Fraction(v) for v in c] + [Fraction(0)] * (ncons + 1)
    basis = [nvar + i for i in range(ncons)]
    while True:
        enter = next((j for j in range(nvar + ncons) if cost[j] < 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i in range(ncons):
            if tableau[i][enter] > 0:
                ratio = tableau[i][-1] / tableau[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            raise UnboundedProgram("objective unbounded above")
        piv = tableau[leave][enter]
        tableau[leave] = [v / piv for v in tableau[leave]]
        for i in range(ncons):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [a - f * p for a, p in zip(tableau[i], tableau[leave])]
        f = cost[enter]
        if f != 0:
            cost = [a - f * p for a, p in zip(cost, tableau[leave])]
        basis[leave] = enter
    point = [Fraction(0)] * (nvar + ncons)
    for i, var in enumerate(basis):
        point[var] = tableau[i][-1]
    return LPSolution(value=cost[-1], point=tuple(point[:nvar]))


def outcome(solver, c, A, b):
    """The solution, or the type of the exception the solver raised."""
    try:
        return solver(c, A, b)
    except (UnboundedProgram, InfeasibleProgram) as exc:
        return type(exc)


# Small numerators and denominators make ratio ties and degenerate pivots
# common; zero is drawn often so that right-hand sides and columns vanish.
rationals = st.one_of(
    st.just(0),
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
)
nonnegative = st.one_of(
    st.just(0),
    st.integers(0, 6),
    st.fractions(min_value=0, max_value=6, max_denominator=6),
)


@st.composite
def programs(draw, rhs=nonnegative):
    nvar = draw(st.integers(1, 7))
    ncons = draw(st.integers(1, 7))
    c = draw(st.lists(rationals, min_size=nvar, max_size=nvar))
    A = draw(st.lists(st.lists(rationals, min_size=nvar, max_size=nvar),
                      min_size=ncons, max_size=ncons))
    b = draw(st.lists(rhs, min_size=ncons, max_size=ncons))
    return c, A, b


class TestAgainstFractionTableau:
    @settings(max_examples=200, deadline=None)
    @given(programs())
    def test_same_value_point_and_exception(self, program):
        assert outcome(solve_lp_max, *program) == outcome(fraction_reference, *program)

    @settings(max_examples=100, deadline=None)
    @given(programs(rhs=st.just(0)))
    def test_degenerate_zero_rhs(self, program):
        assert outcome(solve_lp_max, *program) == outcome(fraction_reference, *program)

    @settings(max_examples=50, deadline=None)
    @given(programs(), st.data())
    def test_negative_rhs_infeasible(self, program, data):
        c, A, b = program
        i = data.draw(st.integers(0, len(b) - 1))
        b[i] = data.draw(st.fractions(max_value=Fraction(-1, 6), max_denominator=6))
        assert outcome(solve_lp_max, c, A, b) is InfeasibleProgram
        assert outcome(fraction_reference, c, A, b) is InfeasibleProgram

    def test_ratio_tie_goes_to_smaller_basis_index(self):
        # All three rows bound y0 at 1 and Bland's rule takes the first; the
        # degenerate second pivot then leaves y1 at 0.
        program = ([1, 1], [[1, 0], [2, 0], [1, 1]], [1, 2, 1])
        sol = solve_lp_max(*program)
        assert sol == fraction_reference(*program)
        assert sol == LPSolution(value=1, point=(1, 0))

    def test_tie_break_decides_the_optimal_vertex(self):
        # A degenerate program with several optimal vertices: taking the
        # larger basis index on a ratio tie ends at y1 = 1/7 instead.
        F = Fraction
        c = [2, 0, F(5, 2), F(1, 2)]
        A = [
            [F(-3, 2), 0, F(7, 2), 0],
            [8, -2, F(-5, 2), 0],
            [F(4, 3), 0, 0, F(2, 3)],
            [F(3, 2), F(5, 6), F(-5, 6), -1],
            [F(5, 3), 0, F(-7, 6), 0],
        ]
        b = [F(1, 2), F(4, 5), 0, 0, F(7, 3)]
        sol = solve_lp_max(c, A, b)
        assert sol == fraction_reference(c, A, b)
        assert sol == LPSolution(value=F(5, 14), point=(0, 0, F(1, 7), 0))

    def test_unbounded(self):
        program = ([1, 0], [[-1, 1], [0, 1]], [1, Fraction(1, 2)])
        assert outcome(solve_lp_max, *program) is UnboundedProgram
        assert outcome(fraction_reference, *program) is UnboundedProgram

    def test_mixed_input_types(self):
        program = ([1.5, "1/3"], [[1, Fraction(1, 2)], [0.25, 2]], [2, "3/2"])
        assert solve_lp_max(*program) == fraction_reference(*program)


def test_every_table_cell_matches_reference(monkeypatch):
    """Every LP of ``table --max-n 40`` solves to the reference solution,
    and theta_johnson_lp certifies with its coefficients."""
    solved = []

    def both(c, A, b):
        sol = solve_lp_max(c, A, b)
        ref = fraction_reference(c, A, b)
        assert sol == ref
        solved.append(ref)
        return sol

    monkeypatch.setattr(theta_module, "solve_lp_max", both)
    rows = list(csv.reader(io.StringIO(reproduce_table(40, [2, 4, 6, 8, 10]))))[1:]
    assert len(solved) == len(rows) == 90
    for n, q, value, *_ in rows:
        res = theta_johnson_lp(int(n), int(q))
        ref = solved[-1]
        assert str(res.value) == value
        assert res.residuals["p0"] == str(ref.value)
        assert res.certificate == {
            f"a_{d}": ref.point[2 * i] - ref.point[2 * i + 1]
            for i, d in enumerate(range(1, int(q), 2))
        }


@pytest.mark.parametrize("n,q", [(10, 4), (20, 10), (40, 10)])
def test_certificate_slack_matches_rational_check(n, q):
    res = theta_johnson_lp(n, q)
    table = HahnTable(n, q)
    coeffs = {int(k[2:]): a for k, a in res.certificate.items()}
    slacks = [sum(a * table[d, x] for d, a in coeffs.items()) + 1 for x in range(1, q + 1)]
    assert min(slacks) >= 0
    assert res.residuals["min_constraint_slack"] == str(min(slacks))


def test_infeasible_certificate_rejected(monkeypatch):
    def overshoot(c, A, b):
        sol = solve_lp_max(c, A, b)
        # a_1 one part in 10^6 too large breaks some p(x) >= -1
        point = (sol.point[0] * (1 + Fraction(1, 10**6)),) + sol.point[1:]
        return LPSolution(value=sol.value, point=point)

    monkeypatch.setattr(theta_module, "solve_lp_max", overshoot)
    with pytest.raises(StructuralError, match="certificate infeasible"):
        theta_johnson_lp(10, 4)


# Entries on a grid of 1/4 (ratio ties, degenerate vertices and zero
# columns are common), or arbitrary floats spanning four decades.
grid = st.integers(-12, 12).map(lambda v: v / 4)
wide = st.floats(-100.0, 100.0, allow_nan=False).filter(lambda v: v == 0 or abs(v) >= 1e-2)


@st.composite
def float_programs(draw):
    """max c.y over {A y <= 1, y >= 0}."""
    nvar = draw(st.integers(1, 12))
    ncons = draw(st.integers(1, 12))
    entries = draw(st.sampled_from([grid, wide]))
    c = np.array(draw(st.lists(entries, min_size=nvar, max_size=nvar)))
    A = np.array(draw(st.lists(st.lists(entries, min_size=nvar, max_size=nvar),
                               min_size=ncons, max_size=ncons)))
    return c, A, np.ones(ncons)


def check_against_highs(c, A, b, tol=1e-9):
    """The float simplex reaches HiGHS's outcome and value, and its duals
    certify the value: z >= 0, A'z >= c and b.z = c.y, within tol."""
    # y = 0 is feasible, so the program is unbounded iff some ray r >= 0
    # with A r <= 0 has c.r > 0: a bounded program that HiGHS always solves
    ray = linprog(-c, A_ub=A, b_ub=np.zeros(len(b)), bounds=(0, 1), method="highs")
    assert ray.status == 0
    if -ray.fun > tol:
        with pytest.raises(UnboundedProgram):
            solve_lp_max_float(c, A, b)
        return None
    ref = linprog(-c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
    assert ref.status == 0
    value, y, z = solve_lp_max_float(c, A, b)
    scale = max(1.0, abs(value))
    assert abs(value + ref.fun) <= tol * scale
    assert abs(c @ y - value) <= tol * scale
    assert (y >= -tol).all() and (A @ y <= b + tol * scale).all()
    assert (z >= -tol).all()
    assert (A.T @ z >= c - tol * scale).all()
    assert abs(b @ z - value) <= tol * scale
    return value, y, z


class TestFloatAgainstHighs:
    @settings(max_examples=300, deadline=None)
    @given(float_programs())
    def test_same_outcome_value_and_dual_certificate(self, program):
        check_against_highs(*program)

    def test_ratio_tie_goes_to_smaller_basis_index(self):
        # The exact solver's tie case: all three rows bound y0 at 1, the
        # first row leaves, and the degenerate second pivot leaves y1 at 0.
        c, A = np.array([1.0, 1.0]), np.array([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
        value, y, z = check_against_highs(c, A, np.array([1.0, 2.0, 1.0]))
        assert value == 1.0 and y.tolist() == [1.0, 0.0]

    def test_degenerate_vertex(self):
        # Beale's program (Beale 1955): at the degenerate vertex y = 0,
        # Dantzig's rule alone cycles until the pivot limit; the switch to
        # Bland's rule after a degenerate pivot leaves the vertex.
        c = np.array([0.75, -20.0, 0.5, -6.0])
        A = np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]])
        value, y, z = check_against_highs(c, A, np.array([0.0, 0.0, 1.0]))
        assert abs(value - 1.25) <= 1e-12

    def test_unbounded(self):
        check_against_highs(np.array([1.0, 0.0]), np.array([[-1.0, 1.0], [0.0, 1.0]]), np.ones(2))

    def test_pivot_limit(self, monkeypatch):
        monkeypatch.setattr(fermitheta.simplex, "FLOAT_PIVOTS_PER_COLUMN", 0)
        with pytest.raises(PivotLimit, match="^no optimum within 0 pivots$"):
            solve_lp_max_float([1.0], [[1.0]], [1.0])
        assert solve_lp_max_float([-1.0], [[1.0]], [1.0])[0] == 0.0  # optimal at the slack basis
