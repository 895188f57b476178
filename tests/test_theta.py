"""Lovasz theta: exact LP values, SDP solver, cross-validation."""

import itertools
import json
import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermitheta.algebra import enumerate_set
from fermitheta.graphs import commutation_graph, commuting_majorana_family
from fermitheta.kernel import CapacityError, InputError
from fermitheta.scheme import HahnTable
from fermitheta.simplex import solve_lp_max
import fermitheta.simplex
import fermitheta.theta as theta_module
from fermitheta.theta import StructuralError, round_half_up, theta_johnson_lp, theta_sdp


def circulant(m, dists):
    A = np.zeros((m, m))
    for i in range(m):
        for d in dists:
            A[i, (i + d) % m] = A[(i + d) % m, i] = 1
    return A


def cycle_adjacency(m):
    return circulant(m, {1})


def path_adjacency(m):
    A = np.zeros((m, m))
    for i in range(m - 1):
        A[i, i + 1] = A[i + 1, i] = 1
    return A


def star_adjacency(leaves):
    A = np.zeros((leaves + 1, leaves + 1))
    A[0, 1:] = A[1:, 0] = 1
    return A


def random_adjacency(m, p, seed):
    A = np.triu(np.random.default_rng(seed).random((m, m)) < p, 1).astype(float)
    return A + A.T


# 50 random distances on 200 vertices: the closure keeps all 101 distance
# classes, so the coherent LP has 100 split variables and 100 constraints.
CLASS_RICH_CIRCULANT = circulant(
    200, np.random.default_rng(7).choice(np.arange(1, 101), 50, replace=False).tolist())


@st.composite
def circulants(draw):
    m = draw(st.integers(3, 30))
    dists = draw(st.sets(st.integers(1, m // 2), min_size=1))
    return circulant(m, dists)


def assert_reduced(res, tol=1e-9):
    """The coherent-closure route ran and its full-matrix certificate is tight."""
    assert res.residuals["route"] == "coherent-lp"
    assert res.residuals["classes"] == res.residuals["eigenspaces"]
    assert res.converged
    assert res.residuals["duality_gap"] <= tol * max(1.0, res.value)
    assert res.residuals["edge_residual"] <= 1e-12
    assert res.residuals["psd_violation"] <= 1e-12
    assert abs(res.certificate["primal_trace"] - 1.0) <= 1e-12


def assert_refused(A, reason):
    """theta_sdp refuses A with the one-line message that names the reason."""
    with pytest.raises(InputError) as exc:
        theta_sdp(A)
    assert str(exc.value) == f"graph is not a commutative association scheme: {reason}"


DIAGONAL_SPLIT = "its coherent closure splits the diagonal"

# Every Pauli and Majorana family with 2 <= m <= 150 members, as (kind, n, loc).
ENUMERABLE_FAMILIES = [
    (kind, n, loc)
    for kind, step, letters in (("majorana", 2, 1), ("pauli", 1, 3))
    for n in range(step, 151, step)
    for loc in range(1, n + 1)
    if 2 <= comb(n, loc) * letters**loc <= 150
]


class TestSimplex:
    def test_tiny_lp(self):
        # max x + y with x + y <= 1, x <= 0.6
        sol = solve_lp_max([1, 1], [[1, 1], [1, 0]], [1, Fraction(3, 5)])
        assert sol.value == 1

    def test_unbounded_detected(self):
        from fermitheta.simplex import UnboundedProgram

        with pytest.raises(UnboundedProgram):
            solve_lp_max([1], [[-1]], [1])


class TestJohnsonLP:
    @pytest.mark.parametrize(
        "n,q,expected",
        [
            (2, 2, 1),
            (6, 2, 3),
            (8, 4, 14),
            (12, 4, 15),
            (14, 4, 21),
            (12, 6, 52),
            (26, 6, 286),
        ],
    )
    def test_integer_cells(self, n, q, expected):
        assert theta_johnson_lp(n, q).value == expected

    def test_fractional_cells(self):
        assert theta_johnson_lp(10, 4).value == Fraction(102, 7)
        assert theta_johnson_lp(14, 6).value == Fraction(11869, 207)
        assert theta_johnson_lp(20, 10).value == Fraction(22828, 29)

    def test_two_decimal_rounding(self):
        assert round_half_up(theta_johnson_lp(10, 4).value) == 14.57
        assert round_half_up(theta_johnson_lp(14, 6).value) == 57.34
        assert round_half_up(theta_johnson_lp(20, 10).value) == 787.17

    def test_complement_duality_exact(self):
        # degree-q and degree-(n-q) families have isomorphic graphs
        assert theta_johnson_lp(10, 4).value == theta_johnson_lp(10, 6).value
        assert theta_johnson_lp(16, 6).value == theta_johnson_lp(16, 10).value

    def test_certificate_exactly_feasible(self):
        res = theta_johnson_lp(12, 6)
        table = HahnTable(12, 6)
        coeffs = {int(k.split("_")[1]): v for k, v in res.certificate.items()}
        for x in range(1, 7):
            px = sum(a * table[d, x] for d, a in coeffs.items())
            assert px >= -1  # exact rational comparison
        p0 = sum(a * table[d, 0] for d, a in coeffs.items())
        assert res.value == Fraction(comb(12, 6), 1 + p0)

    def test_rows_are_the_eigenspaces(self):
        # the LP keeps the rows x = 1..min(q, n - q); its theta equals that of
        # a reference LP over all rows x = 1..q of the Hahn table, and its
        # certificate is exactly feasible on every eigenspace
        for n in range(2, 41, 2):
            for q in range(2, n + 1, 2):
                table = HahnTable(n, q)
                ds = range(1, q, 2)
                c = [v for d in ds for v in (table[d, 0], -table[d, 0])]
                A = [[v for d in ds for v in (-table[d, x], table[d, x])]
                     for x in range(1, q + 1)]
                reference = Fraction(comb(n, q)) / (1 + solve_lp_max(c, A, [1] * q).value)
                res = theta_johnson_lp(n, q)
                assert res.value == reference, (n, q)
                coeffs = {int(k[2:]): a for k, a in res.certificate.items()}
                p = [sum(a * table[d, x] for d, a in coeffs.items())
                     for x in range(min(q, n - q) + 1)]
                assert res.value == Fraction(comb(n, q)) / (1 + p[0]), (n, q)
                assert min(p[1:], default=0) >= -1, (n, q)

    def test_rows_and_slack_at_q_equal_to_n(self, monkeypatch):
        # one vertex: no eigenspace but x = 0, so no constraint, and theta = 1
        rows = []

        def record(c, A, b):
            rows.append(len(A))
            return solve_lp_max(c, A, b)

        monkeypatch.setattr(theta_module, "solve_lp_max", record)
        for n, q in [(10, 4), (10, 6), (10, 10)]:
            res = theta_johnson_lp(n, q)
        assert rows == [4, 4, 0]
        payload = json.loads(res.to_json())
        assert payload["value"] == "1"
        assert payload["residuals"]["min_constraint_slack"] is None

    def test_odd_arguments_rejected(self):
        with pytest.raises(InputError):
            theta_johnson_lp(9, 4)
        with pytest.raises(InputError):
            theta_johnson_lp(10, 3)

    def test_lp_cap_refuses_before_the_hahn_table(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("Hahn table built for an LP over the cap")

        monkeypatch.setattr(theta_module, "HahnTable", refuse)
        for n, q in [(160, 80), (120, 60), (120, 44), (150, 50), (10**300, 20), (10**12, 40)]:
            with pytest.raises(CapacityError, match="Johnson LP"):
                theta_johnson_lp(n, q)

    def test_lp_cap_admits_the_sizes_in_use(self):
        # table --max-n 40 reaches (40, 10), bounds and the README (100, 4);
        # (100, 40) is the slowest admitted size measured
        for n, q in [(40, 10), (100, 4), (24, 12), (80, 40), (100, 40), (10**300, 10)]:
            theta_module._check_lp_work(n, q)

    def test_sandwich_against_commuting_family(self):
        for n, q in [(6, 2), (8, 4), (12, 4)]:
            fam = commuting_majorana_family(n, q)
            th = theta_johnson_lp(n, q).value
            assert th >= len(fam)
            assert th <= comb(n, q)


class TestThetaSDP:
    def test_triangle(self):
        ops = enumerate_set("pauli", 1, 1)
        res = theta_sdp(commutation_graph(ops))
        assert abs(res.value - 1.0) <= 1e-6

    def test_edgeless(self):
        res = theta_sdp(np.zeros((7, 7)))
        assert res.value == 7.0

    def test_five_cycle(self):
        res = theta_sdp(cycle_adjacency(5))
        assert abs(res.value - 5**0.5) <= 1e-4

    def test_residuals_reported(self):
        res = theta_sdp(cycle_adjacency(5), tol=1e-6)
        assert res.converged
        assert res.residuals["edge_residual"] <= 1e-6
        assert res.residuals["psd_violation"] <= 1e-6

    def test_matches_lp_on_johnson_graphs(self):
        for n, q in [(6, 2), (8, 2), (8, 4), (10, 4)]:
            lp = float(theta_johnson_lp(n, q).value)
            res = theta_sdp(commutation_graph(enumerate_set("majorana", n, q)))
            assert_reduced(res)
            assert abs(res.value - lp) <= 1e-9

    def test_json_serializable(self):
        res = theta_sdp(cycle_adjacency(5))
        payload = json.loads(res.to_json())
        assert payload["method"] == "generic-sdp"
        assert payload["residuals"]["route"] == "coherent-lp"
        assert payload["residuals"]["smoothing"] == 0.0
        assert payload["residuals"]["eigenspaces"] == 3

    @pytest.mark.parametrize(
        "adj",
        [
            np.zeros((3, 4)),
            [[0, 1], [0, 0]],
            [[0, 2], [2, 0]],
            [[1, 1], [1, 1]],
            [[0, np.nan], [np.nan, 0]],
        ],
        ids=["not-square", "asymmetric", "not-0-1", "nonzero-diagonal", "nan"],
    )
    def test_malformed_adjacency_refused(self, adj):
        with pytest.raises(InputError, match="^adjacency matrix must be"):
            theta_sdp(adj)


class TestCoherentRoute:
    @given(circulants())
    @example(CLASS_RICH_CIRCULANT)
    @settings(max_examples=30, deadline=None)
    def test_circulants_satisfy_vertex_transitive_identity(self, A):
        # theta(G) theta(complement of G) = m for vertex-transitive G (Lovasz 1979)
        m = len(A)
        res, co = theta_sdp(A), theta_sdp(1.0 - np.eye(m) - A)
        assert_reduced(res)
        if co.residuals["route"] != "edgeless":  # G complete
            assert_reduced(co)
        assert abs(res.value * co.value - m) <= 1e-9

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 13, 29])
    def test_odd_cycles(self, n):
        res = theta_sdp(cycle_adjacency(n))
        assert_reduced(res)
        c = math.cos(math.pi / n)
        assert abs(res.value - n * c / (1 + c)) <= 1e-9

    def test_petersen(self):
        pairs = list(itertools.combinations(range(5), 2))
        A = np.array([[float(not set(a) & set(b)) for b in pairs] for a in pairs])
        res = theta_sdp(A)
        assert_reduced(res)
        assert res.residuals["classes"] == 3
        assert abs(res.value - 4) <= 1e-9

    def test_paley_13(self):
        squares = {x * x % 13 for x in range(1, 13)}
        res = theta_sdp(circulant(13, squares))
        assert_reduced(res)
        assert abs(res.value - math.sqrt(13)) <= 1e-9

    @pytest.mark.parametrize("n,k,theta", [(4, 2, 6), (4, 3, 8), (3, 2, 3)])
    def test_full_pauli_families(self, n, k, theta):
        res = theta_sdp(commutation_graph(enumerate_set("pauli", n, k)))
        assert_reduced(res)
        assert abs(res.value - theta) <= 1e-9


class TestSmoothingFallback:
    """Graphs whose closure is no commutative scheme are refused with one
    line (the class keeps its name so that its test ids stay stable)."""

    @pytest.mark.parametrize("m", [4, 5, 6, 7])
    def test_paths(self, m):
        assert_refused(path_adjacency(m), DIAGONAL_SPLIT)

    @pytest.mark.parametrize("leaves", [2, 4, 7])
    def test_stars(self, leaves):
        assert_refused(star_adjacency(leaves), DIAGONAL_SPLIT)  # the centre splits it

    def test_random_graph_refused(self):
        assert_refused(random_adjacency(10, 0.4, 3), DIAGONAL_SPLIT)


class TestEnumerableFamilies:
    def test_every_family_takes_the_certified_lp(self):
        assert len(ENUMERABLE_FAMILIES) == 226
        bad = []
        for kind, n, loc in ENUMERABLE_FAMILIES:
            res = theta_sdp(commutation_graph(enumerate_set(kind, n, loc)))
            if res.residuals["route"] != "coherent-lp" or not res.converged:
                bad.append((kind, n, loc, res.residuals["route"], res.converged))
        assert bad == []


class TestWrongClosure:
    def test_failed_certificate_returns_unconverged(self, monkeypatch):
        real = theta_module._coherent_lp

        def perturbed(*args):
            A, X = real(*args)
            return A, X + 1e-3 * np.eye(len(X))[::-1]

        monkeypatch.setattr(theta_module, "_coherent_lp", perturbed)
        res = theta_sdp(cycle_adjacency(5))
        assert not res.converged
        assert res.residuals["route"] == "coherent-lp"
        assert res.residuals["classes"] == res.residuals["eigenspaces"] == 3
        assert res.residuals["edge_residual"] >= 1e-3 - 1e-12  # (0, 4) is an edge
        assert abs(res.value - 5**0.5) <= 1e-9  # the dual matrix is untouched

    def test_too_coarse_partition_refused(self, monkeypatch):
        # C6 has 4 distance classes; {diagonal, edge, non-edge} is not closed
        def coarse(m, ei, ej):
            labels = np.full((m, m), 2)
            labels[ei, ej] = labels[ej, ei] = 1
            np.fill_diagonal(labels, 0)
            return labels, 3, True

        monkeypatch.setattr(theta_module, "_coherent_closure", coarse)
        assert_refused(cycle_adjacency(6), "its coherent closure has 3 classes but 4 eigenspaces")

    def test_lp_without_optimum_is_structural(self, monkeypatch):
        # the program is feasible and bounded, so no optimum means a bug:
        # a hit pivot limit, or a program that lost its constraints
        monkeypatch.setattr(fermitheta.simplex, "FLOAT_PIVOTS_PER_COLUMN", 0)
        with pytest.raises(StructuralError) as exc:
            theta_sdp(cycle_adjacency(5))
        assert str(exc.value) == "coherent LP failed: no optimum within 0 pivots"
        monkeypatch.undo()

        real = theta_module._delsarte_program

        def unconstrained(p0, rows):
            c, A, b = real(p0, rows)
            return c, np.zeros_like(A), b

        monkeypatch.setattr(theta_module, "_delsarte_program", unconstrained)
        with pytest.raises(StructuralError) as exc:
            theta_sdp(cycle_adjacency(5))
        assert str(exc.value) == "coherent LP failed: objective unbounded above"


class TestRounding:
    def test_half_up(self):
        assert round_half_up(Fraction(145, 1000)) == 0.15  # tie bumps up
        assert round_half_up(Fraction(-145, 1000)) == -0.15  # ties away from zero
        assert round_half_up(Fraction(144, 1000)) == 0.14
        assert round_half_up(Fraction(102, 7)) == 14.57


class TestCompleteGraphs:
    @pytest.mark.parametrize("m", [3, 5, 7])
    def test_complete_graph_theta_is_one(self, m):
        res = theta_sdp(1.0 - np.eye(m))
        assert abs(res.value - 1.0) <= 1e-6
