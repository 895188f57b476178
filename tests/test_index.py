"""Commutation index: bounds, witnesses, see-saw heuristics."""

import contextlib
import hashlib
import io
import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fermitheta.index
from fermitheta.algebra import (
    OperatorSet,
    PauliString,
    enumerate_set,
    majorana_anticommutes,
    term_bank,
)
from fermitheta.cli import dispatch
from fermitheta.graphs import best_commuting_family, joint_eigenstate
from fermitheta.index import (
    SEESAW_ITERS,
    SEESAW_RESTARTS,
    SeesawResult,
    index_estimate,
    index_lower_family,
    index_pauli_product,
    index_seesaw,
    pauli_index_weak_bound,
)
from fermitheta.kernel import CapacityError, InputError, RandomStream, eigh, random_state
from fermitheta.lab import delta_upper_bound
from fermitheta.models import _check, ansatz_bounds_report
from fermitheta.theta import theta_johnson_lp


def xyz():
    return OperatorSet("pauli", 1, 1, tuple(PauliString.from_label(c) for c in "XYZ"))


def product_state(seed, n):
    return [random_state(RandomStream(seed, j), 2) for j in range(n)]


def index_upper(kind, n, k):
    """theta(G(S)) / |S| of the full family, as index_estimate takes it."""
    return index_estimate(kind, n, k).upper


def witness(n, q):
    """Mean squared expectation of the full degree-q family in a joint
    eigenstate of the best commuting family: the numeric side of the
    exact family bound."""
    psi, _ = joint_eigenstate(best_commuting_family(n, q))
    return float(np.mean(term_bank("majorana", n, q).expectations(psi) ** 2))


def least_float_at_or_above(v, exact):
    return Fraction(v) >= exact > Fraction(math.nextafter(v, 0))


class TestUpper:
    def test_s62(self):
        assert index_upper("majorana", 6, 2) == Fraction(1, 5)

    def test_s84(self):
        assert index_upper("majorana", 8, 4) == Fraction(1, 5)

    def test_xyz_triangle(self):
        assert enumerate_set("pauli", 1, 1).members == xyz().members
        assert abs(float(index_upper("pauli", 1, 1)) - 1 / 3) <= 1e-6


class TestRoundedUp:
    """Every float the library makes of a rigorous bound is the least float
    at or above its exact rational; rounding to nearest put 39 of the SYK
    bounds below, and (2/3)^k for k = 1..4."""

    SYK = [(n, q) for n in range(4, 25, 2) for q in range(2, n, 2)]

    def test_syk_delta(self):
        assert len(self.SYK) == 66
        for n, q in self.SYK:
            exact = theta_johnson_lp(n, q).value / comb(n, q)
            assert least_float_at_or_above(delta_upper_bound("syk", n, q), exact), (n, q)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_sg_delta(self, k):
        assert least_float_at_or_above(delta_upper_bound("sg", 6, k), Fraction(2, 3) ** k)

    def test_bounds_sigma_sq(self):
        for n, q in [*self.SYK, (100, 4)]:
            exact = theta_johnson_lp(n, q).value / comb(n, q)
            sigma_sq = ansatz_bounds_report(n, q, 0.5, 64, 1e-3).sigma_sq
            assert least_float_at_or_above(sigma_sq, exact), (n, q)


class TestLower:
    def test_62(self):
        value = index_lower_family(6, 2)
        assert value == Fraction(3, 15)
        assert witness(6, 2) >= float(value) - 1e-9

    def test_124_witness(self):
        value = index_lower_family(12, 4)
        assert value == Fraction(15, 495)
        assert witness(12, 4) >= float(value) - 1e-9

    def test_84_family_closes_sandwich(self):
        value = index_lower_family(8, 4)
        assert value == Fraction(1, 5)
        assert abs(witness(8, 4) - 0.2) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda h: st.tuples(st.just(2 * h), st.integers(1, h))))
    def test_family_bound_is_exact(self, nh):
        # the family commutes pairwise by the scalar rule, and its rational
        # bound stays below theta / C(n, q)
        n, q = nh[0], 2 * nh[1]
        value = index_lower_family(n, q)
        family = best_commuting_family(n, q).members
        assert value == Fraction(len(family), comb(n, q))
        assert value <= theta_johnson_lp(n, q).value / comb(n, q)
        assert all(len(a.support) == q for a in family)
        for i, a in enumerate(family):
            for b in family[i + 1:]:
                assert not majorana_anticommutes(a, b)


class TestPauliProduct:
    def test_00(self):
        v = index_pauli_product(2, 1, [np.array([1.0, 0]), np.array([1.0, 0])])
        assert abs(v - 1 / 3) <= 1e-12

    def test_000(self):
        v = index_pauli_product(3, 2, [np.array([1.0, 0])] * 3)
        assert abs(v - 1 / 9) <= 1e-12

    def test_random_product_states(self):
        for seed in range(5):
            v = index_pauli_product(4, 2, product_state(seed, 4))
            assert abs(v - 1 / 9) <= 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(InputError):
            index_pauli_product(2, 1, [np.array([1.0, 1.0]), np.array([1.0, 0])])


class TestWeakBound:
    def test_values(self):
        assert pauli_index_weak_bound(5, 1) == Fraction(2, 3)
        assert pauli_index_weak_bound(5, 2) == Fraction(4, 9)

    def test_dominates_exact_value(self):
        assert pauli_index_weak_bound(2, 1) >= Fraction(1, 3)
        assert pauli_index_weak_bound(3, 2) >= Fraction(1, 9)

    def test_dominates_seesaw_at_k3(self):
        ops = enumerate_set("pauli", 3, 3)
        res = index_seesaw(ops, seed=5)
        assert res.value <= float(pauli_index_weak_bound(3, 3)) + 1e-9


def dense_seesaw(ops, seed=7, gain_tol=1e-12):
    """Reference see-saw on the stack of dense term matrices."""
    mats = np.array(ops.hermitized_matrices())
    m, d = mats.shape[0], mats.shape[1]
    best = None
    for r in range(SEESAW_RESTARTS):
        psi = random_state(RandomStream(seed, r), d)
        history = []
        prev = -np.inf
        for _ in range(SEESAW_ITERS):
            w = np.real(np.einsum("i,mij,j->m", psi.conj(), mats, psi))
            obj = float(np.mean(w**2))
            history.append(obj)
            if obj - prev < gain_tol and len(history) > 1:
                break
            prev = obj
            psi = eigh(np.tensordot(w, mats, axes=1) / m)[1][:, -1]
        w = np.real(np.einsum("i,mij,j->m", psi.conj(), mats, psi))
        cand = SeesawResult(float(np.mean(w**2)), psi, tuple(history), r)
        if best is None or cand.value > best.value:
            best = cand
    return best


def one_member(label):
    return OperatorSet("pauli", len(label), 1, (PauliString.from_label(label),))


class TestSeesaw:
    @pytest.mark.parametrize(
        "ops",
        [
            enumerate_set("majorana", 6, 2),
            enumerate_set("majorana", 8, 4),
            enumerate_set("pauli", 3, 2),
            xyz(),
            enumerate_set("majorana", 10, 2),
            enumerate_set("majorana", 10, 4),
            enumerate_set("majorana", 12, 4),
        ],
        ids=["majorana-6-2", "majorana-8-4", "pauli-3-2", "xyz", "majorana-10-2", "majorana-10-4",
             "majorana-12-4"],
    )
    def test_matches_dense_reference(self, ops):
        # majorana (10, 2) is a mirror -1 bank, whose sector 1 descends
        got, ref = index_seesaw(ops, seed=7), dense_seesaw(ops, seed=7)
        assert abs(got.value - ref.value) <= 1e-12
        # the returned state attains the returned value
        mats = np.array(ops.hermitized_matrices())
        w = np.real(np.einsum("i,mij,j->m", got.state.conj(), mats, got.state))
        assert abs(float(np.mean(w**2)) - got.value) <= 1e-12

    def test_capacity_checked_before_building(self):
        with pytest.raises(CapacityError):
            index_seesaw(one_member("Z" + "I" * 12))

    def test_rejects_non_hermitian_member(self):
        ops = OperatorSet("pauli", 1, 1, (PauliString(1, 1, 1, 0),))  # XZ = -iY
        with pytest.raises(InputError):
            index_seesaw(ops)

    def test_commuting_pair_reaches_one(self):
        ops = OperatorSet(
            "pauli",
            2,
            1,
            (PauliString.from_label("ZI"), PauliString.from_label("IZ")),
        )
        assert abs(index_seesaw(ops, seed=1).value - 1.0) <= 1e-9

    def test_xyz_reaches_third(self):
        assert abs(index_seesaw(xyz(), seed=2).value - 1 / 3) <= 1e-9

    def test_s62_closes(self):
        res = index_seesaw(enumerate_set("majorana", 6, 2), seed=7)
        assert abs(res.value - 0.2) <= 1e-6

    def test_monotone_history(self):
        res = index_seesaw(enumerate_set("majorana", 6, 2), seed=3)
        assert all(b >= a - 1e-12 for a, b in zip(res.history, res.history[1:]))


class TestSandwich:
    @pytest.mark.parametrize("n,q", [(6, 2), (8, 4)])
    def test_ordering(self, n, q):
        est = index_estimate("majorana", n, q, seed=7)
        assert float(est.lower) <= est.heuristic <= float(est.upper) + 1e-9

    def test_exact_closure(self):
        est = index_estimate("majorana", 6, 2, seed=7)
        assert est.exact == Fraction(1, 5)

    @pytest.mark.parametrize(
        "kind,n,k,lower,upper,exact",
        [
            ("majorana", 8, 4, Fraction(1, 5), Fraction(1, 5), Fraction(1, 5)),
            ("majorana", 12, 4, Fraction(1, 33), Fraction(1, 33), Fraction(1, 33)),
            ("majorana", 10, 4, Fraction(1, 21), Fraction(17, 245), None),
            ("pauli", 4, 2, None, None, None),
            ("pauli", 2, 1, None, None, None),
        ],
    )
    def test_exact_only_from_equal_rationals(self, kind, n, k, lower, upper, exact):
        # a float see-saw within rounding of a float theta/m proves nothing:
        # at (2, 1) both read 1/3 + 2e-16, above the true index
        est = index_estimate(kind, n, k, seed=7)
        if lower is not None:
            assert (est.lower, est.upper) == (lower, upper)
        assert est.exact == exact
        assert exact is None or isinstance(est.exact, Fraction)

    def test_json(self):
        import json

        est = index_estimate("majorana", 6, 2, seed=7)
        payload = json.loads(est.to_json())
        assert payload["upper"]["rational"] == "1/5"


class TestPauliUpperSmall:
    def test_p21_upper_is_third(self):
        # two disjoint single-qubit triangles: theta = 2, so the mean is 1/3
        upper = index_upper("pauli", 2, 1)
        assert abs(float(upper) - 1 / 3) <= 1e-3


class TestEstimateRefusals:
    """``index_estimate`` refuses a family from its closed-form size before
    enumerating it, with the message that ``index`` prints."""

    @pytest.mark.parametrize(
        "family,error,message",
        [
            (("majorana", 8, 3), InputError, "hermitization requires even degree"),
            (("majorana", 7, 2), InputError, "majorana enumeration requires even mode count"),
            (("majorana", 24, 8), CapacityError,
             "735471 terms x 4096 columns exceed the term-bank budget of 67108864"),
            (("pauli", 9, 5), CapacityError, "30618 vertices exceed the graph cap 10000"),
            (("pauli", 7, 4), CapacityError, "2835 vertices exceed the SDP cap 600"),
            (("pauli", 13, 1), CapacityError,
             "dense dimension 8192 exceeds the requested cap 4096"),
        ],
        ids=["odd-degree", "odd-modes", "term-bank", "graph-cap", "sdp-cap", "seesaw-dim"],
    )
    def test_refused_before_enumeration(self, monkeypatch, family, error, message):
        def refuse(*args):
            raise AssertionError("family enumerated before it was checked")

        monkeypatch.setattr(fermitheta.index, "enumerate_set", refuse)
        with pytest.raises(error) as info:
            index_estimate(*family)
        assert str(info.value) == message
        kind, n, loc = family
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            dispatch(["index", "--set", kind, "--n", str(n), "--loc", str(loc)])
        prefix = "capacity error: " if error is CapacityError else "error: "
        assert err.getvalue() == f"{prefix}{message}\n"


# sha256 of the exception class that models._check raised for every swept
# family, recorded before the model and index refusals were merged: one line
# "MODEL N CLASSES" per (model, n), with one character per locality -1..n+2,
# "I" for InputError, "C" for CapacityError and "." for an admitted family.
_CHECK_CLASSES_SHA256 = "5478b85dccaf3bf3fca63cf5044687567909803a5b2ac5a11fb1e79b332e5e7c"


class TestOneAdmission:
    """``model`` and ``index`` admit a term-bank family by one rule, so they
    refuse it with the same line and exit code."""

    def test_model_and_index_refuse_alike(self, monkeypatch):
        class Enumerated(Exception):
            pass

        def enumerate_set(*args):
            raise Enumerated

        monkeypatch.setattr(fermitheta.index, "enumerate_set", enumerate_set)
        rows = []
        for model, kind in (("syk", "majorana"), ("sg", "pauli")):
            for n in range(-1, 31):
                classes = ""
                for loc in range(-1, n + 3):
                    try:
                        _check(model, n, loc)
                        expected, classes = None, classes + "."
                    except (InputError, CapacityError) as err:
                        expected, classes = err, classes + type(err).__name__[0]
                    got = None
                    try:
                        index_estimate(kind, n, loc)
                    except (Enumerated, InputError, CapacityError) as err:
                        got = err
                    if expected is None:  # admitted, then at most a Pauli graph or SDP cap
                        assert isinstance(got, (Enumerated, CapacityError)), (kind, n, loc, got)
                    else:
                        assert (type(got), str(got)) == (type(expected), str(expected)), (kind, n, loc)
                rows.append(f"{model} {n} {classes}")
        table = "\n".join(rows)
        assert hashlib.sha256(table.encode()).hexdigest() == _CHECK_CLASSES_SHA256, table
