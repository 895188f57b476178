"""Commutation index: bounds, witnesses, see-saw heuristics."""

from fractions import Fraction

import numpy as np
import pytest

from fermitheta.algebra import OperatorSet, PauliString, enumerate_set
from fermitheta.index import (
    SeesawResult,
    index_estimate,
    index_lower_family,
    index_pauli_product,
    index_seesaw,
    index_upper,
    pauli_index_weak_bound,
)
from fermitheta.kernel import CapacityError, InputError, RandomStream, eigh, random_state


def xyz():
    return OperatorSet("pauli", 1, 1, tuple(PauliString.from_label(c) for c in "XYZ"))


def product_state(seed, n):
    return [random_state(RandomStream(seed, j), 2) for j in range(n)]


class TestUpper:
    def test_s62(self):
        assert index_upper(enumerate_set("majorana", 6, 2)) == Fraction(1, 5)

    def test_s84(self):
        assert index_upper(enumerate_set("majorana", 8, 4)) == Fraction(1, 5)

    def test_xyz_triangle(self):
        assert abs(float(index_upper(xyz())) - 1 / 3) <= 1e-6


class TestLower:
    def test_62(self):
        value, witness = index_lower_family(6, 2)
        assert value == Fraction(3, 15)
        assert witness >= float(value) - 1e-9

    def test_124_witness(self):
        value, witness = index_lower_family(12, 4)
        assert value == Fraction(15, 495)
        assert witness is not None and witness >= float(value) - 1e-9

    def test_84_family_closes_sandwich(self):
        value, witness = index_lower_family(8, 4)
        assert value == Fraction(1, 5)
        assert abs(witness - 0.2) <= 1e-9


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
        res = index_seesaw(ops, restarts=4, iters=100, seed=5)
        assert res.value <= float(pauli_index_weak_bound(3, 3)) + 1e-9


def dense_seesaw(ops, restarts=8, iters=200, seed=7, gain_tol=1e-12):
    """Reference see-saw on the stack of dense term matrices."""
    mats = np.array(ops.hermitized_matrices())
    m, d = mats.shape[0], mats.shape[1]
    best = None
    for r in range(restarts):
        psi = random_state(RandomStream(seed, r), d)
        history = []
        prev = -np.inf
        for _ in range(iters):
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
        assert abs(index_seesaw(ops, restarts=2, iters=50, seed=1).value - 1.0) <= 1e-9

    def test_xyz_reaches_third(self):
        assert abs(index_seesaw(xyz(), restarts=4, iters=100, seed=2).value - 1 / 3) <= 1e-9

    def test_s62_closes(self):
        res = index_seesaw(enumerate_set("majorana", 6, 2), seed=7)
        assert abs(res.value - 0.2) <= 1e-6

    def test_monotone_history(self):
        res = index_seesaw(enumerate_set("majorana", 6, 2), restarts=2, iters=60, seed=3)
        assert all(b >= a - 1e-12 for a, b in zip(res.history, res.history[1:]))


class TestSandwich:
    @pytest.mark.parametrize("n,q", [(6, 2), (8, 4)])
    def test_ordering(self, n, q):
        est = index_estimate(enumerate_set("majorana", n, q), seed=7)
        assert float(est.lower) <= est.heuristic <= float(est.upper) + 1e-9

    def test_exact_closure(self):
        est = index_estimate(enumerate_set("majorana", 6, 2), seed=7)
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
        est = index_estimate(enumerate_set(kind, n, k), seed=7)
        if lower is not None:
            assert (est.lower, est.upper) == (lower, upper)
        assert est.exact == exact
        assert exact is None or isinstance(est.exact, Fraction)

    def test_json(self):
        import json

        est = index_estimate(enumerate_set("majorana", 6, 2), seed=7)
        payload = json.loads(est.to_json())
        assert payload["upper"]["rational"] == "1/5"


class TestPauliUpperSmall:
    def test_p21_upper_is_third(self):
        # two disjoint single-qubit triangles: theta = 2, so the mean is 1/3
        upper = index_upper(enumerate_set("pauli", 2, 1))
        assert abs(float(upper) - 1 / 3) <= 1e-3
