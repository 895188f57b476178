"""Operator algebra: predicates, products, Jordan-Wigner, enumeration."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fermitheta.algebra
from fermitheta.algebra import (
    MajoranaMonomial,
    OperatorSet,
    PauliString,
    enumerate_set,
    family_size,
    jordan_wigner_majorana,
    majorana_anticommutes,
    majorana_to_pauli,
    multiply_paulis,
    pauli_anticommutes,
    pauli_matrix,
    term_bank,
    TermBank,
)
from fermitheta.kernel import CapacityError, InputError


def P(label, phase=1):
    return PauliString.from_label(label, phase)


def operator_set_from_json(text):
    """The OperatorSet that ``OperatorSet.to_json`` wrote."""
    data = json.loads(text)
    if data["kind"] == "pauli":
        phases = {"+1": 1, "+i": 1j, "-1": -1, "-i": -1j}
        members = tuple(P(m["label"], phases[m["phase"]]) for m in data["members"])
    else:
        members = tuple(MajoranaMonomial(data["n"], tuple(s)) for s in data["members"])
    return OperatorSet(data["kind"], data["n"], data["locality"], members, data["provenance"])


class TestPauliPredicate:
    def test_x_z_anticommute(self):
        assert pauli_anticommutes(P("XI"), P("ZI"))

    def test_two_sites_cancel(self):
        assert not pauli_anticommutes(P("XX"), P("ZZ"))

    def test_self_commutes(self):
        assert not pauli_anticommutes(P("YI"), P("YI"))

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            pauli_anticommutes(P("X"), P("XX"))

    @given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
    @settings(max_examples=120, deadline=None)
    def test_matches_matrix_predicate(self, x1, z1, x2, z2):
        a = PauliString(4, x1, z1)
        b = PauliString(4, x2, z2)
        MA, MB = pauli_matrix(a), pauli_matrix(b)
        anti = np.abs(MA @ MB + MB @ MA).max() < 1e-12
        comm = np.abs(MA @ MB - MB @ MA).max() < 1e-12
        assert anti != comm  # exactly one of the two holds
        assert pauli_anticommutes(a, b) == anti


class TestMajoranaPredicate:
    def test_disjoint_even_degrees_commute(self):
        a = MajoranaMonomial(8, (1, 2))
        b = MajoranaMonomial(8, (3, 4))
        assert not majorana_anticommutes(a, b)

    def test_single_overlap(self):
        a = MajoranaMonomial(4, (1, 2))
        b = MajoranaMonomial(4, (2, 3))
        assert majorana_anticommutes(a, b)
        MA = pauli_matrix(majorana_to_pauli(a, hermitize=False))
        MB = pauli_matrix(majorana_to_pauli(b, hermitize=False))
        assert np.abs(MA @ MB + MB @ MA).max() < 1e-12

    def test_two_overlap_degree_four(self):
        a = MajoranaMonomial(8, (1, 2, 3, 4))
        b = MajoranaMonomial(8, (3, 4, 5, 6))
        assert not majorana_anticommutes(a, b)
        MA = pauli_matrix(majorana_to_pauli(a, hermitize=False))
        MB = pauli_matrix(majorana_to_pauli(b, hermitize=False))
        assert np.abs(MA @ MB - MB @ MA).max() < 1e-12

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_matrix_predicate(self, data):
        n = 8
        qa = data.draw(st.sampled_from([1, 2, 3, 4]))
        qb = data.draw(st.sampled_from([1, 2, 3, 4]))
        sa = tuple(sorted(data.draw(st.sets(st.integers(1, n), min_size=qa, max_size=qa))))
        sb = tuple(sorted(data.draw(st.sets(st.integers(1, n), min_size=qb, max_size=qb))))
        a, b = MajoranaMonomial(n, sa), MajoranaMonomial(n, sb)
        MA = pauli_matrix(majorana_to_pauli(a, hermitize=False))
        MB = pauli_matrix(majorana_to_pauli(b, hermitize=False))
        anti = np.abs(MA @ MB + MB @ MA).max() < 1e-12
        assert majorana_anticommutes(a, b) == anti


class TestProducts:
    def test_x_times_z(self):
        r = multiply_paulis(P("X"), P("Z"))
        assert r.label() == "Y" and r.label_phase() == -1j

    def test_involution_up_to_phase(self):
        p = P("XYZ", 1j)
        sq = multiply_paulis(p, p)
        assert sq.weight == 0
        assert abs(sq.label_phase()) == 1

    @given(
        st.integers(0, 7), st.integers(0, 7), st.integers(0, 3),
        st.integers(0, 7), st.integers(0, 7), st.integers(0, 3),
    )
    @settings(max_examples=120, deadline=None)
    def test_matrix_oracle(self, x1, z1, p1, x2, z2, p2):
        a = PauliString(3, x1, z1, p1)
        b = PauliString(3, x2, z2, p2)
        prod = multiply_paulis(a, b)
        assert np.abs(pauli_matrix(a) @ pauli_matrix(b) - pauli_matrix(prod)).max() < 1e-12


class TestJordanWigner:
    def test_first_generator_is_x(self):
        assert jordan_wigner_majorana(1, 2).label() == "X"

    def test_second_generator_is_y(self):
        g = jordan_wigner_majorana(2, 2)
        assert g.label() == "Y" and g.label_phase() == 1

    def test_clifford_relation_eight_modes(self):
        n = 8
        gams = [pauli_matrix(jordan_wigner_majorana(j, n)) for j in range(1, n + 1)]
        eye = np.eye(1 << (n // 2))
        for i in range(n):
            for j in range(n):
                anti = gams[i] @ gams[j] + gams[j] @ gams[i]
                expected = 2 * eye if i == j else 0 * eye
                assert np.abs(anti - expected).max() < 1e-12

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            jordan_wigner_majorana(0, 4)
        with pytest.raises(InputError):
            jordan_wigner_majorana(1, 5)


def hermitized(op):
    """Dense matrix of one Hermitized operator, from a one-member set."""
    kind = "pauli" if isinstance(op, PauliString) else "majorana"
    n = op.n_qubits if kind == "pauli" else op.n_modes
    (M,) = OperatorSet(kind, n, 1, (op,)).hermitized_matrices()
    return M


class TestMaterialize:
    """Dense Hermitized members (``hermitized_matrices``), and the checks
    that ``TermBank.from_set`` shares with them."""

    def test_quadratic_monomial_two_level(self):
        M = hermitized(MajoranaMonomial(4, (1, 2)))
        w = np.linalg.eigvalsh(M)
        assert np.allclose(sorted(set(np.round(w, 9))), [-1, 1])

    def test_zz_diagonal(self):
        M = hermitized(P("ZZ"))
        assert np.allclose(np.diag(M), [1, -1, -1, 1])
        assert np.abs(M - np.diag(np.diag(M))).max() == 0

    def test_degree_four_hermitized(self):
        M = hermitized(MajoranaMonomial(8, (1, 2, 3, 4)))
        assert np.abs(M - M.conj().T).max() < 1e-12
        assert np.abs(M @ M - np.eye(16)).max() < 1e-12

    def test_every_enumerated_hermitized_operator(self):
        ops = enumerate_set("majorana", 6, 2)
        mats = ops.hermitized_matrices()
        for M in mats:
            dim = M.shape[0]
            assert np.abs(M - M.conj().T).max() < 1e-12
            assert np.abs(M @ M - np.eye(dim)).max() < 1e-12
            assert abs(np.trace(M)) < 1e-12
        # the term kernel acts as the same matrices
        bank = TermBank.from_set(ops)
        assert np.abs(bank.apply(np.eye(bank.dim)) - np.array(mats)).max() == 0

    def test_capacity_guard(self):
        ops = OperatorSet("pauli", 20, 1, (PauliString(20, 1, 0),))
        with pytest.raises(CapacityError):
            ops.hermitized_matrices()
        with pytest.raises(CapacityError):
            TermBank.from_set(ops)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: term_bank("majorana", 26, 2),
            lambda: TermBank.from_set(enumerate_set("pauli", 13, 1)),
            lambda: enumerate_set("pauli", 13, 1).hermitized_matrices(),
        ],
        ids=["term_bank", "from_set", "hermitized_matrices"],
    )
    def test_refused_above_the_dense_budget(self, monkeypatch, build):
        # dimension 2^13 is over MAX_DENSE_DIM: refused before any table
        def refuse(*args, **kwargs):
            raise AssertionError("term bank built above the dense budget")

        monkeypatch.setattr(TermBank, "__init__", refuse)
        with pytest.raises(CapacityError) as err:
            build()
        assert str(err.value) == "dense dimension 8192 exceeds the requested cap 4096"

    @pytest.mark.parametrize(
        "family,error,message",
        [
            (("majorana", 26, 2), CapacityError, "dense dimension 8192 exceeds the requested cap 4096"),
            (("majorana", 24, 8), CapacityError,
             "735471 terms x 4096 columns exceed the term-bank budget of 67108864"),
            (("majorana", 24, 12), CapacityError, "enumeration of 2704156 members exceeds cap"),
            (("pauli", 20, 5), CapacityError, "dense dimension 1048576 exceeds the requested cap 4096"),
            (("majorana", 20000, 10000), CapacityError,
             "dense dimension 2^10000 exceeds the requested cap 4096"),
            (("majorana", 24, 9), InputError, "hermitization requires even degree"),
        ],
        ids=["dense-dim", "bank-entries", "enumeration", "dense-dim-over-enumeration",
             "dense-dim-unformed", "odd-degree"],
    )
    def test_term_bank_refused_before_enumeration(self, monkeypatch, family, error, message):
        def refuse(*args):
            raise AssertionError("family enumerated before it was checked")

        monkeypatch.setattr(fermitheta.algebra, "enumerate_set", refuse)
        with pytest.raises(error) as err:
            term_bank(*family)
        assert str(err.value) == message


class TestEnumeration:
    def test_majorana_counts(self):
        assert len(enumerate_set("majorana", 6, 2)) == 15
        assert len(enumerate_set("majorana", 8, 4)) == 70

    def test_pauli_count(self):
        ops = enumerate_set("pauli", 4, 2)
        assert len(ops) == 54
        assert all(p.weight == 2 for p in ops.members)
        assert all(p.is_hermitian for p in ops.members)

    def test_deterministic(self):
        a = enumerate_set("majorana", 8, 4)
        b = enumerate_set("majorana", 8, 4)
        assert a.members == b.members

    def test_json_round_trip(self):
        for ops in (enumerate_set("pauli", 3, 2), enumerate_set("majorana", 6, 2)):
            back = operator_set_from_json(ops.to_json())
            assert back.members == ops.members

    @pytest.mark.parametrize(
        "family,count",
        [
            (("majorana", 66, 33), "7219428434016265740"),  # C(66, 33) < 2^64
            (("majorana", 68, 34), "C(68, 34)"),  # 2^64 <= C(68, 34) < 2^65: formed, then named
            (("pauli", 41, 20), "C(41, 20) * 3^20"),
            (("pauli", 10**9, 10**9 - 1), "C(1000000000, 999999999) * 3^999999999"),
        ],
    )
    def test_over_cap_count_named_from_2_64(self, family, count):
        with pytest.raises(CapacityError) as err:
            family_size(*family)
        assert str(err.value) == f"enumeration of {count} members exceeds cap"

    def test_duplicate_rejected(self):
        m = MajoranaMonomial(4, (1, 2))
        with pytest.raises(InputError):
            OperatorSet("majorana", 4, 2, (m, m))


class TestPredicateInvariants:
    def test_500_random_pauli_pairs_match_matrices(self):
        rng = np.random.default_rng(99)
        for _ in range(500):
            nq = int(rng.integers(1, 5))
            a = PauliString(nq, int(rng.integers(1 << nq)), int(rng.integers(1 << nq)))
            b = PauliString(nq, int(rng.integers(1 << nq)), int(rng.integers(1 << nq)))
            MA, MB = pauli_matrix(a), pauli_matrix(b)
            anti = np.abs(MA @ MB + MB @ MA).max() < 1e-12
            assert pauli_anticommutes(a, b) == anti

    def test_500_random_majorana_pairs_match_matrices(self):
        rng = np.random.default_rng(98)
        n = 8
        for _ in range(500):
            qa, qb = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            sa = tuple(sorted(rng.choice(n, size=qa, replace=False) + 1))
            sb = tuple(sorted(rng.choice(n, size=qb, replace=False) + 1))
            a, b = MajoranaMonomial(n, sa), MajoranaMonomial(n, sb)
            MA = pauli_matrix(majorana_to_pauli(a, hermitize=False))
            MB = pauli_matrix(majorana_to_pauli(b, hermitize=False))
            anti = np.abs(MA @ MB + MB @ MA).max() < 1e-12
            assert majorana_anticommutes(a, b) == anti
