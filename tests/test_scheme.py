"""Johnson scheme: exact eigenvalue tables against brute-force spectra."""

import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fermitheta.scheme
from fermitheta.kernel import CapacityError, InputError
from fermitheta.scheme import (
    MAX_HAHN_WORK,
    HahnTable,
    _hahn_work,
    dual_hahn,
    johnson_adjacency,
    verify_scheme_spectrum,
)


class TestDualHahn:
    def test_all_ones_eigenvalue(self):
        # eigenvalue on the constant eigenspace equals the regular degree
        assert dual_hahn(8, 4, 1, 0) == comb(4, 1) * comb(4, 1) == 16

    def test_identity_class(self):
        for m, r in [(6, 2), (9, 3), (10, 4)]:
            for x in range(r + 1):
                assert dual_hahn(m, r, 0, x) == 1

    def test_triangular_graph_spectrum(self):
        assert dual_hahn(6, 2, 1, 0) == 8
        assert dual_hahn(6, 2, 1, 1) == 2
        assert dual_hahn(6, 2, 1, 2) == -2

    def test_degree_formula(self):
        for m, r in [(6, 2), (8, 3), (10, 4)]:
            for d in range(r + 1):
                assert dual_hahn(m, r, d, 0) == comb(m - r, d) * comb(r, d)

    @given(st.integers(2, 12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_row_sums(self, m, data):
        r = data.draw(st.integers(1, min(4, m)))
        x = data.draw(st.integers(0, r))
        total = sum(dual_hahn(m, r, d, x) for d in range(r + 1))
        assert total == (comb(m, r) if x == 0 else 0)

    def test_bounds_checked(self):
        with pytest.raises(InputError):
            dual_hahn(4, 5, 1, 0)
        with pytest.raises(InputError):
            dual_hahn(6, 2, 1, 3)


class TestHahnTable:
    def test_invariants(self):
        t = HahnTable(8, 4)
        assert all(t[0, x] == 1 for x in range(5))
        assert all(t[d, 0] == comb(4, d) * comb(4, d) for d in range(5))

    def test_csv_shape(self):
        text = HahnTable(6, 2).to_csv()
        lines = text.strip().splitlines()
        assert len(lines) == 4  # header + 3 distance rows

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_product_equals_the_per_entry_sum(self, data):
        # r > m/2 and entries at x > m - r included; m up to 10^30
        m = data.draw(st.one_of(st.integers(0, 60), st.integers(61, 10**30)))
        r = data.draw(st.integers(0, min(m, 14)))
        expected = [[dual_hahn(m, r, d, x) for x in range(r + 1)] for d in range(r + 1)]
        assert [list(row) for row in HahnTable(m, r).values] == expected

    def test_product_equals_the_per_entry_sum_on_every_small_table(self):
        for m in range(45):
            for r in range(min(m, 14) + 1):
                table = HahnTable(m, r)
                for d in range(r + 1):
                    assert list(table.values[d]) == [dual_hahn(m, r, d, x) for x in range(r + 1)]
        for m, r in [(100, 40), (200, 100), (10**30, 20)]:
            table = HahnTable(m, r)
            for d in range(r + 1):
                assert list(table.values[d]) == [dual_hahn(m, r, d, x) for x in range(r + 1)], (m, r)

    def test_cap_refuses_before_any_entry(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("binomial computed for a Hahn table over the cap")

        # every table entry is a sum of products of binom0 values
        monkeypatch.setattr(fermitheta.scheme, "binom0", refuse)
        for m, r in [(800, 400), (500, 250), (10**400, 80)]:
            assert _hahn_work(m, r) > MAX_HAHN_WORK
            with pytest.raises(CapacityError):
                HahnTable(m, r)

    def test_cap_admits_every_table_in_use(self):
        # table --max-n 40 reaches (40, 10); the tests and README use the
        # rest, and the largest products priced took under 1 s
        for m, r in [(40, 10), (12, 6), (8, 4), (20, 10), (26, 6), (200, 100),
                     (300, 150), (400, 200), (1000, 200), (10**300, 60)]:
            assert _hahn_work(m, r) <= MAX_HAHN_WORK
        assert HahnTable(40, 20)[1, 0] == comb(20, 1) ** 2

    def test_verify_refuses_an_admitted_table_over_the_scheme_cap(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("binomial computed for a scheme over the cap")

        monkeypatch.setattr(fermitheta.scheme, "binom0", refuse)
        with pytest.raises(CapacityError, match="vertices exceed the scheme cap"):
            verify_scheme_spectrum(300, 150)


class TestJohnsonAdjacency:
    def test_perfect_matching(self):
        A = johnson_adjacency(4, 2, 2)
        assert np.array_equal(A.sum(axis=0), np.ones(6))
        assert np.array_equal(A, A.T)

    def test_distance_one_regular(self):
        A = johnson_adjacency(6, 2, 1)
        assert set(A.sum(axis=0).astype(int)) == {comb(2, 1) * comb(4, 1)}

    def test_distance_zero_identity(self):
        A = johnson_adjacency(5, 2, 0)
        assert np.array_equal(A, np.eye(10))
        assert A.dtype == np.float64 and not A.flags.writeable

    @pytest.mark.parametrize("m", range(8))
    def test_matches_frozenset_reference(self, m):
        for r in range(m + 1):
            subsets = [frozenset(s) for s in itertools.combinations(range(m), r)]
            for d in range(r + 1):
                ref = np.array([[float(r - len(a & b) == d) for b in subsets] for a in subsets])
                A = johnson_adjacency(m, r, d)
                assert np.array_equal(A, ref), (m, r, d)

    def test_matches_reference_across_row_blocks(self):
        # C(10, 4) = 210 rows span two row blocks of the overlap product
        subsets = [frozenset(s) for s in itertools.combinations(range(10), 4)]
        for d in range(5):
            ref = np.array([[float(4 - len(a & b) == d) for b in subsets] for a in subsets])
            assert np.array_equal(johnson_adjacency(10, 4, d), ref)


class TestVerifySpectrum:
    def test_complete_graph_case(self):
        # single-distance scheme on singletons: distance-1 graph is complete
        report = verify_scheme_spectrum(5, 1)
        assert report.ok
        assert dual_hahn(5, 1, 1, 0) == 4 and dual_hahn(5, 1, 1, 1) == -1

    @pytest.mark.parametrize("m,r", [(6, 2), (8, 3)])
    def test_examples(self, m, r):
        report = verify_scheme_spectrum(m, r)
        assert report.ok, report.notes

    @pytest.mark.parametrize("m,r", [(6, 2), (8, 3), (9, 4), (10, 5)])
    def test_spectra_match_complex_eigh(self, m, r):
        # the real eigvalsh of the check rounds to the counts of a complex eigh
        report = verify_scheme_spectrum(m, r)
        for entry in report.per_distance:
            w = np.linalg.eigh(johnson_adjacency(m, r, entry["d"]).astype(complex))[0]
            values, counts = np.unique(np.rint(w).astype(int), return_counts=True)
            assert entry["spectrum"] == {str(v): int(c) for v, c in zip(values, counts)}

    def test_multiplicities_johnson_62(self):
        report = verify_scheme_spectrum(6, 2)
        assert report.multiplicities == {0: 1, 1: 5, 2: 9}

    def test_multiplicities_above_half(self):
        # for r > m - r the Hahn columns x > m - r are not eigenspaces
        report = verify_scheme_spectrum(8, 6)
        assert report.ok, report.notes
        assert report.multiplicities == {0: 1, 1: 7, 2: 20, 3: 0, 4: 0, 5: 0, 6: 0}

    @pytest.mark.parametrize("m", range(1, 11))
    def test_multiplicities_closed_form(self, m):
        for r in range(m + 1):
            report = verify_scheme_spectrum(m, r)
            assert report.ok, (m, r, report.notes)
            want = {x: comb(m, x) - (comb(m, x - 1) if x else 0) if x <= m - r else 0
                    for x in range(r + 1)}
            assert report.multiplicities == want
            assert sum(want.values()) == comb(m, r)

    @pytest.mark.parametrize("d,x", [(1, 0), (1, 2), (2, 1), (3, 3)])
    def test_corrupted_hahn_entry_fails(self, monkeypatch, d, x):
        table = HahnTable(7, 3)
        values = [list(row) for row in table.values]
        values[d][x] += 1
        object.__setattr__(table, "values", tuple(map(tuple, values)))
        monkeypatch.setattr(fermitheta.scheme, "HahnTable", lambda m, r: table)
        report = verify_scheme_spectrum(7, 3)
        assert not report.ok
        assert any(note.startswith(f"d={d}: spectrum ") for note in report.notes)

    def test_report_json(self):
        import json

        payload = json.loads(verify_scheme_spectrum(6, 2).to_json())
        assert payload["ok"] is True
        assert payload["m"] == 6
