"""Random ensembles, commutation-degree counting, bound calculators."""

import hashlib
import itertools
import math
from fractions import Fraction
from math import comb, log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fermitheta.index
import fermitheta.models as models
from fermitheta.algebra import (
    MajoranaMonomial,
    OperatorSet,
    PauliString,
    _majorana_masks,
    _mirror,
    _particle_hole_masks,
    _pauli_masks,
    _popcount_array,
    _walsh_hadamard,
    enumerate_set,
    majorana_to_pauli,
)
from fermitheta.graphs import (
    commutation_graph,
    commuting_majorana_family,
    extended_hamming_family,
    stabilized_state,
    ternary_tree_paulis,
)
from fermitheta.kernel import (
    CapacityError,
    InputError,
    RandomStream,
    Workspace,
    gaussian_stream,
    random_state,
)
from fermitheta.models import (
    ansatz_bounds_report,
    depolarized_energy_identity,
    h_comm_count,
    lambda_max_lower_bound,
    model_bank,
    sample_classical_pspin,
    sample_couplings,
    sample_spectra,
    TermBank,
    term_bank,
)


def first(model, n, loc, seed, stream=0):
    """Couplings and spectrum of one sample."""
    (g,) = sample_couplings(model, n, loc, seed, (stream,))
    (w,) = sample_spectra(model, n, loc, seed, (stream,))
    return g, w


def assembled(model, n, loc, seed, stream=0):
    (g,) = sample_couplings(model, n, loc, seed, (stream,))
    return model_bank(model, n, loc).assemble(g)


class TestSampling:
    def test_reproducible(self):
        a, wa = first("syk", 8, 4, 5)
        b, wb = first("syk", 8, 4, 5)
        assert np.array_equal(a, b)
        assert np.array_equal(wa, wb)

    def test_distinct_streams(self):
        assert not np.allclose(assembled("syk", 8, 4, 5, 0), assembled("syk", 8, 4, 5, 1))

    def test_hermitian_traceless(self):
        for H in (assembled("syk", 10, 4, 1), assembled("sg", 4, 1, 1)):
            assert np.abs(H - H.conj().T).max() < 1e-12
            assert abs(np.trace(H)) < 1e-10

    def test_single_term_spectrum(self):
        g, w = first("syk", 4, 4, 9)
        assert np.allclose(w, [-abs(g[0]), -abs(g[0]), abs(g[0]), abs(g[0])], atol=1e-12)

    def test_normalized_trace_square_syk(self):
        # E tr(H^2)/dim = 1 for orthonormal terms
        vals = [float(np.mean(w**2)) for w in sample_spectra("syk", 12, 4, 3, range(200))]
        m = np.mean(vals)
        se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert abs(m - 1.0) <= 5 * se

    def test_normalized_trace_square_sg(self):
        vals = [float(np.mean(w**2)) for w in sample_spectra("sg", 8, 2, 4, range(200))]
        m = np.mean(vals)
        se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert abs(m - 1.0) <= 5 * se

    def test_sg_term_count(self):
        assert len(term_bank("pauli", 4, 1)) == 12
        assert len(next(sample_couplings("sg", 4, 1, 0, (0,)))) == 12

    def test_capacity(self):
        # raised by the call itself, before the generator is iterated
        for model, n, loc in (("syk", 26, 4), ("sg", 13, 2), ("classical", 23, 4)):
            with pytest.raises(CapacityError):
                sample_spectra(model, n, loc, 0, (0,))
            with pytest.raises(CapacityError):
                sample_couplings(model, n, loc, 0, (0,))

    def test_variational_bound_stabilized_state(self):
        fam = commuting_majorana_family(8, 4)
        psi = stabilized_state(fam)
        bank = model_bank("syk", 8, 4)
        couplings = sample_couplings("syk", 8, 4, 6, range(10))
        for g, w in zip(couplings, sample_spectra("syk", 8, 4, 6, range(10))):
            energy = float(np.real(np.vdot(psi, bank.assemble(g) @ psi)))
            assert w[-1] >= abs(energy) - 1e-9

    def test_upper_tail_matrix_gaussian(self):
        # matrix Gaussian series bound at failure probability 1e-2
        n, q = 16, 4
        dim = 1 << (n // 2)
        cap = math.sqrt(2 * math.log(2 * dim / 1e-2))
        for w in sample_spectra("syk", n, q, 8, range(50)):
            assert w[-1] <= cap


def _family(kind, n, k):
    ops = enumerate_set(kind, n, k).members
    if kind == "majorana":
        return [majorana_to_pauli(op, hermitize=True) for op in ops], 1 << (n // 2)
    return list(ops), 1 << n


def _loop_tables(paulis, dim):
    """Reference rows/vals: one term at a time."""
    cols = np.arange(dim)
    rows = np.empty((len(paulis), dim), dtype=np.int64)
    vals = np.empty((len(paulis), dim), dtype=complex)
    for i, p in enumerate(paulis):
        rows[i] = cols ^ p.x_mask
        vals[i] = p.phase * (1 - 2 * (_popcount_array(cols & p.z_mask) % 2))
    return rows, vals


def _scatter_assemble(paulis, dim, g):
    """Reference assembly: scatter-add of every term's m x d nonzeros, as
    :func:`_loop_tables` gives them."""
    rows, vals = _loop_tables(paulis, dim)
    m = len(paulis)
    H = np.zeros((dim, dim), dtype=complex)
    np.add.at(H, (rows, np.broadcast_to(np.arange(dim), (m, dim))), g[:, None] * vals)
    return H / math.sqrt(m)


def _assert_action_is_loop(bank, paulis):
    """The signed permutation that ``bank`` derives from its masks, and its
    product with a vector, bit for bit against :func:`_loop_tables`: term
    i takes entry r from row rows[i, r] = r ^ x_i, with the loop's value of
    that column, because c -> c ^ x_i is an involution."""
    rows, vals = _loop_tables(paulis, bank.dim)
    coef = np.take_along_axis(vals, rows, axis=-1)
    got_rows, got_coef = bank._signed_permutation()
    assert got_rows.dtype == rows.dtype and got_rows.tobytes() == rows.tobytes()
    assert got_coef.dtype == coef.dtype and got_coef.tobytes() == coef.tobytes()
    v = np.cos(np.arange(bank.dim)) + 1j * np.sin(np.arange(bank.dim) ** 2)
    assert bank.apply(v).tobytes() == (coef * v[rows]).tobytes()


_FAMILIES = st.one_of(
    st.integers(1, 6).flatmap(
        lambda h: st.tuples(
            st.just("majorana"), st.just(2 * h), st.sampled_from(range(2, 2 * h + 1, 2))
        )
    ),
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(st.just("pauli"), st.just(n), st.integers(1, min(n, 3)))
    ),
)


_CUSTOM_SETS = [
    OperatorSet("pauli", 1, 1, tuple(PauliString.from_label(c) for c in "XYZ")),
    commuting_majorana_family(8, 4),
    extended_hamming_family(),
    ternary_tree_paulis(2),
]


def _dense_check(ops, seed):
    """apply and expectations of the set's bank against its dense stack."""
    bank = TermBank.from_set(ops)
    mats = np.array(ops.hermitized_matrices())
    z = gaussian_stream(RandomStream(seed, 0), 4 * bank.dim)
    v, psi = z[0::4] + 1j * z[1::4], z[2::4] + 1j * z[3::4]
    psi /= np.linalg.norm(psi)
    ref = mats @ v
    assert np.abs(bank.apply(v) - ref).max() <= 1e-12
    i = seed % len(bank)
    assert np.abs(bank.apply(v, i) - ref[i]).max() <= 1e-12
    w = np.real(np.einsum("i,mij,j->m", psi.conj(), mats, psi))
    assert np.abs(bank.expectations(psi) - w).max() <= 1e-12


# sha256 of the tables of each bank the benchmark builds, recorded while
# TermBank still took its particle-hole candidate from the family's kind:
# deriving it from the bank's own dimension changed no byte
_BANK_GOLDEN = {
    ("majorana", 8, 4): "48b07c7888c082f35e196f11b944c640d2171849882bbacab4a72f9e9c0eae97",
    ("majorana", 10, 4): "e7744cd052a69a1f502f867a83f70e55f4986b8b9d7286333981f9f6a1080323",
    ("majorana", 12, 4): "94b151902a79e289661e8320d0c44d15fbfbf4a81e834a6db3973b129ac14147",
    ("majorana", 18, 4): "a222e7760a93d1ba54ae6c00d0d71ccaf30f56f10ca96dc7cc653183c397f3ba",
    ("pauli", 4, 2): "80e524d0c710b82287ad19dc92a137cb2376b47fbd70920e88195988e7d610f9",
    ("pauli", 9, 2): "cfec3ddffbd8b424b2f20684ac73eba7590ed75e5e8300fc7182bae00652fd5a",
}


def _bank_digest(bank):
    """sha256 of a bank's tables (name, shape, dtype and bytes of each
    array) and of its flags and per-row working set."""
    h = hashlib.sha256()
    for name in ("_masks", "_slot", "_targets", "sector_rows", "_to_blocks"):
        a = getattr(bank, name)
        h.update(f"{name}{a.shape}{a.dtype.str}".encode())
        h.update(a.tobytes())
    h.update(repr((bank.mirror, bank.parity, bank._distinct, bank.sample_bytes)).encode())
    return h.hexdigest()


class TestTermBank:
    @given(_FAMILIES, st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_apply_and_expectations_match_dense(self, family, seed):
        _dense_check(enumerate_set(*family), seed)

    @given(st.sampled_from(_CUSTOM_SETS), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_custom_sets_match_dense(self, ops, seed):
        _dense_check(ops, seed)

    @given(_FAMILIES, st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=60, deadline=None)
    def test_apply_to_columns_matches_dense(self, family, seed, data):
        """apply on a (dim, k) block of columns, k == dim included, acts on
        every column as the dense stack does."""
        ops = enumerate_set(*family)
        bank = TermBank.from_set(ops)
        mats = np.array(ops.hermitized_matrices())
        k = data.draw(st.one_of(st.just(bank.dim), st.integers(1, bank.dim + 1)))
        z = gaussian_stream(RandomStream(seed, 1), 2 * bank.dim * k)
        V = (z[0::2] + 1j * z[1::2]).reshape(bank.dim, k)
        ref = mats @ V
        got = bank.apply(V)
        assert got.shape == (len(bank), bank.dim, k)
        assert np.abs(got - ref).max() <= 1e-12
        i = seed % len(bank)
        assert np.abs(bank.apply(V, i) - ref[i]).max() <= 1e-12
        # further trailing axes are columns too
        W = V.reshape(bank.dim, 1, k)
        assert np.abs(bank.apply(W, i)[:, 0] - ref[i]).max() <= 1e-12

    def test_from_set_validates_before_building(self):
        with pytest.raises(CapacityError):
            TermBank.from_set(enumerate_set("majorana", 26, 2))
        with pytest.raises(InputError):
            TermBank.from_set(enumerate_set("majorana", 6, 3))
        with pytest.raises(InputError):
            TermBank.from_set(OperatorSet("pauli", 1, 1, (PauliString(1, 1, 1, 0),)))

    def test_models_reexports_kernel(self):
        import fermitheta.algebra as algebra

        assert TermBank is algebra.TermBank and term_bank is algebra.term_bank

    @pytest.mark.parametrize(
        "kind,n,k", [("majorana", 8, 4), ("majorana", 12, 6), ("pauli", 4, 2), ("pauli", 5, 3)]
    )
    def test_tables_bit_identical_to_loop(self, kind, n, k):
        paulis, _ = _family(kind, n, k)
        _assert_action_is_loop(term_bank(kind, n, k), paulis)

    @given(_FAMILIES, st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_assemble_matches_scatter(self, family, seed):
        bank = term_bank(*family)
        g = gaussian_stream(RandomStream(seed, 0), len(bank))
        assert np.abs(bank.assemble(g) - _scatter_assemble(*_family(*family), g)).max() <= 1e-12

    @given(_FAMILIES, st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_eigvalsh_matches_dense(self, family, seed):
        bank = term_bank(*family)
        g = gaussian_stream(RandomStream(seed, 0), len(bank))
        w = np.linalg.eigvalsh(bank.assemble(g))
        got = bank.eigvalsh(g)
        assert got.shape == (bank.dim,)
        assert np.all(np.diff(got) >= 0)
        assert np.abs(got - w).max() <= 1e-12 * max(1.0, np.abs(w).max())

    @given(_FAMILIES, st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_traces_match_dense(self, family, seed):
        """_traces of a random mixed state, from rho[c, c ^ x_k] of the
        sorted distinct x-masks x_k, against Tr(A_i rho) of the dense
        matrices."""
        ops = enumerate_set(*family)
        bank = TermBank.from_set(ops)
        d = bank.dim
        z = gaussian_stream(RandomStream(seed, 2), 2 * d * 3)
        w = (z[0::2] + 1j * z[1::2]).reshape(d, 3)
        rho = w @ w.conj().T
        rho /= np.trace(rho).real
        cols = np.arange(d)
        got = bank._traces(rho[cols, cols ^ np.unique(bank._masks[0])[:, None]])
        want = np.einsum("mij,ji->m", np.array(ops.hermitized_matrices()), rho)
        assert np.abs(want.imag).max() <= 1e-12
        assert np.abs(got - want.real).max() <= 1e-12

    def test_bank_stores_no_terms_by_columns_table(self):
        # (18, 4): 3060 terms x 512 columns; the per-term (m, d) tables alone
        # would take 37.6 MB
        bank = term_bank("majorana", 18, 4)
        arrays = [v for v in vars(bank).values() if isinstance(v, np.ndarray)]
        assert all(a.size < len(bank) * bank.dim for a in arrays)
        assert sum(a.nbytes for a in arrays) < 4 << 20

    def test_parity_flag(self):
        assert all(term_bank("majorana", n, q).parity for n, q in ((4, 2), (8, 4), (12, 6)))
        assert not any(term_bank("pauli", n, k).parity for n, k in ((3, 1), (4, 2), (4, 4)))
        odd = [majorana_to_pauli(op, hermitize=False) for op in enumerate_set("majorana", 6, 3).members]
        assert not TermBank(_pauli_masks(odd), 1 << 3).parity

    @pytest.mark.parametrize("kind,n,loc", list(_BANK_GOLDEN))
    def test_benchmark_banks_golden(self, kind, n, loc):
        assert _bank_digest(term_bank(kind, n, loc)) == _BANK_GOLDEN[kind, n, loc]

    def test_parity_blocks_are_invariant(self):
        bank = term_bank("majorana", 10, 4)
        H = bank.assemble(gaussian_stream(RandomStream(1, 0), len(bank)))
        odd = _popcount_array(np.arange(bank.dim)) % 2 == 1
        assert np.abs(H[np.ix_(odd, ~odd)]).max() == 0.0

    def test_bank_entry_cap(self, monkeypatch):
        import fermitheta.algebra as algebra

        # the real cap admits majorana (24,4) and refuses (24,6), unbuilt
        sample_couplings("syk", 24, 4, 0, ())
        with pytest.raises(CapacityError):
            sample_spectra("syk", 24, 6, 0, (0,))

        def convert(*args):
            raise AssertionError("member converted above the cap")

        # each kind's members become masks in their own helper, which a set
        # one entry above the cap never reaches
        for model, kind, n, loc, helper in (("syk", "majorana", 8, 4, "_majorana_masks"),
                                            ("sg", "pauli", 4, 2, "_pauli_masks")):
            ops = enumerate_set(kind, n, loc)
            entries = len(ops) * ops.dim
            monkeypatch.setattr(algebra, "MAX_BANK_ENTRIES", entries)
            assert len(TermBank.from_set(ops)) == len(ops)
            monkeypatch.setattr(algebra, "MAX_BANK_ENTRIES", entries - 1)
            with monkeypatch.context() as patch:
                patch.setattr(algebra, helper, convert)
                with pytest.raises(CapacityError):
                    TermBank.from_set(ops)
            with pytest.raises(CapacityError):
                sample_spectra(model, n, loc, 0, (0,))

    def test_duplicate_terms_add(self):
        x = PauliString.from_label("XZ")
        bank = TermBank(_pauli_masks([x, x]), 4)
        H = bank.assemble(np.array([1.0, 2.0]))
        assert np.allclose(H, 3.0 / math.sqrt(2) * _scatter_assemble([x], 4, np.ones(1)))

    def test_shared_slots_add_afresh_in_every_chunk(self):
        # x, -x and x share a slot: each chunk of a reused workspace sums
        # its own couplings there, none of the chunk before
        x, z = PauliString.from_label("XZ"), PauliString.from_label("ZI")
        minus_x = PauliString(2, x.x_mask, x.z_mask, x.phase_power + 2)
        bank = TermBank(_pauli_masks([x, minus_x, z, x]), 4)
        work = Workspace()
        work.allocate(2 * bank.sample_bytes)
        for g in ([[1.0, 2.0, 3.0, 4.0], [0.5, -1.0, 2.0, 0.25]], [[-2.0, 1.5, 0.0, 1.0]]):
            got = bank._eigvalsh(np.array(g), work.take)
            for row, w in zip(g, got):
                dense = _scatter_assemble([x, minus_x, z, x], 4, np.array(row))
                assert np.abs(w - np.linalg.eigvalsh(dense)).max() <= 1e-12
                assert w.tobytes() == bank.eigvalsh(np.array(row)).tobytes()


# even-degree Majorana sets: (n, supports)
_EVEN_MAJORANA_SETS = st.integers(1, 7).flatmap(
    lambda h: st.tuples(
        st.just(2 * h),
        st.sets(st.frozensets(st.integers(1, 2 * h)).filter(lambda s: len(s) % 2 == 0),
                min_size=1, max_size=24),
    )
)


class TestBatchedSpectra:
    """The chunked fast path against its one-sample references."""

    @given(_FAMILIES, st.integers(0, 2**32 - 1), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_batched_eigvalsh_bit_equal_to_rows(self, family, seed, rows):
        bank = term_bank(*family)
        g = np.stack([gaussian_stream(RandomStream(seed, i), len(bank)) for i in range(rows)])
        got = bank.eigvalsh(g)
        assert got.shape == (rows, bank.dim)
        for row, w in zip(g, got):
            assert w.tobytes() == bank.eigvalsh(row).tobytes()
        nested = bank.eigvalsh(g[None])  # any leading axes
        assert nested.shape == (1, rows, bank.dim) and nested.tobytes() == got.tobytes()

    @pytest.mark.parametrize("model,n,loc", [("syk", 8, 4), ("sg", 4, 2), ("classical", 12, 4),
                                             ("classical", 6, 3)])
    @pytest.mark.parametrize("streams", [lambda b: range(23), lambda b: (5, 0, 3),
                                         lambda b: (9,), lambda b: (),
                                         lambda b: range(7, 7 + 2 * b + 5)],
                             ids=["range23", "5-0-3", "9", "none", "two-chunks"])
    def test_chunked_spectra_equal_per_stream(self, model, n, loc, streams):
        # each case's streams, given the width b of a full chunk
        width = len(next(models._spectrum_chunks(model, n, loc, 4, itertools.count())))
        streams = streams(width)
        if model == "classical":
            want = [sample_classical_pspin(n, loc, 4, stream=i) for i in streams]
        else:
            bank = model_bank(model, n, loc)
            want = [bank.eigvalsh(next(sample_couplings(model, n, loc, 4, (i,))))
                    for i in streams]
        got = list(sample_spectra(model, n, loc, 4, streams))
        assert len(got) == len(want)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        sizes = [len(c) for c in models._spectrum_chunks(model, n, loc, 4, streams)]
        assert sum(sizes) == len(streams) and set(sizes[:-1]) <= {width}

    @given(st.sampled_from([(12, 4), (7, 3), (6, 2)]),
           st.one_of(st.integers(-(2**64), -1), st.integers(0, 2**65)),
           st.integers(0, 2**40), st.sampled_from([0, 17, 51]), st.data())
    @settings(max_examples=30, deadline=None)
    def test_classical_chunks_equal_per_sample(self, family, seed, first, reduce_bytes, data):
        # one Walsh-Hadamard transform per chunk against one per sample, the
        # library's and the transform of a table built for one sample alone;
        # one full chunk and a short last one
        n, p = family
        width = len(next(models._spectrum_chunks("classical", n, p, seed, itertools.count(),
                                                 reduce_bytes)))
        extra = data.draw(st.integers(1, max(1, width - 1)))
        streams = range(first, first + width + extra)
        chunks = models._spectrum_chunks("classical", n, p, seed, streams, reduce_bytes)
        got = [e.tobytes() for chunk in chunks for e in chunk]
        assert got == [sample_classical_pspin(n, p, seed, stream=i).tobytes() for i in streams]
        m = comb(n, p)
        for i in (streams[0], streams[-1]):
            table = np.zeros(1 << n)
            g = gaussian_stream(RandomStream(seed, i), m)
            table[models._pspin_masks(n, p)] = g / math.sqrt(m)
            assert got[i - first] == _walsh_hadamard(table).tobytes()

    @pytest.mark.parametrize("model,n,loc", [("syk", 8, 4), ("sg", 4, 2), ("classical", 12, 4),
                                             ("sg", 9, 2)])
    def test_listed_spectra_are_owned_copies(self, model, n, loc):
        # the chunks reuse one workspace, so a spectrum that were a view of
        # it would read as the last chunk's once the list is complete
        width = len(next(models._spectrum_chunks(model, n, loc, 4, itertools.count())))
        streams = range(2 * width + 1)  # two full chunks and one sample more
        got = list(sample_spectra(model, n, loc, 4, streams))
        if model == "classical":
            want = [sample_classical_pspin(n, loc, 4, stream=i) for i in streams]
        else:
            bank = model_bank(model, n, loc)
            want = [bank.eigvalsh(g) for g in sample_couplings(model, n, loc, 4, streams)]
        assert [w.tobytes() for w in got] == [w.tobytes() for w in want]
        assert all(w.flags.owndata for w in got)

    def test_chunks_batch_small_models(self):
        # small models (d = 16, and classical n = 12) take several samples
        # per chunk, and 401 is not a multiple of any of their chunk sizes
        for model, n, loc in (("syk", 8, 4), ("sg", 4, 2), ("classical", 12, 4)):
            sizes = [len(c) for c in models._spectrum_chunks(model, n, loc, 0, range(401))]
            assert sizes[0] > 1 and sizes[-1] != sizes[0], (model, sizes)

    @pytest.mark.parametrize("model,n,loc", [("syk", 18, 4), ("sg", 9, 2)])
    def test_one_sample_per_chunk_at_large_d(self, model, n, loc):
        bank = model_bank(model, n, loc)
        assert models._chunk_size(bank.sample_bytes) == 1
        assert models._chunk_size(8 << 22) == 1  # classical at its cap

    @given(_EVEN_MAJORANA_SETS)
    @settings(max_examples=80, deadline=None)
    def test_majorana_masks_equal_per_member(self, family):
        n, supports = family
        members = tuple(MajoranaMonomial(n, tuple(sorted(s))) for s in supports)
        ops = OperatorSet("majorana", n, 0, members)
        paulis = [majorana_to_pauli(op) for op in members]
        want = _pauli_masks(paulis)
        got = _majorana_masks(ops)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        _assert_action_is_loop(TermBank.from_set(ops), paulis)
        _assert_action_is_loop(TermBank(want, ops.dim), paulis)

    def test_majorana_masks_refuse_any_odd_member(self):
        mixed = OperatorSet("majorana", 6, 2, (MajoranaMonomial(6, (1, 2)),
                                               MajoranaMonomial(6, (1, 2, 3))))
        with pytest.raises(InputError):
            TermBank.from_set(mixed)


def _expected_mirror(n, degrees):
    """The mirror of a Majorana set from the algebra alone: P = M K with M
    the image of g1 g3 ... g_{n-1} sends every generator to (-1)^{n/2-1}
    times itself, so the Hermitized i^{q/2} g_S to (-1)^{q/2} times itself,
    and M swaps the parity sectors iff n/2 is odd."""
    signs = {(-1) ** (q // 2) for q in degrees}
    return signs.pop() if n % 4 == 2 and len(signs) == 1 else 0


def _scattered(bank, w, v):
    """(w, U) of one coupling row from its sector eigenpairs, by a loop:
    the pairs in ascending order, ties in sector order, and each vector's
    entries at the basis states of its sector."""
    flat = w.reshape(-1)
    side = bank.sector_rows.shape[1]
    U = np.zeros((bank.dim, bank.dim), dtype=complex)
    for col, at in enumerate(np.argsort(flat, kind="stable")):
        s, k = divmod(int(at), side)
        U[bank.sector_rows[s], col] = v[s, :, k]
    return np.sort(flat), U


def _check_spectra(bank, seed, rows=2):
    """eigvalsh, and sector_eigh through its scatter, against the dense
    assembled matrix; the sectors partition the basis."""
    g = np.stack([gaussian_stream(RandomStream(seed, i), len(bank)) for i in range(rows)])
    sw, sv = bank.sector_eigh(g)
    sectors, side = bank.sector_rows.shape
    assert sectors == (2 if bank.parity else 1) and sectors * side == bank.dim
    assert sw.shape == (rows, sectors, side) and sv.shape == (rows, sectors, side, side)
    assert np.array_equal(np.sort(bank.sector_rows, axis=None), np.arange(bank.dim))
    for row, values, swi, svi in zip(g, bank.eigvalsh(g), sw, sv):
        wi, Ui = _scattered(bank, swi, svi)
        H = bank.assemble(row)
        ref = np.linalg.eigvalsh(H)
        tol = 1e-12 * max(1.0, np.abs(ref).max())
        assert np.abs(values - ref).max() <= tol
        assert np.abs(wi - ref).max() <= tol
        assert np.linalg.norm(H @ Ui - Ui * wi) <= 1e-12
        assert np.linalg.norm(Ui.conj().T @ Ui - np.eye(bank.dim)) <= 1e-12


class TestParticleHoleMirror:
    """Banks solved from one parity block through P = M K."""

    @pytest.mark.parametrize("n", range(2, 26, 2))
    def test_masks_are_the_image_of_the_odd_generators(self, n):
        P = majorana_to_pauli(MajoranaMonomial(n, tuple(range(1, n, 2))), hermitize=False)
        assert _particle_hole_masks(n // 2) == (P.x_mask, P.z_mask)

    @given(st.integers(3, 9), st.sampled_from((2, 4, 6)), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_full_families(self, h, q, seed):
        n = 2 * h
        if q > n:
            return
        masks = _majorana_masks(enumerate_set("majorana", n, q))
        want = _expected_mirror(n, (q,))
        assert _mirror(*masks, _particle_hole_masks(h)) == want
        if comb(n, q) << h > 1 << 21:  # (18, 6): 9.5M table entries, masks only
            return
        bank = term_bank("majorana", n, q)
        assert bank.mirror == want
        _check_spectra(bank, seed)

    @given(_EVEN_MAJORANA_SETS, st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_even_degree_sets(self, family, seed):
        n, supports = family
        ops = OperatorSet("majorana", n, 0, tuple(MajoranaMonomial(n, tuple(sorted(s)))
                                                  for s in supports))
        bank = TermBank.from_set(ops)
        assert bank.mirror == _expected_mirror(n, [len(s) for s in supports])
        _check_spectra(bank, seed)

    @given(st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_mixed_degree_two_and_four_is_not_mirrored(self, h, seed):
        n = 4 * h + 2  # a sector-swapping M: only the degrees disagree
        pick = np.random.default_rng(seed).permutation(n) + 1
        ops = OperatorSet("majorana", n, 0, (MajoranaMonomial(n, tuple(sorted(pick[:2]))),
                                             MajoranaMonomial(n, tuple(sorted(pick[2:6])))))
        bank = TermBank.from_set(ops)
        assert bank.parity and bank.mirror == 0
        _check_spectra(bank, seed)

    @given(_FAMILIES.filter(lambda f: f[0] == "pauli"), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_pauli_banks_are_not_mirrored(self, family, seed):
        bank = term_bank(*family)
        assert not bank.parity and bank.mirror == 0
        _check_spectra(bank, seed)

    @pytest.mark.parametrize("labels,mirror", [(("ZZI", "IZZ", "ZIZ"), 1), (("XXI", "IXX"), -1)])
    def test_parity_preserving_pauli_sets_are_mirrored(self, labels, mirror):
        # the candidate of 3 qubits, X on each qubit and Z on the middle one,
        # commutes with ZZ-type terms and anticommutes with XX-type ones
        ops = OperatorSet("pauli", 3, 2, tuple(PauliString.from_label(s) for s in labels))
        bank = TermBank.from_set(ops)
        assert bank.parity and bank.mirror == mirror
        dense = np.array(ops.hermitized_matrices())
        g = np.stack([gaussian_stream(RandomStream(5, i), len(bank)) for i in range(3)])
        sw, sv = bank.sector_eigh(g)
        for row, values, swi, svi in zip(g, bank.eigvalsh(g), sw, sv):
            H = np.tensordot(row, dense, axes=1) / math.sqrt(len(bank))
            ref = np.linalg.eigvalsh(H)
            wi, Ui = _scattered(bank, swi, svi)
            assert np.abs(values - ref).max() <= 1e-12
            assert np.abs(wi - ref).max() <= 1e-12
            assert np.linalg.norm(H @ Ui - Ui * wi) <= 1e-12
            assert np.linalg.norm(Ui.conj().T @ Ui - np.eye(bank.dim)) <= 1e-12

    def test_eigh_takes_any_leading_axes(self):
        bank = term_bank("majorana", 10, 4)
        g = np.stack([gaussian_stream(RandomStream(1, i), len(bank)) for i in range(3)])
        w, v = bank.sector_eigh(g)
        one_w, one_v = bank.sector_eigh(g[1])
        assert one_w.shape == (2, bank.dim // 2) and one_v.shape == (2, bank.dim // 2, bank.dim // 2)
        assert np.array_equal(one_w, w[1]) and np.array_equal(one_v, v[1])
        nested_w, nested_v = bank.sector_eigh(g[None])
        assert np.array_equal(nested_w[0], w) and np.array_equal(nested_v[0], v)
        assert np.all(np.diff(w[:, 0], axis=-1) >= 0)  # the solved sector ascends
        for row, wi, vi in zip(g, w, v):
            scattered_w, U = _scattered(bank, wi, vi)
            H = bank.assemble(row)
            assert np.linalg.norm(H @ U - U * scattered_w) <= 1e-12


class TestSectorEigh:
    """TermBank.sector_eigh, the one eigenvector solver of a bank: the
    scatter of its sector pairs into the full basis is an eigendecomposition
    of the assembled Hamiltonian."""

    @pytest.mark.parametrize("n,q,mirror", [(10, 4, 1), (10, 2, -1), (14, 4, 1), (8, 4, 0)])
    def test_eigh_is_the_scatter_of_syk_sectors(self, n, q, mirror):
        bank = term_bank("majorana", n, q)
        assert bank.mirror == mirror
        _check_spectra(bank, n + q, rows=3)

    @given(_FAMILIES.filter(lambda f: f[0] == "pauli"), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_eigh_is_the_scatter_of_one_pauli_sector(self, family, seed):
        _check_spectra(term_bank(*family), seed)

    def test_mirrored_sector_pairs(self):
        """Sector 1 of a mirrored bank holds eigenpairs of H in its own rows."""
        bank = term_bank("majorana", 10, 2)
        g = gaussian_stream(RandomStream(4, 0), len(bank))
        w, v = bank.sector_eigh(g)
        H = bank.assemble(g)
        for s in range(2):
            rows = bank.sector_rows[s]
            block = H[np.ix_(rows, rows)]
            assert np.linalg.norm(block @ v[s] - v[s] * w[s]) <= 1e-12
        assert np.array_equal(w[1], bank.mirror * w[0])


class TestClassical:
    def test_single_term_sign(self):
        g, energies = first("classical", 4, 4, 2)
        assert np.allclose(np.sort(np.unique(np.round(energies, 12))), sorted({-g[0], g[0]}))

    def test_flip_symmetry_even_p(self):
        energies = sample_classical_pspin(8, 4, seed=3)
        full = (1 << 8) - 1
        flipped = energies[np.arange(1 << 8) ^ full]
        assert np.allclose(energies, flipped)

    def test_per_configuration_variance(self):
        vals = [
            sample_classical_pspin(10, 3, seed=4, stream=i)[123]
            for i in range(10_000)
        ]
        v = np.var(vals, ddof=1)
        se = v * math.sqrt(2.0 / (len(vals) - 1))
        assert abs(v - 1.0) <= 5 * se

    def test_matches_direct_evaluation(self):
        n, p = 6, 3
        g, energies = first("classical", n, p, 5)
        assert np.array_equal(energies, sample_classical_pspin(n, p, seed=5))
        import itertools

        rng_terms = list(itertools.combinations(range(n), p))
        for idx in [0, 17, 63]:
            spins = [1 - 2 * ((idx >> i) & 1) for i in range(n)]
            direct = sum(
                gi * spins[a] * spins[b] * spins[c] for gi, (a, b, c) in zip(g, rng_terms)
            ) / math.sqrt(len(rng_terms))
            assert abs(direct - energies[idx]) < 1e-10


class TestCommutationCounting:
    def test_majorana_values(self):
        assert h_comm_count("majorana", 6, 2) == 8
        assert h_comm_count("majorana", 8, 4) == 32

    def test_pauli_small(self):
        # K3: every Pauli anticommutes with the other two
        assert h_comm_count("pauli", 1, 1) == 2
        assert h_comm_count("pauli", 2, 2) == 4

    @pytest.mark.parametrize(
        "kind,n,q",
        [("majorana", 6, 2), ("majorana", 8, 4), ("majorana", 10, 4), ("majorana", 12, 4),
         ("majorana", 4, 1), ("majorana", 8, 3), ("majorana", 8, 5), ("majorana", 10, 3),
         ("majorana", 10, 7), ("pauli", 2, 2), ("pauli", 3, 1), ("pauli", 3, 2), ("pauli", 4, 2),
         ("pauli", 4, 3), ("pauli", 5, 2)],
    )
    def test_closed_form_matches_graph_degree(self, kind, n, q):
        g = commutation_graph(enumerate_set(kind, n, q))
        assert h_comm_count(kind, n, q) == max(g.degrees())

    @pytest.mark.parametrize(
        "kind,n,q,line",
        [("majorana", 4, 6, "locality must lie in 1..n"),
         ("pauli", 3, 5, "locality must lie in 1..n"),
         ("majorana", 8, 0, "locality must lie in 1..n"),
         ("majorana", 7, 2, "majorana enumeration requires even mode count"),
         ("fermion", 8, 4, "unknown operator kind 'fermion'")],
    )
    def test_refuses_what_enumeration_refuses(self, kind, n, q, line):
        with pytest.raises(InputError) as err:
            h_comm_count(kind, n, q)
        assert str(err.value) == line

    def test_majorana_within_stated_order(self):
        for n, q in [(8, 4), (12, 4), (16, 4)]:
            assert h_comm_count("majorana", n, q) <= q * comb(n - 1, q - 1)


class TestEigenvalueBound:
    def test_vacuous_when_delta_large(self):
        res = lambda_max_lower_bound(100, 10, delta_upper=1 / 16)
        assert res.bound == 0.0 and res.vacuous

    def test_16_4_value(self):
        res = lambda_max_lower_bound(1820, 928, delta_upper=28 / 1820)
        expected = math.sqrt(1820) / (4 * math.sqrt(928)) * (1 - 16 * 28 / 1820)
        assert abs(res.bound - expected) < 1e-12
        assert abs(res.bound - 0.264) < 5e-4
        assert abs(res.beta_max - math.sqrt(1820 / 928)) < 1e-12

    @pytest.mark.parametrize("h_comm", [0, -3])
    def test_refuses_a_family_without_anticommuting_pairs(self, h_comm):
        with pytest.raises(InputError, match="h_comm must be positive"):
            lambda_max_lower_bound(1, h_comm, 0.0)

    def test_monotonicity(self):
        base = lambda_max_lower_bound(1820, 928, 0.01)
        assert lambda_max_lower_bound(1820, 928, 0.02).bound < base.bound


class TestAnsatzBounds:
    def test_tiny_t_clamps(self):
        rep = ansatz_bounds_report(100, 4, 1e-9, 64, 1e-3)
        assert rep.circuit_gate_threshold == 0

    def test_golden_values(self):
        rep = ansatz_bounds_report(100, 4, 0.5, 64, 1e-3)
        # theta = C(50, 2): sigma_sq is the least float at or above the ratio
        exact = Fraction(comb(50, 2), comb(100, 4))
        assert Fraction(rep.sigma_sq) >= exact > Fraction(math.nextafter(rep.sigma_sq, 0))
        assert rep.circuit_gate_threshold == 3158
        assert rep.mps_bond_threshold == 200
        assert rep.nn_weight_threshold == 40005
        assert rep.gaussian_states_ruled_out

    def test_matches_closed_form(self):
        rep = ansatz_bounds_report(64, 4, 0.7, 16, 1e-2)
        e = 0.7**2 * 64 / (2 * rep.sigma_sq)
        budget = e + log(1e-2)
        assert rep.circuit_gate_threshold == math.floor(budget / log(16 * comb(64, 2)))
        assert rep.nn_weight_threshold == math.floor(budget)
        assert rep.mps_bond_threshold == math.floor(math.sqrt(budget - log(64)))

    def test_quadratic_in_t(self):
        rows = {
            t: ansatz_bounds_report(100, 4, t, 64, 1e-3).circuit_gate_threshold
            for t in (0.25, 0.5, 1.0)
        }
        assert abs(rows[0.5] / rows[0.25] - 4) <= 0.4
        assert abs(rows[1.0] / rows[0.5] - 4) <= 0.4

    def test_input_validation(self):
        with pytest.raises(InputError):
            ansatz_bounds_report(100, 4, 0.0, 64, 1e-3)
        with pytest.raises(InputError):
            ansatz_bounds_report(100, 4, 0.5, 1, 1e-3)
        with pytest.raises(InputError):
            ansatz_bounds_report(100, 4, 0.5, 64, 1.5)
        for t in (1e200, float("inf"), float("nan")):  # exponent t^2 n / (2 sigma^2) not finite
            with pytest.raises(InputError):
                ansatz_bounds_report(100, 4, t, 64, 1e-3)

    def test_q_equal_to_n_refused_before_the_lp(self, monkeypatch):
        def lp(n, q):
            raise AssertionError("the LP ran")

        monkeypatch.setattr(fermitheta.index, "theta_johnson_lp", lp)
        for n in (2, 4, 10):
            with pytest.raises(InputError, match="q = n"):
                ansatz_bounds_report(n, n, 0.5, 64, 1e-3)


class TestDepolarizedIdentity:
    def test_zz_on_00(self):
        lhs, rhs = depolarized_energy_identity(
            [(1.0, PauliString.from_label("ZZ"))], np.array([1, 0, 0, 0], dtype=complex)
        )
        assert abs(lhs - 1 / 9) < 1e-12 and abs(lhs - rhs) <= 1e-12

    def test_bell_state(self):
        bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
        lhs, rhs = depolarized_energy_identity(
            [(1.0, PauliString.from_label("XX")), (1.0, PauliString.from_label("ZZ"))],
            bell,
        )
        assert abs(lhs - 2 / 9) < 1e-12

    def test_top_eigenvector_certifies_product_bound(self):
        from fermitheta.algebra import pauli_matrix

        terms = []
        ops = enumerate_set("pauli", 3, 2)
        g = gaussian_stream(RandomStream(11, 0), len(ops))
        terms = list(zip(g, ops.members))
        H = sum(c * pauli_matrix(P) for c, P in terms)
        w, U = np.linalg.eigh(H)
        lhs, rhs = depolarized_energy_identity(terms, U[:, -1])
        assert abs(lhs - w[-1] / 9) < 1e-10

    def test_mixed_weights_rejected(self):
        with pytest.raises(InputError):
            depolarized_energy_identity(
                [(1.0, PauliString.from_label("ZI")), (1.0, PauliString.from_label("ZZ"))],
                np.array([1, 0, 0, 0], dtype=complex),
            )


class TestBoundsReportEigenFields:
    def test_eigenvalue_fields_populated(self):
        rep = ansatz_bounds_report(16, 4, 0.5, 64, 1e-3)
        direct = lambda_max_lower_bound(comb(16, 4), h_comm_count("majorana", 16, 4), rep.sigma_sq)
        assert rep.lambda_max_lower == direct.bound
        assert rep.beta_max == direct.beta_max
        assert abs(rep.lambda_max_lower - 0.264) < 5e-4
