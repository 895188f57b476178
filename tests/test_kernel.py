"""Kernel: eigensolver contracts, random streams and the chunk workspace."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermitheta.algebra import term_bank
from fermitheta.kernel import (
    InputError,
    RandomStream,
    Workspace,
    _gaussian_rows,
    _gaussian_rows_bytes,
    eigh,
    gaussian_stream,
)


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (A + A.conj().T) / 2


class TestEigh:
    def test_diagonal(self):
        w, _ = eigh(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1, 2, 3])

    def test_pauli_x(self):
        w, _ = eigh(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(w, [-1, 1])

    def test_residuals_random(self):
        # random Hermitian matrices, and assembled bank Hamiltonians with
        # parity blocks: a mirrored bank (10, 4), a two-block bank (12, 2)
        # and a one-block Pauli bank
        mats = [random_hermitian(dim, seed) for seed, dim in enumerate((1, 7, 32))]
        for family in (("majorana", 10, 4), ("majorana", 12, 2), ("pauli", 5, 2)):
            bank = term_bank(*family)
            mats += [bank.assemble(gaussian_stream(RandomStream(0, i), len(bank))) for i in range(3)]
        for H in mats:
            w, U = eigh(H)
            R = (U * w) @ U.conj().T - H
            assert np.all(np.diff(w) >= 0)
            assert np.linalg.norm(R) / max(1.0, np.linalg.norm(H)) <= 1e-9
            assert np.abs(U.conj().T @ U - np.eye(len(H))).max() <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(InputError):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_eigenvalue_stability(self):
        H = random_hermitian(32, 1)
        assert np.array_equal(eigh(H)[0], eigh(H)[0])

    def test_tolerance_and_shape(self):
        # a 1e-10 asymmetry is within the 1e-9 Hermiticity tolerance, 1e-8 is not
        A = np.array([[0.0, 1.0], [1.0 + 1e-10, 0.0]])
        assert np.allclose(eigh(A)[0], [-1, 1])
        with pytest.raises(InputError):
            eigh(np.array([[0.0, 1.0], [1.0 + 1e-8, 0.0]]))
        with pytest.raises(InputError):
            eigh(np.ones((2, 3)))


class TestGaussianStream:
    def test_empty(self):
        assert gaussian_stream(RandomStream(0), 0).shape == (0,)

    def test_deterministic(self):
        a = gaussian_stream(RandomStream(42, 3), 1000)
        b = gaussian_stream(RandomStream(42, 3), 1000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = gaussian_stream(RandomStream(42, 0), 100)
        b = gaussian_stream(RandomStream(42, 1), 100)
        assert not np.allclose(a, b)

    def test_moments(self):
        z = gaussian_stream(RandomStream(7), 100_000)
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.02

    def test_prefix_consistency(self):
        long = gaussian_stream(RandomStream(9, 2), 101)
        short = gaussian_stream(RandomStream(9, 2), 50)
        assert np.array_equal(long[:50], short)

    def test_negative_count_rejected(self):
        with pytest.raises(InputError):
            gaussian_stream(RandomStream(1), -1)

    @staticmethod
    def fresh_philox_normals(seed, index, count):
        """The normals of a new Philox keyed by (seed, index), through
        ``Generator.random`` and Box-Muller one stream at a time."""
        u = np.random.Generator(RandomStream(seed, index)._bit_generator()).random(
            2 * ((count + 1) // 2)
        )
        r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
        want = np.empty(len(u))
        want[0::2] = r * np.cos(2.0 * np.pi * u[1::2])
        want[1::2] = r * np.sin(2.0 * np.pi * u[1::2])
        return want[:count]

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(-(2**63), 2**64 - 1),
        index=st.integers(0, 2**64 - 1),
        count=st.integers(1, 300),
        before=st.integers(0, 9),
    )
    def test_reused_generator_equals_fresh_philox(self, seed, index, count, before):
        """The per-thread generator gives the stream of a new Philox keyed by
        (seed, index), whatever was drawn before it."""
        gaussian_stream(RandomStream(seed + 1, index), before)
        want = self.fresh_philox_normals(seed, index, count)
        got = gaussian_stream(RandomStream(seed, index), count)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.one_of(st.integers(-(2**70), -1), st.integers(2**64, 2**70),
                       st.integers(0, 2**64 - 1)),
        count=st.integers(1, 2100),
        streams=st.lists(st.integers(0, 2**65), min_size=1, max_size=100),
    )
    @example(seed=-1, count=2001, streams=[7, 3, 3, 0, 7])
    @example(seed=2**64 + 5, count=1, streams=list(range(100, 0, -1)))
    def test_chunk_draw_equals_stacked_streams(self, seed, count, streams):
        """One chunk draw gives every row the bytes of its own stream,
        for streams out of order or repeated, odd counts and seeds that
        the key reduces mod 2^64; from a workspace as from fresh arrays."""
        want = np.stack([gaussian_stream(RandomStream(seed, i), count) for i in streams])
        got = _gaussian_rows(seed, streams, np.empty((len(streams), count)))
        assert got.tobytes() == want.tobytes()
        for i, row in zip(streams, got):
            assert row.tobytes() == self.fresh_philox_normals(seed, i, count).tobytes()
        work = Workspace()
        work.allocate(len(streams) * (8 * count + _gaussian_rows_bytes(count)))
        out = work.take("out", (len(streams), count))
        assert _gaussian_rows(seed, streams, out, work.take).tobytes() == want.tobytes()

    def test_threads_draw_their_own_streams(self):
        from concurrent.futures import ThreadPoolExecutor

        want = [gaussian_stream(RandomStream(5, i), 64) for i in range(32)]
        with ThreadPoolExecutor(4) as pool:
            got = list(pool.map(lambda i: gaussian_stream(RandomStream(5, i), 64), range(32)))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


class TestWorkspace:
    def test_arrays_are_carved_once_and_reused(self):
        work = Workspace()
        work.allocate(4 * 3 * 8 + 4 * 16 + 4)
        table = work.take("table", (4, 3), zero=True)
        blocks = work.take("blocks", (4, 2), complex)
        mask = work.take("mask", (4,), bool)
        assert not table.any() and blocks.dtype == complex and mask.dtype == bool
        for a in (table, blocks, mask):
            assert a.ctypes.data % 64 == 0 and a.flags.c_contiguous
        table[:] = 7.0
        again = work.take("table", (2, 3), zero=True)  # zeroed only when carved
        assert again.shape == (2, 3) and np.shares_memory(again, table) and (again == 7.0).all()
        assert not np.shares_memory(table, blocks) and not np.shares_memory(blocks, mask)

    def test_requests_beyond_the_buffer_or_its_arrays_raise(self):
        with pytest.raises(RuntimeError, match="not allocated"):
            Workspace().take("a", (8,))
        work = Workspace()
        work.allocate(64)
        work.take("a", (8,))
        with pytest.raises(RuntimeError, match="exceeds"):
            work.take("b", (8, 100))
        with pytest.raises(RuntimeError, match="carved"):
            work.take("a", (9,))
        with pytest.raises(RuntimeError, match="carved"):
            work.take("a", (8,), complex)
        with pytest.raises(RuntimeError, match="already"):
            work.allocate(64)
