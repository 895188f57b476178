"""Dense kernel: eigensolver contracts, matrix exponential, random streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermitheta.kernel import (
    DenseHermitian,
    InputError,
    RandomStream,
    eigh,
    expm_hermitian,
    gaussian_stream,
)


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (A + A.conj().T) / 2


class TestEigh:
    def test_diagonal(self):
        s = eigh(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(s.eigenvalues, [1, 2, 3])

    def test_pauli_x(self):
        s = eigh(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(s.eigenvalues, [-1, 1])

    def test_residuals_random(self):
        H = random_hermitian(64, 0)
        s = eigh(H)
        assert s.reconstruction_residual(H) <= 1e-9
        assert s.orthonormality_residual() <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(InputError):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_eigenvalue_stability(self):
        H = random_hermitian(32, 1)
        assert np.array_equal(eigh(H).eigenvalues, eigh(H).eigenvalues)


class TestExpm:
    def test_zero_scalar(self):
        H = random_hermitian(8, 2)
        assert np.allclose(expm_hermitian(H, 0.0), np.eye(8), atol=1e-12)

    def test_imaginary_phase(self):
        Z = np.diag([1.0, -1.0])
        U = expm_hermitian(Z, 0.5j * np.pi)
        assert np.allclose(U, np.diag([1j, -1j]), atol=1e-12)

    def test_trace_matches_eigen_sum(self):
        H = random_hermitian(16, 3)
        beta = 0.7
        t = np.trace(expm_hermitian(H, -beta)).real
        w = np.linalg.eigvalsh(H)
        assert abs(t - np.exp(-beta * w).sum()) < 1e-10

    def test_semigroup(self):
        H = random_hermitian(16, 4)
        lhs = expm_hermitian(H, 0.3) @ expm_hermitian(H, 0.45)
        rhs = expm_hermitian(H, 0.75)
        assert np.abs(lhs - rhs).max() < 1e-8

    def test_unitary_for_imaginary(self):
        H = random_hermitian(12, 5)
        U = expm_hermitian(H, 1.3j)
        assert np.abs(U @ U.conj().T - np.eye(12)).max() < 1e-9

    def test_rejects_general_complex(self):
        with pytest.raises(InputError):
            expm_hermitian(np.eye(2), 1.0 + 1.0j)


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
        u = np.random.Generator(RandomStream(seed, index)._bit_generator()).random(
            2 * ((count + 1) // 2)
        )
        r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
        want = np.empty(len(u))
        want[0::2] = r * np.cos(2.0 * np.pi * u[1::2])
        want[1::2] = r * np.sin(2.0 * np.pi * u[1::2])
        got = gaussian_stream(RandomStream(seed, index), count)
        assert got.tobytes() == want[:count].tobytes()

    def test_threads_draw_their_own_streams(self):
        from concurrent.futures import ThreadPoolExecutor

        want = [gaussian_stream(RandomStream(5, i), 64) for i in range(32)]
        with ThreadPoolExecutor(4) as pool:
            got = list(pool.map(lambda i: gaussian_stream(RandomStream(5, i), 64), range(32)))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


class TestDenseHermitian:
    def test_validates(self):
        with pytest.raises(InputError):
            DenseHermitian(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_dim(self):
        assert DenseHermitian(np.eye(4)).dim == 4

    def test_tolerances_stay_apart(self):
        # 1e-10 asymmetry: beyond DenseHermitian's 1e-12, within eigh's 1e-9
        A = np.array([[0.0, 1.0], [1.0 + 1e-10, 0.0]])
        with pytest.raises(InputError):
            DenseHermitian(A)
        assert np.allclose(eigh(A).eigenvalues, [-1, 1])
        with pytest.raises(InputError):
            eigh(np.ones((2, 3)))
