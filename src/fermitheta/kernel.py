"""Dense Hermitian linear algebra and reproducible Gaussian sampling.

All numeric modules funnel their matrix work through this kernel so that
tolerances and random-number conventions are pinned in exactly one place.

Randomness is counter-based: a :class:`RandomStream` is an immutable
(base_seed, stream_index) pair fed to a Philox-4x64 generator, and normal
deviates are produced by the Box-Muller transform.  Identical stream
parameters reproduce identical outputs bit-for-bit within one build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DenseHermitian",
    "Spectrum",
    "RandomStream",
    "eigh",
    "expm_hermitian",
    "gaussian_stream",
    "InputError",
    "CapacityError",
]

HERMITICITY_ATOL = 1e-9


class InputError(ValueError):
    """A caller-supplied argument violates an operation's precondition."""


class CapacityError(RuntimeError):
    """A request exceeds the configured dense-matrix or enumeration budget."""


def _require_hermitian(a: np.ndarray, tol: float):
    """Raise InputError unless ``a`` is square and Hermitian to within
    ``tol`` relative to its largest entry (at least 1)."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"expected a square matrix, got shape {a.shape}")
    dev = np.abs(a - a.conj().T).max() if a.size else 0.0
    if dev > tol * max(1.0, np.abs(a).max()):
        raise InputError(f"matrix is not Hermitian (max asymmetry {dev:.3e})")


@dataclass(frozen=True)
class DenseHermitian:
    """A dense complex Hermitian matrix with validated symmetry.

    The wrapped array is never mutated after construction.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=complex)
        _require_hermitian(a, 1e-12)
        a = (a + a.conj().T) / 2
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _as_matrix(H) -> np.ndarray:
    if isinstance(H, DenseHermitian):
        return H.entries
    return np.asarray(H, dtype=complex)


@dataclass(frozen=True)
class Spectrum:
    """Full eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are ascending; ``eigenvectors`` holds the corresponding
    orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def reconstruction_residual(self, H) -> float:
        H = _as_matrix(H)
        R = (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.conj().T - H
        return float(np.linalg.norm(R) / max(1.0, np.linalg.norm(H)))

    def orthonormality_residual(self) -> float:
        U = self.eigenvectors
        return float(np.abs(U.conj().T @ U - np.eye(self.dim)).max())


def eigh(H) -> Spectrum:
    """Full ascending spectrum of a Hermitian matrix.

    Raises :class:`InputError` if the input deviates from Hermiticity by
    more than ``1e-9`` relative to its magnitude.
    """
    A = _as_matrix(H)
    _require_hermitian(A, HERMITICITY_ATOL)
    w, U = np.linalg.eigh((A + A.conj().T) / 2)
    return Spectrum(eigenvalues=w, eigenvectors=U)


def expm_hermitian(H, s: complex) -> np.ndarray:
    """exp(s*H) for Hermitian H via the spectral decomposition.

    ``s`` must be real or purely imaginary: those are the only scalings used
    (imaginary-time Gibbs weights and real-time evolution), and restricting
    them keeps the unitarity/positivity contracts checkable.
    """
    s = complex(s)
    if abs(s.real) > 1e-14 and abs(s.imag) > 1e-14:
        raise InputError("scalar must be real or purely imaginary")
    spec = eigh(H)
    phases = np.exp(s * spec.eigenvalues)
    return (spec.eigenvectors * phases) @ spec.eigenvectors.conj().T


@dataclass(frozen=True)
class RandomStream:
    """Named source of reproducible randomness.

    Streams with distinct ``stream_index`` are statistically independent;
    callers dedicate one stream per Monte Carlo sample.
    """

    base_seed: int
    stream_index: int = 0

    def _bit_generator(self):
        key = np.array(
            [self.base_seed % (1 << 64), self.stream_index % (1 << 64)],
            dtype=np.uint64,
        )
        return np.random.Philox(key=key)


def gaussian_stream(stream: RandomStream, count: int) -> np.ndarray:
    """``count`` standard normal deviates from the given stream.

    Uniforms come from the Philox counter generator; the Box-Muller
    transform turns consecutive pairs into normals.  The output is a
    deterministic function of (base_seed, stream_index, count prefix).
    """
    if count < 0:
        raise InputError("count must be nonnegative")
    if count == 0:
        return np.zeros(0)
    pairs = (count + 1) // 2
    gen = np.random.Generator(stream._bit_generator())
    u = gen.random(2 * pairs)
    r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    ang = 2.0 * np.pi * u[1::2]
    z = np.empty(2 * pairs)
    z[0::2] = r * np.cos(ang)
    z[1::2] = r * np.sin(ang)
    return z[:count]


def gaussian_complex_vector(stream: RandomStream, dim: int) -> np.ndarray:
    """Unnormalized complex Gaussian vector (2*dim normals)."""
    z = gaussian_stream(stream, 2 * dim)
    return z[0::2] + 1j * z[1::2]


def random_state(stream: RandomStream, dim: int) -> np.ndarray:
    """Haar-distributed unit vector of the given dimension."""
    v = gaussian_complex_vector(stream, dim)
    return v / np.linalg.norm(v)
