"""Checked Hermitian eigensolver, error types, reproducible Gaussian
sampling and the chunk workspace of the sampling calls.

:func:`eigh` is a Hermiticity-checked wrapper of ``np.linalg.eigh``
that no library module calls; it stays exported as the dense reference
solver of the tests and the name the benchmark tracer wraps.  Term banks
solve their own parity blocks (``TermBank.eigvalsh`` for disorder spectra,
``TermBank.sector_eigh`` for the see-saw and Gibbs states), and other
matrices that are Hermitian by construction (the theta LP's eigenspaces,
Johnson adjacencies) go to numpy's solvers directly.  Every coupling of every
disorder sample comes from :func:`gaussian_stream`.

Randomness is counter-based: a :class:`RandomStream` is an immutable
(base_seed, stream_index) pair fed to a Philox-4x64 generator, and normal
deviates are produced by the Box-Muller transform.  Identical stream
parameters reproduce identical outputs bit-for-bit within one build.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RandomStream",
    "eigh",
    "gaussian_stream",
    "InputError",
    "CapacityError",
]

HERMITICITY_ATOL = 1e-9


class InputError(ValueError):
    """A caller-supplied argument violates an operation's precondition."""


class CapacityError(RuntimeError):
    """A request exceeds the configured dense-matrix or enumeration budget."""


class Workspace:
    """One buffer for the chunks of a sampling call (not exported).

    Every layer that handles a chunk (the coupling or energy stack, a term
    bank's table, transform and blocks, the caller's reduction) takes its
    arrays by key with :meth:`take`: the first request carves the array
    from the unused bytes, sized for the first chunk, which is the widest;
    a later request gets the same memory, its leading rows for a shorter
    chunk.  So a call allocates one buffer however many chunks it has, and
    no chunk array is freed and faulted in again.  The buffer is sized once
    by :meth:`allocate` from the per-sample byte counts that also set the
    chunk width; a request beyond it raises, so a count that misses an
    array shows at once.  Freeing the buffer at the end of a call also
    raises glibc's dynamic mmap threshold above every per-chunk allocation
    of the call (numpy's own eigensolver copies among them), so later calls
    of the process take them from the heap instead of fresh mappings.
    """

    _ALIGN = 64  # each array starts on a cache line
    _SLACK = 16 * _ALIGN  # room for the alignment of up to 16 arrays

    def __init__(self):
        self._buffer = None
        self._used = 0
        self._arrays: dict[str, np.ndarray] = {}

    def allocate(self, nbytes: int):
        """Allocate the buffer for arrays of ``nbytes`` in all."""
        if self._buffer is not None:
            raise RuntimeError("workspace already allocated")
        self._buffer = np.empty(nbytes + self._SLACK, dtype=np.uint8)

    def take(self, key: str, shape: tuple, dtype=float, zero: bool = False) -> np.ndarray:
        """The array ``key`` with ``shape``: carved at the first request
        (filled with zeros if ``zero``), later its leading ``shape[0]``
        rows, as written by the last user."""
        array = self._arrays.get(key)
        if array is None:
            if self._buffer is None:
                raise RuntimeError("workspace not allocated")
            base = self._buffer.ctypes.data
            start = -(-(base + self._used) // self._ALIGN) * self._ALIGN - base
            end = start + math.prod(shape) * np.dtype(dtype).itemsize
            if end > len(self._buffer):
                raise RuntimeError(f"workspace array {key!r} exceeds the allocated bytes")
            array = self._arrays[key] = self._buffer[start:end].view(dtype).reshape(shape)
            if zero:
                array.fill(0)
            self._used = end
        elif array.shape[1:] != tuple(shape[1:]) or array.dtype != dtype or shape[0] > len(array):
            raise RuntimeError(f"workspace array {key!r} requested as {shape}, carved as {array.shape}")
        return array[: shape[0]]


def fresh_array(key: str, shape: tuple, dtype=float, zero: bool = False) -> np.ndarray:
    """A new array for a one-off call, with the signature of
    :meth:`Workspace.take` (``key`` is unused)."""
    return np.zeros(shape, dtype) if zero else np.empty(shape, dtype)


def eigh(H) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues ``w`` and orthonormal eigenvector columns
    ``U`` of a Hermitian matrix, as ``np.linalg.eigh`` returns them.

    Raises :class:`InputError` if the input deviates from Hermiticity by
    more than ``1e-9`` relative to its magnitude.
    """
    A = np.asarray(H, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError(f"expected a square matrix, got shape {A.shape}")
    dev = np.abs(A - A.conj().T).max() if A.size else 0.0
    if dev > HERMITICITY_ATOL * max(1.0, np.abs(A).max()):
        raise InputError(f"matrix is not Hermitian (max asymmetry {dev:.3e})")
    return np.linalg.eigh((A + A.conj().T) / 2)


@dataclass(frozen=True)
class RandomStream:
    """Named source of reproducible randomness.

    Streams with distinct ``stream_index`` are statistically independent;
    callers dedicate one stream per Monte Carlo sample.
    """

    base_seed: int
    stream_index: int = 0

    def _key(self) -> np.ndarray:
        return np.array(
            [self.base_seed % (1 << 64), self.stream_index % (1 << 64)],
            dtype=np.uint64,
        )

    def _bit_generator(self):
        return np.random.Philox(key=self._key())

    def _reset(self, bit_generator: np.random.Philox) -> np.random.Philox:
        """Put a Philox generator in the state that ``_bit_generator``
        starts in: this key, counter 0, empty buffer."""
        empty = np.zeros(4, dtype=np.uint64)
        bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": empty, "key": self._key()},
            "buffer": empty,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return bit_generator


# One Philox per thread, reset for each gaussian_stream call: the same
# uniforms as a new Philox(key=...), whose construction also draws OS
# entropy for a seed sequence it never uses and costs about three resets.
_PER_THREAD = threading.local()


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
    if not hasattr(_PER_THREAD, "philox"):
        _PER_THREAD.philox = np.random.Philox()
    gen = np.random.Generator(stream._reset(_PER_THREAD.philox))
    u = gen.random(2 * pairs)
    r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    ang = 2.0 * np.pi * u[1::2]
    z = np.empty(2 * pairs)
    z[0::2] = r * np.cos(ang)
    z[1::2] = r * np.sin(ang)
    return z[:count]


def random_state(stream: RandomStream, dim: int) -> np.ndarray:
    """Haar-distributed unit vector of the given dimension: 2*dim normals
    of the stream as (real, imaginary) pairs, normalized."""
    z = gaussian_stream(stream, 2 * dim)
    v = z[0::2] + 1j * z[1::2]
    return v / np.linalg.norm(v)
