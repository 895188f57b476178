"""Checked Hermitian eigensolver, error types, reproducible Gaussian
sampling and the chunk workspace of the sampling calls.

:func:`eigh` is a Hermiticity-checked wrapper of ``np.linalg.eigh``
that no library module calls; it stays exported as the dense reference
solver of the tests and the name the benchmark tracer wraps.  Term banks
solve their own parity blocks (``TermBank.eigvalsh`` for disorder spectra,
``TermBank.sector_eigh`` for the see-saw and Gibbs states), and other
matrices that are Hermitian by construction (the theta LP's eigenspaces,
Johnson adjacencies) go to numpy's solvers directly.

Randomness is counter-based: a :class:`RandomStream` is an immutable
(base_seed, stream_index) pair fed to a Philox-4x64 generator, and normal
deviates are produced by the Box-Muller transform.  Identical stream
parameters reproduce identical outputs bit-for-bit within one build.  The
one Box-Muller of the library is the chunk draw ``_gaussian_rows``, which
fills one row per stream of a chunk with one transform over the whole
chunk: every coupling of every disorder sample comes from it, in chunks
of consecutive streams, and :func:`gaussian_stream` is its one-row call.
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

    def _bit_generator(self):
        key = [self.base_seed % (1 << 64), self.stream_index % (1 << 64)]
        return np.random.Philox(key=np.array(key, dtype=np.uint64))


# One Philox per thread, reset for each stream of a chunk draw: assigning a
# state with the stream's key, counter 0 and an empty buffer gives the
# uniforms of a new Philox(key=...), whose construction also draws OS
# entropy for a seed sequence it never uses and costs several resets.
_PER_THREAD = threading.local()
# 2 pi / 2^53: an angle is the raw 53-bit integer k times this, which is
# (2 pi) (k / 2^53) exactly as rounded, since scaling by 2^-53 is exact
_TWO_PI_ULP = 2.0 * np.pi * 2.0**-53


def _gaussian_rows_bytes(count: int) -> int:
    """Bytes of the arrays that :func:`_gaussian_rows` takes per row of
    ``count`` normals: the raw integers (16 per pair) and the radius,
    angle and cosine or sine (8 per pair each)."""
    return 40 * ((count + 1) // 2)


def _gaussian_rows(seed: int, streams, out: np.ndarray, take=fresh_array) -> np.ndarray:
    """Row k of ``out`` (b, count) set to the first ``count`` normals of
    stream (seed, streams[k]), as :func:`gaussian_stream` defines them; the
    arrays of the draw come from ``take`` (see :meth:`Workspace.take`).

    Each stream writes its 2 ceil(count / 2) raw Philox outputs into its
    row of one integer array; one Box-Muller transform then turns the
    whole array into normals.  A uniform is (raw >> 11) 2^-53, as
    ``Generator.random`` computes it, and pair (u0, u1) gives
    r cos(2 pi u1) and r sin(2 pi u1) with r = sqrt(-2 log1p(-u0)), each
    element by the arithmetic it gets alone.  Returns ``out``.
    """
    b, count = out.shape
    pairs = (count + 1) // 2
    raw = take("raw", (b, 2 * pairs), np.uint64)
    if not hasattr(_PER_THREAD, "philox"):
        _PER_THREAD.philox = np.random.Philox()
    philox = _PER_THREAD.philox
    key = np.array([seed % (1 << 64), 0], dtype=np.uint64)
    empty = np.zeros(4, dtype=np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": empty, "key": key},
             "buffer": empty, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for k, i in enumerate(streams):
        key[1] = i % (1 << 64)  # the setter copies the key, so one dict serves every stream
        philox.state = state
        raw[k] = philox.random_raw(2 * pairs)
    np.right_shift(raw, 11, out=raw)
    radius = np.multiply(raw[:, 0::2], -(2.0**-53), out=take("radius", (b, pairs)))  # -u0
    np.log1p(radius, out=radius)
    np.multiply(radius, -2.0, out=radius)
    np.sqrt(radius, out=radius)
    angle = np.multiply(raw[:, 1::2], _TWO_PI_ULP, out=take("angle", (b, pairs)))
    trig = np.cos(angle, out=take("trig", (b, pairs)))
    np.multiply(radius, trig, out=out[:, 0::2])
    np.sin(angle, out=trig)
    half = count // 2
    np.multiply(radius[:, :half], trig[:, :half], out=out[:, 1::2])
    return out


def gaussian_stream(stream: RandomStream, count: int) -> np.ndarray:
    """``count`` standard normal deviates from the given stream.

    Uniforms come from the Philox counter generator; the Box-Muller
    transform turns consecutive pairs into normals.  The output is a
    deterministic function of (base_seed, stream_index, count prefix):
    the one-row call of the chunk draw ``_gaussian_rows``.
    """
    if count < 0:
        raise InputError("count must be nonnegative")
    out = np.empty((1, count))
    return _gaussian_rows(stream.base_seed, (stream.stream_index,), out)[0]


def random_state(stream: RandomStream, dim: int) -> np.ndarray:
    """Haar-distributed unit vector of the given dimension: 2*dim normals
    of the stream as (real, imaginary) pairs, normalized."""
    z = gaussian_stream(stream, 2 * dim)
    v = z[0::2] + 1j * z[1::2]
    return v / np.linalg.norm(v)
