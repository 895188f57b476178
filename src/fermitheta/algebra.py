"""Pauli-string and Majorana-monomial algebra.

Encoding conventions
--------------------

An n-qubit Pauli operator is stored as two n-bit masks plus a quarter phase:

    matrix(P) = i**phase_power * kron_j( X**x_j * Z**z_j )

with bit j of ``x_mask``/``z_mask`` addressing qubit j; bit j of a basis
index is qubit j's state, so qubit 0 varies fastest.  A site with both
bits set contributes
``X @ Z = -i Y``, so the standard Hermitian Pauli with letter Y at s sites
carries ``phase_power = s (mod 4)``.

Anticommutation is the symplectic form: P and Q anticommute iff
``popcount(x_P & z_Q) + popcount(x_Q & z_P)`` is odd.

A Majorana monomial on n modes (n even) is a strictly increasing tuple of
1-based generator indices.  Generators map to qubits by the Jordan-Wigner
convention: generator 2t-1 acts as Z^(t-1) X I..., generator 2t as
Z^(t-1) Y I... on n/2 qubits.  Hermitization multiplies a degree-q monomial
(q even) by ``i**(q/2)`` so that the result squares to the identity.
Majorana indices are 1-based externally and converted at this boundary.

:class:`TermBank` is the term kernel: the one matrix-free representation of
a family's action (term i sends basis state c to
phase_i (-1)^popcount(c & z_i) |c ^ x_i>), kept as the terms' masks and
their x-mask groups, and read by expectations, products A_i v and
Hamiltonian assembly alike.  No library path builds the dense matrix of a
term: :func:`pauli_matrix` and :meth:`OperatorSet.hermitized_matrices`
exist only as independent references for tests and demos.

Even-degree Majorana banks preserve fermion parity and are solved in two
popcount-parity blocks.  Their random-matrix class follows n mod 8: when
n = 2 mod 4, the antiunitary P = M K, with M the Jordan-Wigner image of
g1 g3 ... g_{n-1} and K complex conjugation, swaps the two blocks, and
P g_j P^-1 = (-1)^{n/2-1} g_j sends a Hermitized degree-q term to
(-1)^{q/2} times itself.  A bank whose terms all get the same sign is
``mirrored``: one block gives the whole spectrum (the other block's is
the same, or its negative) and, through M conj(v), every eigenvector.
The full SYK families at n = 10 and 18 are mirrored, those at n = 8 and
12 are not, and neither is a bank mixing q = 2 and q = 4 terms.  Every
bank tries the same M, the one of its own qubit count, and decides from
its masks (:func:`_mirror`), never from (n, q) or the kind of its family:
a parity-preserving custom Pauli set can be mirrored too, while no full
Pauli family has parity blocks.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Iterable, Sequence, Union

import numpy as np

from .kernel import CapacityError, InputError, fresh_array

__all__ = [
    "PauliString",
    "MajoranaMonomial",
    "OperatorSet",
    "pauli_anticommutes",
    "majorana_anticommutes",
    "multiply_paulis",
    "jordan_wigner_majorana",
    "majorana_to_pauli",
    "enumerate_set",
    "family_size",
    "TermBank",
    "term_bank",
]

# the one dense-dimension budget: no term bank or dense reference matrix is
# built above it
MAX_DENSE_DIM = 1 << 12
MAX_ENUMERATION = 10**6
# terms x columns of one TermBank (it has at most as many x-mask groups as terms)
MAX_BANK_ENTRIES = 1 << 26

_PHASES = (1, 1j, -1, -1j)
_SIGNED_PHASES = np.array([p * np.array([1, -1]) for p in _PHASES])  # as pauli_matrix has them


@dataclass(frozen=True)
class PauliString:
    """n-qubit Pauli operator as (x_mask, z_mask, i**phase_power)."""

    n_qubits: int
    x_mask: int
    z_mask: int
    phase_power: int = 0

    def __post_init__(self):
        if self.n_qubits < 1:
            raise InputError("n_qubits must be positive")
        full = (1 << self.n_qubits) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise InputError("mask bits outside qubit range")
        object.__setattr__(self, "phase_power", self.phase_power % 4)

    @property
    def phase(self) -> complex:
        return _PHASES[self.phase_power]

    @property
    def weight(self) -> int:
        return (self.x_mask | self.z_mask).bit_count()

    @property
    def is_hermitian(self) -> bool:
        # (i**p * kron XZ)^dag = i**(-p) (-1)^{|x&z|} kron XZ
        return (self.phase_power + (self.x_mask & self.z_mask).bit_count()) % 2 == 0

    def label(self) -> str:
        letters = []
        for j in range(self.n_qubits):
            xb = (self.x_mask >> j) & 1
            zb = (self.z_mask >> j) & 1
            letters.append("IXZY"[xb + 2 * zb])
        return "".join(letters)

    def label_phase(self) -> complex:
        """Scalar g such that matrix = g * kron of the label's I/X/Y/Z."""
        s = (self.x_mask & self.z_mask).bit_count()
        return _PHASES[(self.phase_power - s) % 4]

    @classmethod
    def from_label(cls, label: str, phase: complex = 1) -> "PauliString":
        x = z = 0
        for j, ch in enumerate(label):
            if ch == "X":
                x |= 1 << j
            elif ch == "Z":
                z |= 1 << j
            elif ch == "Y":
                x |= 1 << j
                z |= 1 << j
            elif ch != "I":
                raise InputError(f"invalid Pauli letter {ch!r}")
        try:
            p = _PHASES.index(complex(phase))
        except ValueError:
            raise InputError("phase must be a power of i") from None
        s = (x & z).bit_count()
        return cls(len(label), x, z, (p + s) % 4)

    def __str__(self):
        g = self.label_phase()
        pre = {1: "", 1j: "i*", -1: "-", -1j: "-i*"}[complex(g)]
        return pre + self.label()


@dataclass(frozen=True)
class MajoranaMonomial:
    """Product of distinct Majorana generators, indices strictly increasing."""

    n_modes: int
    support: tuple[int, ...]

    def __post_init__(self):
        if self.n_modes < 2 or self.n_modes % 2 != 0:
            raise InputError("n_modes must be a positive even integer")
        s = tuple(int(j) for j in self.support)
        if any(b <= a for a, b in zip(s, s[1:])):
            raise InputError("support indices must be strictly increasing")
        if s and (s[0] < 1 or s[-1] > self.n_modes):
            raise InputError("support index out of range")
        object.__setattr__(self, "support", s)

    @property
    def degree(self) -> int:
        return len(self.support)


Operator = Union[PauliString, MajoranaMonomial]


def pauli_anticommutes(P: PauliString, Q: PauliString) -> bool:
    """True iff P and Q anticommute (symplectic form is odd)."""
    if P.n_qubits != Q.n_qubits:
        raise InputError("Pauli strings act on different qubit counts")
    return ((P.x_mask & Q.z_mask).bit_count() + (Q.x_mask & P.z_mask).bit_count()) % 2 == 1


def majorana_anticommutes(S: MajoranaMonomial, T: MajoranaMonomial) -> bool:
    """True iff the monomials anticommute: q_S*q_T - |S & T| is odd."""
    if S.n_modes != T.n_modes:
        raise InputError("monomials act on different mode counts")
    shared = len(set(S.support) & set(T.support))
    return (S.degree * T.degree - shared) % 2 == 1


def multiply_paulis(P: PauliString, Q: PauliString) -> PauliString:
    """Product P @ Q with exact quarter-phase accumulation."""
    if P.n_qubits != Q.n_qubits:
        raise InputError("Pauli strings act on different qubit counts")
    # (XZ)(XZ) reorder: Z^{z1} X^{x2} = (-1)^{z1&x2} X^{x2} Z^{z1}
    sign = 2 * (P.z_mask & Q.x_mask).bit_count()
    return PauliString(
        P.n_qubits,
        P.x_mask ^ Q.x_mask,
        P.z_mask ^ Q.z_mask,
        (P.phase_power + Q.phase_power + sign) % 4,
    )


def jordan_wigner_majorana(j: int, n: int) -> PauliString:
    """Image of generator j (1-based) on n/2 qubits under Jordan-Wigner."""
    if n < 2 or n % 2 != 0:
        raise InputError("mode count must be a positive even integer")
    if not 1 <= j <= n:
        raise InputError(f"mode index {j} out of range 1..{n}")
    t = (j + 1) // 2  # 1-based target qubit
    z = (1 << (t - 1)) - 1  # Z on qubits before the target
    x = 1 << (t - 1)
    if j % 2 == 1:
        return PauliString(n // 2, x, z)
    # even generator: Y at the target site, encoded as XZ with phase i
    return PauliString(n // 2, x, z | x, 1)


def majorana_to_pauli(op: MajoranaMonomial, hermitize: bool = True) -> PauliString:
    """Jordan-Wigner image of a monomial, optionally Hermitized by i**(q/2)."""
    q = op.degree
    if hermitize and q % 2 != 0:
        raise InputError("hermitization requires even degree")
    nq = op.n_modes // 2
    out = PauliString(nq, 0, 0, 0)
    for j in op.support:
        out = multiply_paulis(out, jordan_wigner_majorana(j, op.n_modes))
    if hermitize:
        out = PauliString(out.n_qubits, out.x_mask, out.z_mask, out.phase_power + q // 2)
    return out


def _popcount_array(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.uint64)
    m1 = np.uint64(0x5555555555555555)
    m2 = np.uint64(0x3333333333333333)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    v = v - ((v >> np.uint64(1)) & m1)
    v = (v & m2) + ((v >> np.uint64(2)) & m2)
    v = (v + (v >> np.uint64(4))) & m4
    return ((v * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


def pauli_matrix(P: PauliString) -> np.ndarray:
    """Dense matrix of a Pauli string (monomial structure, O(dim) nonzeros)."""
    dim = 1 << P.n_qubits
    cols = np.arange(dim)
    rows = cols ^ P.x_mask
    signs = 1 - 2 * (_popcount_array(cols & P.z_mask) % 2)
    M = np.zeros((dim, dim), dtype=complex)
    M[rows, cols] = P.phase * signs
    return M


def _check_dim(qubits: int):
    """Refuse 2^qubits above ``MAX_DENSE_DIM``; from 2^64 on, named as a power, never formed."""
    if qubits >= 64 or 1 << qubits > MAX_DENSE_DIM:
        dim = f"2^{qubits}" if qubits >= 64 else 1 << qubits
        raise CapacityError(f"dense dimension {dim} exceeds the requested cap {MAX_DENSE_DIM}")


def _hermitian_pauli(op: Operator) -> PauliString:
    """Hermitian Pauli image of an operator: Pauli strings as stored,
    Majorana monomials through Jordan-Wigner with the Hermitizing phase.
    Checked against the dense cap and for Hermiticity before anything of
    dimension 2^n is allocated."""
    P = majorana_to_pauli(op) if isinstance(op, MajoranaMonomial) else op
    _check_dim(P.n_qubits)
    if not P.is_hermitian:
        raise InputError("operator materializes to a non-Hermitian matrix")
    return P


@dataclass(frozen=True)
class OperatorSet:
    """Homogeneous collection of Pauli strings or Majorana monomials."""

    kind: str
    n: int
    locality: int
    members: tuple[Operator, ...]
    provenance: str = "custom"

    def __post_init__(self):
        if self.kind not in ("pauli", "majorana"):
            raise InputError(f"unknown operator kind {self.kind!r}")
        object.__setattr__(self, "members", tuple(self.members))
        for m in self.members:
            if self.kind == "pauli":
                if not isinstance(m, PauliString) or m.n_qubits != self.n:
                    raise InputError("inhomogeneous Pauli set")
            else:
                if not isinstance(m, MajoranaMonomial) or m.n_modes != self.n:
                    raise InputError("inhomogeneous Majorana set")
        if len(set(self.members)) != len(self.members):
            raise InputError("duplicate members in operator set")

    def __len__(self):
        return len(self.members)

    @property
    def dim(self) -> int:
        return 1 << self._qubits

    @property
    def _qubits(self) -> int:
        return self.n if self.kind == "pauli" else self.n // 2

    def hermitized_matrices(self) -> list[np.ndarray]:
        """Dense matrices of the Hermitized members (a reference for
        :class:`TermBank`, which never builds them)."""
        return [pauli_matrix(_hermitian_pauli(m)) for m in self.members]

    def _json_members(self):
        """The members as JSON-ready values, one at a time: a label and
        phase per Pauli string, a support list per Majorana monomial."""
        for m in self.members:
            if self.kind == "pauli":
                yield {"label": m.label(), "phase": _phase_str(m.label_phase())}
            else:
                yield list(m.support)

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "n": self.n,
                "locality": self.locality,
                "provenance": self.provenance,
                "members": list(self._json_members()),
            }
        )


def _phase_str(g: complex) -> str:
    return {1: "+1", 1j: "+i", -1: "-1", -1j: "-i"}[complex(g)]


def _check_even_family(n: int, q: int):
    """Refuse (n, q) unless it names an even-degree Majorana family: n and
    q both even, and q in 1..n."""
    if n % 2 != 0 or q % 2 != 0:
        raise InputError("n and q must both be even")
    if not 0 < q <= n:
        raise InputError("q must lie in 1..n")


def _check_family(kind: str, n: int, locality: int):
    if kind not in ("majorana", "pauli"):
        raise InputError(f"unknown operator kind {kind!r}")
    if kind == "majorana" and n % 2 != 0:
        raise InputError("majorana enumeration requires even mode count")
    if not 0 < locality <= n:
        raise InputError("locality must lie in 1..n")


def _family_count(kind: str, n: int, locality: int) -> int:
    return comb(n, locality) * (1 if kind == "majorana" else 3**locality)


def _check_enumeration(count: int) -> int:
    if count > MAX_ENUMERATION:
        raise CapacityError(f"enumeration of {count} members exceeds cap")
    return count


def family_size(kind: str, n: int, locality: int) -> int:
    """Member count of S^n_q (C(n, q)) or P^n_k (C(n, k) * 3^k) in closed form.

    Raises what :func:`enumerate_set` raises for the same arguments (bad
    input, or more than ``MAX_ENUMERATION`` members) without enumerating.
    """
    _check_family(kind, n, locality)
    return _check_enumeration(_family_count(kind, n, locality))


def enumerate_set(kind: str, n: int, locality: int) -> OperatorSet:
    """Complete lexicographic enumeration of S^n_q or P^n_k.

    Majorana: all C(n, q) degree-q monomials.  Pauli: all C(n, k)*3^k
    exactly-weight-k strings; sites ordered lexicographically and letters
    cycling X, Y, Z per site.
    """
    family_size(kind, n, locality)
    if kind == "majorana":
        members = tuple(
            MajoranaMonomial(n, s)
            for s in itertools.combinations(range(1, n + 1), locality)
        )
        return OperatorSet("majorana", n, locality, members, provenance="enumerated")
    single = ((1, 0, 0), (1, 1, 1), (0, 1, 0))  # X, Y, Z as (x, z, phase)
    members = []
    for sites in itertools.combinations(range(n), locality):
        for letters in itertools.product(single, repeat=locality):
            x = z = p = 0
            for site, (xb, zb, pb) in zip(sites, letters):
                x |= xb << site
                z |= zb << site
                p += pb
            members.append(PauliString(n, x, z, p % 4))
    return OperatorSet("pauli", n, locality, tuple(members), provenance="enumerated")


@lru_cache(maxsize=16)
def _sylvester(bits: int) -> np.ndarray:
    """The 2^bits x 2^bits Sylvester-Hadamard matrix, (-1)^popcount(r & c)."""
    idx = np.arange(1 << bits)
    h = 1.0 - 2.0 * (_popcount_array(idx[:, None] & idx) & 1)
    h.setflags(write=False)
    return h


def _walsh_hadamard(table: np.ndarray, out=None, step=None) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis.

    The axis has length 2^bits = d_hi * d_lo; splitting index c into
    (c_hi, c_lo) makes the transform the two Sylvester-matrix products
    H_hi T H_lo, batched over any leading axes.  ``out`` and ``step``,
    contiguous arrays of the table's shape, receive the transform and the
    first product T H_lo when given; the arithmetic is the same either way.
    """
    shape = table.shape
    bits = shape[-1].bit_length() - 1
    hi = bits // 2
    split = (*shape[:-1], 1 << hi, shape[-1] >> hi)
    step = np.matmul(table.reshape(split), _sylvester(bits - hi),
                     out=None if step is None else step.reshape(split))
    return np.matmul(_sylvester(hi), step,
                     out=None if out is None else out.reshape(split)).reshape(shape)


def _majorana_masks(ops: OperatorSet) -> np.ndarray:
    """(3, m) x-masks, z-masks and phase powers of the Hermitized
    Jordan-Wigner images of a set's monomials, as :func:`majorana_to_pauli`
    gives them one at a time.

    Generator j acts on qubit t = (j - 1) // 2, with X (odd j) or Y (even
    j) there and Z below.  In a strictly increasing product no earlier
    generator has a Z on a later one's X or Y site, so no reordering sign
    arises: bit t of the x-mask is the parity of |S & {2t+1, 2t+2}|, bit t
    of the z-mask the parity of |S & [2t+2, n]|, and the phase power is
    the number of even generators plus q/2.
    """
    degrees = np.array([op.degree for op in ops.members], dtype=np.int64)
    if np.any(degrees % 2):
        raise InputError("hermitization requires even degree")
    occupied = np.zeros((len(degrees), ops.n), dtype=np.int64)
    generators = itertools.chain.from_iterable(op.support for op in ops.members)
    occupied[np.repeat(np.arange(len(degrees)), degrees),
             np.fromiter(generators, dtype=np.int64, count=int(degrees.sum())) - 1] = 1
    above = np.cumsum(occupied[:, ::-1], axis=1)[:, ::-1]  # generators >= j, at column j - 1
    place = np.int64(1) << np.arange(ops.n // 2, dtype=np.int64)
    x = ((occupied[:, 0::2] + occupied[:, 1::2]) & 1) @ place
    z = (above[:, 1::2] & 1) @ place
    power = (occupied[:, 1::2].sum(axis=1) + degrees // 2) % 4
    return np.stack([x, z, power])


def _pauli_masks(paulis: Iterable[PauliString]) -> np.ndarray:
    """(3, m) int64 x-masks, z-masks and phase powers of Pauli strings, as
    :class:`TermBank` takes them."""
    return np.array(
        [(p.x_mask, p.z_mask, p.phase_power) for p in paulis], dtype=np.int64
    ).reshape(-1, 3).T


def _particle_hole_masks(qubits: int) -> tuple[int, int]:
    """(x, z) masks of the Jordan-Wigner image of g1 g3 ... g_{n-1} on
    n = 2 ``qubits`` modes, its phase left out.

    Odd generator 2s+1 is X on qubit s and Z on every qubit below s, so the
    product has X on every qubit, and Z on qubit t iff the number of
    generators with s > t, n/2 - 1 - t, is odd.
    """
    z = sum(1 << t for t in range(qubits) if (qubits - 1 - t) % 2)
    return (1 << qubits) - 1, z


def _mirror(x: np.ndarray, z: np.ndarray, power: np.ndarray, masks: tuple[int, int]) -> int:
    """``mirror`` of a parity-preserving bank for the candidate M with
    (x, z) ``masks``: (-1)^s if P = M K swaps the parity sectors (x_M has
    odd popcount) and sends every term A_i to the same (-1)^s A_i, else 0.

    A Pauli string is real up to its phase, so K A_i K = (-1)^{power_i} A_i,
    and M A_i M^dag = (-1)^{<M, A_i>} A_i with the symplectic form; the
    check runs on the masks of every term.
    """
    if len(x) == 0:
        return 0
    mx, mz = masks
    if mx.bit_count() % 2 == 0:
        return 0
    s = (power + _popcount_array(x & mz) + _popcount_array(z & mx)) & 1
    if np.any(s != s[0]):
        return 0
    return 1 - 2 * int(s[0])


def _check_bank_entries(terms: int, dim: int):
    """Refuse a bank of terms x dim table entries above ``MAX_BANK_ENTRIES``."""
    if terms * dim > MAX_BANK_ENTRIES:
        raise CapacityError(
            f"{terms} terms x {dim} columns exceed the term-bank budget of {MAX_BANK_ENTRIES}"
        )


def _admit_bank(kind: str, n: int, locality: int) -> int:
    """Term count of the bank of the full family (kind, n, locality),
    refused in closed form before any member exists: first the input rules
    of :func:`family_size` and an odd Majorana degree, then the caps on dense
    dimension (so only a family within it is counted), enumeration and entries."""
    _check_family(kind, n, locality)
    if kind == "majorana" and locality % 2:
        raise InputError("hermitization requires even degree")
    qubits = OperatorSet(kind, n, locality, ())._qubits
    _check_dim(qubits)
    m = _check_enumeration(_family_count(kind, n, locality))
    _check_bank_entries(m, 1 << qubits)
    return m


class TermBank:
    """Matrix-free tables of a family of Pauli terms.

    The bank keeps the terms' masks (x, z, phase power) and their grouping
    by x-mask; :meth:`apply` derives signed permutations from the masks.
    Samples H = m^{-1/2} sum_i g_i A_i are built from the groups: each
    coupling goes to (part, group, z-mask) of a real table, part 1 for an
    imaginary phase and 0 for a real one; the table is Walsh-Hadamard
    transformed along its z-mask axis, and each group's row of
    coefficients is written to H[c ^ x, c].  Distinct x-masks never share
    an entry.  :meth:`expectations` is the adjoint transform.  ``parity``
    is true when every x-mask has even popcount, so that H maps each
    popcount-parity sector of the basis into itself.  ``sector_rows[s, r]``
    is the basis state of entry r of a sector-s vector (one sector holding
    every state when parity is false).  :meth:`eigvalsh` and
    :meth:`sector_eigh`, the bank's one eigenvector solver, take one
    coupling row or a stack of them; each row of a stack gets the same
    arithmetic as a row alone, and ``sample_bytes`` is the working set that
    one row adds to the stack of :meth:`eigvalsh`.

    ``mirror`` is +1 or -1 when the antiunitary P = M K (K complex
    conjugation in the computational basis) swaps the two parity sectors
    and sends every term to the same sign s times itself: then
    P H P^-1 = s H for real couplings, and P maps each sector-0
    eigenvector of eigenvalue w to a sector-1 eigenvector of eigenvalue
    s w, so only the sector-0 blocks are solved.  It is 0 otherwise.
    Every bank tries the one candidate of its qubit count, M the
    Jordan-Wigner image of g1 g3 ... g_{n-1} (:func:`_particle_hole_masks`),
    whatever family its terms come from.
    """

    def __init__(self, masks: np.ndarray, dim: int):
        """``masks``: the (3, m) int64 x-masks, z-masks and phase powers of
        the terms (:func:`_pauli_masks` of a list of :class:`PauliString`);
        ``dim``: 2 to the qubit count."""
        x, z, power = self._masks = masks
        m = len(x)
        cols = np.arange(dim)
        odd = (_popcount_array(cols) & 1).astype(np.int8)
        self.dim = dim
        xs, group = np.unique(x, return_inverse=True)
        self._slot = ((power & 1) * len(xs) + group) * dim + z
        self._sign = np.where(power < 2, 1.0, -1.0)  # sign of i**power, which is +-1 or +-i
        self._weight = self._sign / math.sqrt(m)
        self._table_shape = (2 * len(xs), dim)
        self._targets = cols ^ xs[:, None]

        self.parity = bool(np.all(_popcount_array(xs) & 1 == 0))
        candidate = _particle_hole_masks(dim.bit_length() - 1)
        self.mirror = _mirror(x, z, power, candidate) if self.parity else 0
        sectors = 2 if self.parity else 1
        sector = odd.astype(np.int64) if self.parity else np.zeros(dim, dtype=np.int64)
        side = dim // sectors
        members = np.argsort(sector, kind="stable").reshape(sectors, side)
        pos = np.empty(dim, dtype=np.int64)  # index of c within its sector
        pos[members] = np.arange(side)
        solved = 1 if self.mirror else sectors
        self._block_shape = (solved, side, side)
        self._filled = members[0] if self.mirror else slice(None)  # columns of the solved blocks
        self._to_blocks = (sector * side * side + pos[self._targets] * side + pos)[:, self._filled]
        # a mirrored bank's sector-1 vectors are M conj(v) with
        # M |c> = +-|c ^ x_M> (the global phase of M dropped)
        self.sector_rows = members
        if self.mirror:
            mx, mz = candidate
            self.sector_rows = np.stack([members[0], members[0] ^ mx])
            self._mirror_signs = 1 - 2 * odd[members[0] & mz]
        # a family such as (P, -P) puts two terms in one slot, whose
        # couplings are summed; every enumerated family has distinct slots
        ordered = np.sort(self._slot)
        self._distinct = bool(np.all(ordered[1:] != ordered[:-1]))
        # per coupling row, as _coefficients and _blocks take them: the
        # weights (8 bytes per term), the table, the transform and its first
        # step (8 bytes per table entry each; the step's bytes then hold the
        # complex coefficients, and the transform's a mirrored bank's
        # sector-0 columns), and the solved complex blocks
        self.sample_bytes = 8 * m + 24 * math.prod(self._table_shape) + 16 * math.prod(self._block_shape)

    @classmethod
    def from_set(cls, ops: OperatorSet) -> "TermBank":
        """Bank of the Hermitized members of an operator set.

        Majorana members go through Jordan-Wigner with the Hermitizing
        phase, all at once (:func:`_majorana_masks`); Pauli members are
        used as stored (:func:`_pauli_masks`).  Either kind tries the
        particle-hole candidate of its qubit count for ``mirror``; no full
        Pauli family has parity blocks, so only a custom Pauli set can be
        mirrored.  Raises :class:`CapacityError` above ``MAX_DENSE_DIM`` or
        above ``MAX_BANK_ENTRIES`` members x columns, and
        :class:`InputError` for an odd-degree or non-Hermitian member,
        before any table is built.
        """
        _check_bank_entries(len(ops), ops.dim)
        if ops.kind == "majorana":
            masks = _majorana_masks(ops)
            _check_dim(ops._qubits)
        else:
            masks = _pauli_masks(map(_hermitian_pauli, ops.members))
        return cls(masks, ops.dim)

    def __len__(self):
        return self._masks.shape[1]

    def _coefficients(self, g: np.ndarray, take) -> np.ndarray:
        """(rows, groups, dim) coefficients of the coupling rows g (rows, m),
        H[c ^ x_k, c] = out[r, k, c], in arrays from ``take``
        (:meth:`~fermitheta.kernel.Workspace.take`, or
        :func:`~fermitheta.kernel.fresh_array` for a one-off call).

        Each weighted coupling is written to its slot of a table that is
        zero elsewhere and stays so, since every row writes the same slots
        (the value 0 + w of a bincount).  The Walsh-Hadamard transform of
        the table goes to ``transform`` through ``step``, and the complex
        coefficients, real part + 1j * imaginary part as two in-place
        operations, to the bytes of ``step``.
        """
        rows, (parts, dim) = len(g), self._table_shape
        table = take("table", (rows, parts * dim), zero=True)
        weights = np.multiply(g, self._weight, out=take("weights", g.shape))
        if self._distinct:
            table[:, self._slot] = weights
        else:
            table[:, self._slot] = 0.0
            np.add.at(table, (slice(None), self._slot), weights)
        step = take("step", (rows, parts, dim))
        transform = _walsh_hadamard(table.reshape(rows, parts, dim),
                                    take("transform", (rows, parts, dim)), step)
        halves = transform.reshape(rows, 2, parts // 2, dim)
        real, imaginary = halves[:, 0], halves[:, 1]
        coefficients = step.reshape(rows, -1).view(complex).reshape(rows, parts // 2, dim)
        np.multiply(imaginary, 1j, out=coefficients)
        return np.add(real, coefficients, out=coefficients)

    def assemble(self, g: np.ndarray) -> np.ndarray:
        """Dense (1/sqrt(m)) sum_i g_i A_i."""
        H = np.zeros((self.dim, self.dim), dtype=complex)
        H[self._targets, np.arange(self.dim)] = self._coefficients(g.reshape(1, -1), fresh_array)[0]
        return H

    def _blocks(self, g: np.ndarray, take) -> np.ndarray:
        """(rows x solved, side, side) stack of the solved blocks of the
        coupling rows g (rows, m), in arrays from ``take`` (see
        :meth:`_coefficients`).  Entries outside ``_to_blocks`` are zero and
        stay so; a mirrored bank first gathers the sector-0 columns of the
        coefficients into the bytes of the spent transform."""
        rows = len(g)
        coefficients = self._coefficients(g, take)
        blocks = take("blocks", (rows, *self._block_shape), complex, zero=True)
        if self.mirror:
            spare = take("transform", (rows, *self._table_shape)).reshape(-1).view(complex)
            shape = (*coefficients.shape[:-1], len(self._filled))
            coefficients = np.take(coefficients, self._filled, axis=-1, mode="clip",
                                   out=spare[: math.prod(shape)].reshape(shape))
        blocks.reshape(rows, -1)[:, self._to_blocks] = coefficients
        return blocks.reshape(-1, *self._block_shape[1:])

    def _mirrored(self, w: np.ndarray) -> np.ndarray:
        """The solved eigenvalues (..., solved x side), followed by their
        mirror images when the bank is mirrored."""
        return np.concatenate([w, self.mirror * w], axis=-1) if self.mirror else w

    def eigvalsh(self, g: np.ndarray) -> np.ndarray:
        """Ascending spectrum of (1/sqrt(m)) sum_i g_i A_i for each coupling
        row of g (..., m), from one batched eigensolve over the solved
        parity blocks of every row (one block per row when parity is false,
        the sector-0 block alone when the bank is mirrored)."""
        lead = g.shape[:-1]
        return self._eigvalsh(g.reshape(-1, len(self)), fresh_array).reshape(*lead, -1)

    def _eigvalsh(self, g: np.ndarray, take) -> np.ndarray:
        """:meth:`eigvalsh` of the coupling rows g (rows, m), its arrays
        from ``take`` (see :meth:`_coefficients`); the spectra are a new
        array, sorted in place."""
        w = self._mirrored(np.linalg.eigvalsh(self._blocks(g, take)).reshape(len(g), -1))
        w.sort(axis=-1)
        return w

    def sector_eigh(self, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (..., sectors, side) and orthonormal eigenvectors
        (..., sectors, side, side), as columns, of (1/sqrt(m)) sum_i g_i A_i
        in each sector, for each coupling row of g (..., m): entry r of a
        sector-s vector is the amplitude of basis state ``sector_rows[s, r]``.
        One batched eigensolve over the solved blocks, whose eigenvalues
        ascend.  In a mirrored bank the sector-1 pairs are the mirror images
        of the sector-0 ones: eigenvalues times ``mirror`` (descending when
        it is -1), eigenvectors their signed conjugates."""
        lead, side = g.shape[:-1], self.sector_rows.shape[1]
        w, v = np.linalg.eigh(self._blocks(g.reshape(-1, len(self)), fresh_array))
        w = w.reshape(*lead, -1, side)
        v = v.reshape(*lead, -1, side, side)
        if self.mirror:
            w = np.concatenate([w, self.mirror * w], axis=-2)
            v = np.concatenate([v, self._mirror_signs[:, None] * v.conj()], axis=-3)
        return w, v

    def _traces(self, Y: np.ndarray) -> np.ndarray:
        """Re Tr(A_i rho) from Y[k, c] = rho[c, c ^ x_k], the adjoint of :meth:`_coefficients`:
        Tr(A_i rho) is i**power_i times the Walsh-Hadamard transform of Y[k_i] at z_i."""
        table = _walsh_hadamard(np.concatenate([Y.real, -Y.imag]))
        return self._sign * table.reshape(-1)[self._slot]

    def expectations(self, psi: np.ndarray) -> np.ndarray:
        """<psi|A_i|psi> for every term (real for Hermitian terms)."""
        return self._traces(psi.conj()[self._targets] * psi)

    def _signed_permutation(self, terms=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """(rows, coef) of the selected terms: (A_i v)[r] = coef[i, r] v[rows[i, r]] with
        rows[i, r] = r ^ x_i and coef[i, r] = i**power_i (-1)^popcount(rows[i, r] & z_i)."""
        x, z, power = self._masks[:, terms, None]
        rows = np.arange(self.dim) ^ x
        return rows, _SIGNED_PHASES[power, _popcount_array(rows & z) & 1]

    def apply(self, v: np.ndarray, terms=slice(None)) -> np.ndarray:
        """A_i v for the selected terms: an (m, dim, ...) stack for the default
        slice of all terms, one (dim, ...) array for an integer index.  ``v``
        is (dim, ...): a vector, or vectors along trailing column axes."""
        rows, coef = self._signed_permutation(terms)
        return coef.reshape(coef.shape + (1,) * (v.ndim - 1)) * v[rows]


@lru_cache(maxsize=16)
def term_bank(kind: str, n: int, locality: int) -> TermBank:
    """Cached bank of the enumerated family (kind, n, locality), refused
    (:func:`_admit_bank`) before it is enumerated."""
    _admit_bank(kind, n, locality)
    return TermBank.from_set(enumerate_set(kind, n, locality))
