"""Commutation graphs and the structured operator families built on them.

A commutation graph has one vertex per operator and an edge between every
anticommuting pair.  Every pairwise check (the graph itself, the commuting
and anticommuting family checks) goes through one kernel: the parity of a
row-blocked BLAS product of 0/1 bit matrices, the symplectic form for
Paulis and the support overlaps for Majorana monomials.  Adjacency is
stored as one Python-int bitset per vertex, which keeps pairwise queries
cheap for sets up to the 10^4-vertex cap; the JSON and CSV exports are
streamed, one piece per bitset row, so that the program never holds their
whole text.  The JSON lists are made a block of rows at a time: the block's
bitsets are unpacked at once, and each list is cut from the gathers of
fixed-width ``"v, "`` token tables, one per digit count of v.  The
adjacency matrix unpacks the bitsets into one 0/1 matrix.

Eigenstates of commuting families are found by projecting a seeded random
vector with (psi + s B psi) / 2 term by term, where B psi comes from the
family's matrix-free :class:`~fermitheta.algebra.TermBank`.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from math import comb

import numpy as np

from .algebra import MajoranaMonomial, OperatorSet, PauliString, TermBank, _check_family
from .kernel import CapacityError, InputError, RandomStream, random_state

__all__ = [
    "CommutationGraph",
    "commutation_graph",
    "commuting_majorana_family",
    "extended_hamming_family",
    "best_commuting_family",
    "ternary_tree_paulis",
    "stabilized_state",
    "joint_eigenstate",
    "DegeneracyError",
]

MAX_GRAPH_VERTICES = 10**4
# labels per piece of the JSON export: about 2.5 KB of text, under a row's
# size, where one json.dumps per label took twice the time of the whole head
_LABELS_PER_PIECE = 64
# bytes of unpacked bits per block of the JSON adjacency, m bytes a row; the
# block's gathered tokens and their text take about 7x this.  At pauli (8,3),
# 1512 vertices, the adjacency text took (min of 7, 1 BLAS thread; tracemalloc
# peak): 1 row 64 ms, 59 KiB; 4 rows 25 ms, 59 KiB; 8 rows 18 ms, 94 KiB;
# 16 rows 14 ms, 173 KiB; 32 rows 13 ms, 331 KiB; 64 rows 12 ms, 648 KiB
_JSON_BLOCK_BYTES = 24 << 10


def _check_graph_vertices(m: int):
    """Refuse a commutation graph of more than ``MAX_GRAPH_VERTICES``."""
    if m > MAX_GRAPH_VERTICES:
        raise CapacityError(f"{m} vertices exceed the graph cap {MAX_GRAPH_VERTICES}")


class DegeneracyError(RuntimeError):
    """Projector construction annihilated every trial vector."""


@dataclass(frozen=True)
class CommutationGraph:
    """Anticommutation adjacency over an operator set."""

    operators: OperatorSet
    adjacency: tuple[int, ...]  # per-vertex bitsets

    def __len__(self):
        return len(self.adjacency)

    def degrees(self) -> list[int]:
        return [b.bit_count() for b in self.adjacency]

    def adjacency_matrix(self) -> np.ndarray:
        """The (m, m) 0/1 float adjacency, unpacked from the bitsets."""
        return _unpack_masks(self.adjacency, len(self), float)

    def to_json(self) -> str:
        """The graph as ``json.dumps`` writes its vertices, kind, labels
        and adjacency lists: the pieces of :meth:`_json_pieces`, joined."""
        return "".join(self._json_pieces())

    def to_edge_csv(self) -> str:
        """The edges u < v as ``csv.writer`` writes them, one ``u,v`` line
        each under a ``u,v`` header: the pieces of :meth:`_csv_pieces`,
        joined."""
        return "".join(self._csv_pieces())

    def _json_pieces(self):
        """The text of :meth:`to_json` in pieces: the head (vertices, kind),
        the labels ``_LABELS_PER_PIECE`` at a time, one ``[a, b, ...]``
        adjacency list per vertex, then ``]}``.

        The lists are made a block of rows at a time: the block's bitsets
        are unpacked into one boolean matrix of at most
        ``_JSON_BLOCK_BYTES``, and each digit class of
        :func:`_json_token_tables` gives one boolean-mask gather of its
        ``"v, "`` tokens under the block's columns of that class.  A row's
        list is then its slice of each class's text, joined, less the last
        ``", "``, and is yielded as its own piece.  So no m x m matrix,
        index array, Python int or str per entry, list of all labels or
        whole text is built."""
        m = len(self)
        yield f'{{"vertices": {m}, "kind": {json.dumps(self.operators.kind)}, "labels": ['
        labels = self.operators._json_members()
        sep = ""
        while batch := list(itertools.islice(labels, _LABELS_PER_PIECE)):
            yield sep + json.dumps(batch)[1:-1]
            sep = ", "
        yield '], "adjacency": ['
        tables = _json_token_tables(m)
        starts = [start for start, _ in tables]
        widths = np.array([tokens.itemsize for _, tokens in tables])
        rows = max(1, _JSON_BLOCK_BYTES // max(m, 1))
        sep = ""
        for first in range(0, m, rows):
            bits = _unpack_masks(self.adjacency[first : first + rows], m)
            # each row's end in each class's text, under a row of zeros;
            # a count is at most m <= MAX_GRAPH_VERTICES < 2^16
            counts = np.add.reduceat(bits.view(np.uint8), starts, axis=1, dtype=np.uint16)
            ends = np.zeros((len(bits) + 1, len(tables)), np.intp)
            np.cumsum(counts * widths, axis=0, out=ends[1:])
            texts = []
            for start, tokens in tables:
                sub = bits[:, start : start + len(tokens)]
                texts.append(str(np.broadcast_to(tokens, sub.shape)[sub], "ascii"))
            ends = ends.tolist()
            for lo, hi in zip(ends, ends[1:]):
                row = "".join([text[a:b] for text, a, b in zip(texts, lo, hi)])
                yield f"{sep}[{row[:-2]}]"
                sep = ", "
        yield "]}"

    def _csv_pieces(self):
        """The text of :meth:`to_edge_csv` in pieces: the ``u,v`` header,
        then the ``u,v`` lines of each vertex u that has a later
        neighbour, read from its bitset like :meth:`_json_pieces`."""
        m = len(self)
        names = np.array([str(v) for v in range(m)], dtype=object)
        yield "u,v\r\n"
        for u, bits in enumerate(self.adjacency):
            later = names[u + 1 + np.flatnonzero(_unpack_masks((bits >> u + 1,), m - u - 1)[0])]
            if len(later):
                head = f"{u},"
                yield head + ("\r\n" + head).join(later.tolist()) + "\r\n"


# rows per block of a pairwise product: the scratch of a block, about
# 16 * 9 m bytes, stays small beside the m^2 / 8 bytes of adjacency bitsets
_BLOCK_ROWS = 16


def _exact_dtype(width: int):
    """Float type whose BLAS products count up to ``width`` ones exactly."""
    return np.float32 if width <= 1 << 24 else np.float64


def _unpack_masks(masks, width: int, dtype=bool) -> np.ndarray:
    """(len(masks), width) 0/1 matrix of the low ``width`` bits of each int."""
    nbytes = (width + 7) // 8
    raw = np.frombuffer(b"".join(v.to_bytes(nbytes, "little") for v in masks), np.uint8)
    bits = np.unpackbits(raw.reshape(len(masks), nbytes), axis=1, count=width, bitorder="little")
    return bits.astype(dtype, copy=False)


def _json_token_tables(m: int) -> list[tuple[int, np.ndarray]]:
    """The vertices 0..m-1 split by digit count (0-9, 10-99, ...): per
    class, its first vertex and its ``"v, "`` texts as one fixed-width
    ``S`` array, the token of vertex v at index v - first."""
    tables, start, digits = [], 0, 1
    while start < m:
        stop = min(10**digits, m)
        text = ", ".join(map(str, range(start, stop))) + ", "
        tables.append((start, np.frombuffer(text.encode("ascii"), f"S{digits + 2}")))
        start, digits = stop, digits + 1
    return tables


def _incidence(supports, width: int) -> np.ndarray:
    """(len(supports), width) 0/1 matrix with row i set on the 0-based
    indices ``supports[i]``, in the exact product type for ``width``."""
    counts = np.fromiter(map(len, supports), np.intp, count=len(supports))
    cols = np.fromiter(itertools.chain.from_iterable(supports), np.intp, count=int(counts.sum()))
    M = np.zeros((len(supports), width), _exact_dtype(width))
    M[np.repeat(np.arange(len(supports)), counts), cols] = 1
    return M


def _overlap_blocks(left: np.ndarray, right: np.ndarray, reduce):
    """Row blocks (start, reduce(counts)) of the integer product left @ right.T.

    Both factors are 0/1 matrices in the type chosen by
    :func:`_exact_dtype`, so every count is exact (held as a float);
    blocking keeps the scratch at ``_BLOCK_ROWS`` rows whatever the number
    of rows, and ``reduce`` turns each block of counts into its result
    before the next block is made.
    """
    for start in range(0, left.shape[0], _BLOCK_ROWS):
        yield start, reduce(left[start : start + _BLOCK_ROWS] @ right.T)


def _anticommutation(ops: OperatorSet):
    """Row blocks, in order, of the (m, m) boolean matrix of the
    anticommuting pairs of an operator set.

    Pauli: the symplectic form x_u . z_v + z_u . x_v is odd, i.e. one
    product of the (m, 2n) bit matrices [X | Z] and [Z | X].  Majorana:
    q_u q_v - |S_u & S_v| is odd, with each member's own degree q and the
    overlaps from one product of the support incidence matrix with itself.
    The diagonal is false in both cases.  Only one block of
    ``_BLOCK_ROWS`` rows exists at a time.
    """
    if ops.kind == "pauli":
        n = ops.n
        xz = [p.z_mask << n | p.x_mask for p in ops.members]
        left = _unpack_masks(xz, 2 * n, _exact_dtype(2 * n))  # [X | Z]
        right = np.roll(left, n, axis=1)  # [Z | X]
        odd_degree = np.zeros(len(ops), bool)
    else:
        left = right = _incidence([[j - 1 for j in s.support] for s in ops.members], ops.n)
        odd_degree = np.array([s.degree % 2 == 1 for s in ops.members], bool)
    for start, block in _overlap_blocks(left, right, _odd):
        block[odd_degree[start : start + len(block)]] ^= odd_degree
        yield block


def _odd(counts: np.ndarray) -> np.ndarray:
    """Boolean parity of exact float counts."""
    bits = counts.astype(np.int32)
    bits &= 1
    return bits.astype(bool)


def _pairwise_commuting(family: OperatorSet) -> bool:
    """True when no pair anticommutes; stops at the first block with one."""
    return not any(block.any() for block in _anticommutation(family))


def commutation_graph(ops: OperatorSet) -> CommutationGraph:
    """Build the anticommutation graph of an operator set.

    Each row block is packed into the per-vertex bitsets as it is made, so
    the build never holds more than one block beside the bitsets.
    """
    _check_graph_vertices(len(ops))
    bits = [
        int.from_bytes(row.tobytes(), "little")
        for block in _anticommutation(ops)
        for row in np.packbits(block, axis=1, bitorder="little")
    ]
    return CommutationGraph(operators=ops, adjacency=tuple(bits))


def commuting_majorana_family(n: int, q: int) -> OperatorSet:
    """C(n/2, q/2) pairwise-commuting degree-q monomials, for even n and q.

    Takes all (q/2)-wise products of the disjoint quadratic monomials on
    consecutive generator pairs (1,2), (3,4), ..., (n-1,n).
    """
    _check_family("majorana", n, q)
    if q % 2:
        raise InputError("a pair-product family requires even degree")
    pairs = [(2 * i + 1, 2 * i + 2) for i in range(n // 2)]
    members = []
    for chosen in itertools.combinations(pairs, q // 2):
        support = tuple(sorted(j for pair in chosen for j in pair))
        members.append(MajoranaMonomial(n, support))
    family = OperatorSet("majorana", n, q, tuple(members), provenance="commuting-family")
    if not _pairwise_commuting(family):
        raise RuntimeError("constructed family fails the commuting predicate")
    return family


def extended_hamming_family() -> OperatorSet:
    """The 14 pairwise-commuting degree-4 monomials on 8 modes.

    Supports are the weight-4 codewords of the extended [8,4,4] Hamming
    code (equivalently the planes of AG(3, 2)): any two distinct blocks
    meet in 0 or 2 points, so all pairs commute.  This beats the
    C(4, 2) = 6 pair-product family and matches theta of the degree-4
    commutation graph on 8 modes.
    """
    blocks = [
        s
        for s in itertools.combinations(range(8), 4)
        if s[0] ^ s[1] ^ s[2] ^ s[3] == 0
    ]
    members = tuple(MajoranaMonomial(8, tuple(i + 1 for i in s)) for s in blocks)
    family = OperatorSet("majorana", 8, 4, members, provenance="commuting-family")
    if not _pairwise_commuting(family):
        raise RuntimeError("Hamming family fails the commuting predicate")
    return family


def best_commuting_family(n: int, q: int) -> OperatorSet:
    """Largest known explicit commuting subfamily of the degree-q monomials."""
    if (n, q) == (8, 4):
        return extended_hamming_family()
    return commuting_majorana_family(n, q)


def ternary_tree_paulis(k: int) -> OperatorSet:
    """3^k mutually anticommuting weight-k Paulis on (3^k - 1)/2 qubits.

    Qubits sit at the internal nodes of a complete ternary tree of depth k;
    the operator for a leaf multiplies one Pauli per internal node along its
    root path, the branch index choosing X, Y or Z.
    """
    if not 1 <= k <= 6:
        raise InputError("depth must lie in 1..6")
    n_qubits = (3**k - 1) // 2
    single = ((1, 0, 0), (1, 1, 1), (0, 1, 0))  # X, Y, Z
    members = []
    for path in itertools.product(range(3), repeat=k):
        node = 0  # breadth-first index of the current internal node
        x = z = p = 0
        for depth, branch in enumerate(path):
            xb, zb, pb = single[branch]
            x |= xb << node
            z |= zb << node
            p += pb
            node = 3 * node + 1 + branch
        members.append(PauliString(n_qubits, x, z, p % 4))
    fam = OperatorSet("pauli", n_qubits, k, tuple(members), provenance="ternary-tree")
    if not all((block.sum(axis=1) == len(fam) - 1).all() for block in _anticommutation(fam)):
        raise RuntimeError("ternary tree construction fails pairwise anticommutation")
    return fam


def _project(family: OperatorSet, signs: tuple[int, ...]):
    """Joint eigenvector of a commuting family and the sign of each member.

    Each member B in turn maps the state to (psi + s B psi) / 2 with the
    first sign s in ``signs`` that leaves a nonzero vector, renormalizing
    after every step; an attempt that annihilates the state, or whose
    result misses an eigenvalue by more than 1e-9, restarts from the next
    trial vector: ``random_state`` of stream (2024, attempt), for at most
    16 attempts.
    """
    bank = TermBank.from_set(family)
    if not _pairwise_commuting(family):
        raise InputError("family is not pairwise commuting")
    for attempt in range(16):
        psi = random_state(RandomStream(2024, attempt), bank.dim)
        chosen = []
        for i in range(len(bank)):
            B_psi = bank.apply(psi, i)
            for s in signs:
                cand = (psi + s * B_psi) / 2
                norm = np.linalg.norm(cand)
                if norm > 1e-8:
                    psi = cand / norm
                    chosen.append(s)
                    break
            else:
                break
        else:
            if np.all(np.abs(bank.expectations(psi) - chosen) <= 1e-9):
                return psi, tuple(chosen)
    raise DegeneracyError("no joint eigenvector found in 16 attempts")


def stabilized_state(family: OperatorSet) -> np.ndarray:
    """Unit vector in the simultaneous +1 eigenspace of a commuting family.

    Applies the projector (I + B)/2 of every Hermitized member to a seeded
    random trial vector and normalizes; retries with fresh trial vectors on
    numerical nullity: seed 2024, at most 16 attempts (see :func:`_project`).
    """
    return _project(family, (1,))[0]


def joint_eigenstate(family: OperatorSet) -> tuple[np.ndarray, tuple[int, ...]]:
    """Simultaneous eigenvector of a commuting family with adaptive signs.

    Unlike :func:`stabilized_state`, which demands the all-+1 sector, this
    projects onto (I + s_i B_i)/2 choosing each sign s_i so the projector
    survives.  Every member then has expectation s_i = +-1, so the mean
    squared expectation over the family is exactly 1.  Same fixed trial
    vectors as :func:`stabilized_state`.
    """
    return _project(family, (1, -1))
