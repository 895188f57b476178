"""Commutation graphs and structured operator families."""

import csv
import hashlib
import io
import itertools
import json
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermitheta import graphs
from fermitheta.algebra import (
    MajoranaMonomial,
    OperatorSet,
    PauliString,
    enumerate_set,
    majorana_anticommutes,
    pauli_anticommutes,
)
from fermitheta.graphs import (
    MAX_GRAPH_VERTICES,
    CommutationGraph,
    DegeneracyError,
    best_commuting_family,
    commutation_graph,
    commuting_majorana_family,
    extended_hamming_family,
    joint_eigenstate,
    stabilized_state,
    ternary_tree_paulis,
)
from fermitheta.kernel import CapacityError, InputError, RandomStream, random_state


def has_edge(g, u, v):
    return bool((g.adjacency[u] >> v) & 1)


def neighbors(g, u):
    """Neighbours of vertex u in increasing order (one set-bit walk)."""
    bits = g.adjacency[u]
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def edge_count(g):
    return sum(g.degrees()) // 2


def degree_stats(g):
    degs = g.degrees()
    return (max(degs), min(degs), sum(degs) / len(degs)) if degs else (0, 0, 0.0)


def xyz_triangle():
    return OperatorSet(
        "pauli", 1, 1, tuple(PauliString.from_label(c) for c in "XYZ")
    )


class TestCommutationGraph:
    def test_single_vertex_empty(self):
        g = commutation_graph(enumerate_set("majorana", 4, 4))
        assert len(g) == 1 and edge_count(g) == 0

    def test_xyz_triangle(self):
        g = commutation_graph(xyz_triangle())
        assert edge_count(g) == 3
        assert degree_stats(g) == (2, 2, 2.0)

    def test_s62_eight_regular(self):
        g = commutation_graph(enumerate_set("majorana", 6, 2))
        assert len(g) == 15
        assert degree_stats(g) == (8, 8, 8.0)

    def test_degree_formula_vertex_transitive(self):
        for n, q in [(6, 2), (8, 2), (8, 4), (10, 4)]:
            g = commutation_graph(enumerate_set("majorana", n, q))
            degs = set(g.degrees())
            assert len(degs) == 1
            expected = sum(comb(q, s) * comb(n - q, q - s) for s in range(1, q + 1, 2))
            assert degs == {expected}

    def test_commutation_degree_values(self):
        # the commutation degree of norm-1 terms is the largest vertex degree
        assert max(commutation_graph(enumerate_set("majorana", 6, 2)).degrees()) == 8
        assert max(commutation_graph(enumerate_set("majorana", 8, 4)).degrees()) == 32

    def test_adjacency_matrix_symmetric(self):
        g = commutation_graph(enumerate_set("majorana", 6, 2))
        A = g.adjacency_matrix()
        assert np.array_equal(A, A.T)
        assert np.array_equal(np.diag(A), np.zeros(15))

    def test_exports(self):
        g = commutation_graph(xyz_triangle())
        data = json.loads(g.to_json())
        assert data["vertices"] == 3
        assert data["adjacency"] == [[1, 2], [0, 2], [0, 1]]
        csv_text = g.to_edge_csv()
        assert csv_text.splitlines()[0] == "u,v"
        assert len(csv_text.splitlines()) == 4  # header + 3 edges


    @pytest.mark.parametrize("kind,n,k", [("majorana", 6, 2), ("pauli", 3, 2)])
    def test_exports_match_pairwise_queries(self, kind, n, k):
        g = commutation_graph(enumerate_set(kind, n, k))
        m = len(g)
        adj = [[v for v in range(m) if has_edge(g, u, v)] for u in range(m)]
        assert [list(neighbors(g, u)) for u in range(m)] == adj
        assert json.loads(g.to_json())["adjacency"] == adj
        A = np.array([[float(has_edge(g, u, v)) for v in range(m)] for u in range(m)])
        assert np.array_equal(g.adjacency_matrix(), A)
        edges = [f"{u},{v}" for u in range(m) for v in adj[u] if v > u]
        assert g.to_edge_csv().splitlines() == ["u,v", *edges]


def pairwise_reference(ops):
    """Per-vertex bitsets from the scalar predicate over every pair."""
    pred = pauli_anticommutes if ops.kind == "pauli" else majorana_anticommutes
    m = len(ops)
    bits = [0] * m
    for u in range(m):
        for v in range(u + 1, m):
            if pred(ops.members[u], ops.members[v]):
                bits[u] |= 1 << v
                bits[v] |= 1 << u
    return tuple(bits)


def set_bit_walk_exports(g):
    """(to_json, to_edge_csv, adjacency_matrix) by walking set bits per vertex."""
    m = len(g)
    adj = [list(neighbors(g, u)) for u in range(m)]
    text = json.dumps(
        {
            "vertices": m,
            "kind": g.operators.kind,
            "labels": json.loads(g.operators.to_json())["members"],
            "adjacency": adj,
        }
    )
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["u", "v"])
    for u in range(m):
        w.writerows([u, v] for v in adj[u] if v > u)
    A = np.zeros((m, m))
    for u in range(m):
        A[u, adj[u]] = 1.0
    return text, buf.getvalue(), A


@st.composite
def pauli_sets(draw):
    # up to 130 qubits, so masks span one, two or three 64-bit words
    n = draw(st.integers(1, 130))
    masks = draw(
        st.lists(
            st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1)),
            max_size=40,
            unique=True,
        )
    )
    return OperatorSet("pauli", n, 1, tuple(PauliString(n, x, z) for x, z in masks))


@st.composite
def majorana_sets(draw):
    # mixed and odd degrees, the empty support included
    n = draw(st.integers(1, 12)) * 2
    supports = draw(
        st.lists(st.frozensets(st.integers(1, n), max_size=n), max_size=40, unique=True)
    )
    members = tuple(MajoranaMonomial(n, tuple(sorted(s))) for s in supports)
    return OperatorSet("majorana", n, 2, members)


_ENUMERATED = [
    ("pauli", 8, 3), ("pauli", 4, 2), ("pauli", 4, 3), ("pauli", 3, 3), ("pauli", 70, 1),
    ("majorana", 12, 4), ("majorana", 8, 4), ("majorana", 6, 3), ("majorana", 70, 2),
]


class TestAnticommutationKernel:
    @given(st.one_of(pauli_sets(), majorana_sets()))
    @settings(max_examples=150, deadline=None)
    def test_adjacency_matches_pairwise_reference(self, ops):
        g = commutation_graph(ops)
        assert g.adjacency == pairwise_reference(ops)
        text, edges, _ = set_bit_walk_exports(g)
        assert g.to_json() == text and g.to_edge_csv() == edges

    @pytest.mark.parametrize("kind,n,k", _ENUMERATED[1:-1])  # the scalar loop is slow on the ends
    def test_enumerated_sets(self, kind, n, k):
        ops = enumerate_set(kind, n, k)
        assert commutation_graph(ops).adjacency == pairwise_reference(ops)

    @pytest.mark.parametrize("kind,n,k", _ENUMERATED)
    def test_exports_match_set_bit_walk(self, kind, n, k):
        g = commutation_graph(enumerate_set(kind, n, k))
        text, edges, A = set_bit_walk_exports(g)
        assert g.to_json() == text
        assert g.to_edge_csv() == edges
        B = g.adjacency_matrix()
        assert B.dtype == A.dtype and np.array_equal(B, A)

    @pytest.mark.parametrize("kind", ["pauli", "majorana"])
    def test_empty_and_single_member(self, kind):
        one = PauliString.from_label("XYZ") if kind == "pauli" else MajoranaMonomial(4, (1, 2, 3))
        for members in ((), (one,)):
            g = commutation_graph(OperatorSet(kind, 3 if kind == "pauli" else 4, 3, members))
            assert g.adjacency == (0,) * len(members)
            assert g.adjacency_matrix().shape == (len(members), len(members))
            assert g.to_edge_csv() == "u,v\r\n"
            assert json.loads(g.to_json())["adjacency"] == [[]] * len(members)


def random_bitset_graph(m: int, seed: int, block_rows: int) -> CommutationGraph:
    """m X-type Paulis on seeded random bitsets, of density 1/2 and 1/4 in
    turn (not symmetric: the exports read rows only), with row 0 empty,
    row 1 full and the last two rows of each block of ``block_rows`` empty."""
    rng = np.random.default_rng(seed)
    full = (1 << m) - 1
    rows = []
    for u in range(m):
        a, b = (int.from_bytes(rng.bytes((m + 7) // 8), "little") & full for _ in range(2))
        rows.append(a & b if u % 2 else a)
    rows[0], rows[1] = 0, full
    for end in range(block_rows, m + block_rows, block_rows):
        rows[min(end, m) - 1] = rows[min(end, m) - 2] = 0
    ops = OperatorSet("pauli", 11, 11, tuple(PauliString(11, v + 1, 0) for v in range(m)))
    return CommutationGraph(ops, tuple(rows))


# sha256 of to_json of the README and benchmark families, pinned from the
# per-row join that wrote the adjacency lists before the token tables
_JSON_SHA256 = {
    ("pauli", 4, 2): "9f130fdf9c72a046b70558e41255a15cac395a12b166b8e4c15db9ca4906dea9",
    ("pauli", 4, 3): "a243036e113d7f88d6a29be1e31fcea01d7d62b30063ec8a8bcd11c9d257e906",
    ("pauli", 8, 3): "0bf0637676fe26d63b37dc853b5e2c4351716d1363f3d0d15d4286f44070effb",
    ("majorana", 6, 2): "63ffcd69cbd87bea93b21a90aa00ae78e39b0dea5a3c7e7193eef082499b9ce4",
    ("majorana", 8, 4): "7b63d8bdfd646d5c2380347a11a6d45ead3e89731cbcf990b605192892e45ee0",
    ("majorana", 12, 4): "f87b28a893bec932c7b9a77e5653c4b8d0ca8dd0e32599fc5e410922e392986c",
}


class TestJsonTokenTables:
    """The JSON adjacency lists are cut from per-digit-count token tables,
    a block of rows at a time; vertex counts straddle each digit boundary."""

    @pytest.mark.parametrize("m", [9, 10, 11, 99, 100, 101, 999, 1000, 1001])
    @pytest.mark.parametrize("block_rows", [None, 5])
    def test_pieces_match_set_bit_walk(self, monkeypatch, m, block_rows):
        if block_rows:
            monkeypatch.setattr(graphs, "_JSON_BLOCK_BYTES", block_rows * m)
        rows = block_rows or max(1, graphs._JSON_BLOCK_BYTES // m)
        g = random_bitset_graph(m, seed=m, block_rows=rows)
        pieces = list(g._json_pieces())
        assert "".join(pieces) == set_bit_walk_exports(g)[0]
        # one piece per adjacency list, the empty and full ones included
        adjacency = pieces[pieces.index('], "adjacency": [') + 1 : -1]
        assert len(adjacency) == m
        assert adjacency[0] == "[]" and adjacency[-1] == ", []"
        assert adjacency[1] == ", [" + ", ".join(map(str, range(m))) + "]"

    @pytest.mark.parametrize("m", [0, 1])
    def test_no_row_and_one_row(self, m):
        ops = OperatorSet("pauli", 1, 1, (PauliString.from_label("X"),)[:m])
        g = CommutationGraph(ops, (1,) * m)
        assert g.to_json() == set_bit_walk_exports(g)[0]

    @pytest.mark.parametrize("family", list(_JSON_SHA256))
    def test_family_digest(self, family):
        text = commutation_graph(enumerate_set(*family)).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == _JSON_SHA256[family]


class TestCommutingFamily:
    def test_six_two(self):
        fam = commuting_majorana_family(6, 2)
        assert sorted(m.support for m in fam.members) == [(1, 2), (3, 4), (5, 6)]

    def test_eight_four_count(self):
        assert len(commuting_majorana_family(8, 4)) == 6

    def test_four_two_commutes(self):
        fam = commuting_majorana_family(4, 2)
        assert len(fam) == 2
        a, b = fam.members
        assert not majorana_anticommutes(a, b)

    def test_parity_validation(self):
        with pytest.raises(InputError):
            commuting_majorana_family(6, 3)

    def test_hamming_family(self):
        fam = extended_hamming_family()
        assert len(fam) == 14
        for a, b in itertools.combinations(fam.members, 2):
            assert not majorana_anticommutes(a, b)
            assert len(set(a.support) & set(b.support)) % 2 == 0

    def test_best_family_selects_hamming(self):
        assert len(best_commuting_family(8, 4)) == 14
        assert len(best_commuting_family(12, 4)) == comb(6, 2)


class TestTernaryTree:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_counts_and_anticommutation(self, k):
        fam = ternary_tree_paulis(k)
        assert len(fam) == 3**k
        assert fam.n == (3**k - 1) // 2
        assert all(p.weight <= k for p in fam.members)
        for a, b in itertools.combinations(fam.members, 2):
            assert pauli_anticommutes(a, b)

    def test_depth_one_is_xyz(self):
        fam = ternary_tree_paulis(1)
        assert sorted(p.label() for p in fam.members) == ["X", "Y", "Z"]

    def test_depth_cap(self):
        with pytest.raises(InputError):
            ternary_tree_paulis(7)


class TestStabilizedState:
    def test_single_z(self):
        fam = OperatorSet("pauli", 2, 1, (PauliString.from_label("ZI"),))
        psi = stabilized_state(fam)
        M = fam.hermitized_matrices()[0]
        assert abs(np.vdot(psi, M @ psi) - 1) < 1e-12
        # support confined to the +1 eigenspace of Z on qubit 0
        assert np.abs(psi[1::2]).max() < 1e-12

    def test_commuting_family_62(self):
        fam = commuting_majorana_family(6, 2)
        psi = stabilized_state(fam)
        for M in fam.hermitized_matrices():
            assert abs(np.vdot(psi, M @ psi) - 1) < 1e-9

    def test_commuting_family_84(self):
        fam = commuting_majorana_family(8, 4)
        psi = stabilized_state(fam)
        for M in fam.hermitized_matrices():
            assert abs(np.vdot(psi, M @ psi) - 1) < 1e-10

    def test_rejects_anticommuting_family(self):
        with pytest.raises(InputError):
            stabilized_state(xyz_triangle())

    def test_witness_sum_lower_bound_62(self):
        fam = commuting_majorana_family(6, 2)
        psi = stabilized_state(fam)
        full = enumerate_set("majorana", 6, 2)
        total = sum(
            float(np.real(np.vdot(psi, M @ psi))) ** 2
            for M in full.hermitized_matrices()
        )
        assert total / len(full) >= 3 / 15 - 1e-9

    def test_joint_eigenstate_hamming(self):
        fam = extended_hamming_family()
        psi, signs = joint_eigenstate(fam)
        assert set(signs) <= {1, -1}
        for M, s in zip(fam.hermitized_matrices(), signs):
            assert abs(np.vdot(psi, M @ psi) - s) < 1e-9


def dense_projection(family, signs, seed=2024, max_retries=16):
    """Reference projector loop on dense term matrices: (I + s B)/2 per
    member with the first surviving sign in ``signs``, normalized."""
    mats = family.hermitized_matrices()
    eye = np.eye(mats[0].shape[0])
    for attempt in range(max_retries):
        psi = random_state(RandomStream(seed, attempt), eye.shape[0])
        chosen = []
        for B in mats:
            for s in signs:
                cand = (eye + s * B) @ psi / 2
                if np.linalg.norm(cand) > 1e-8:
                    psi = cand / np.linalg.norm(cand)
                    chosen.append(s)
                    break
            else:
                break
        else:
            if max(abs(np.vdot(psi, B @ psi) - s) for B, s in zip(mats, chosen)) <= 1e-9:
                return psi, tuple(chosen)
    raise AssertionError("reference projection failed")


_COMMUTING = [
    OperatorSet("pauli", 2, 1, (PauliString.from_label("ZI"),)),
    OperatorSet("pauli", 2, 2, (PauliString.from_label("XX"), PauliString.from_label("ZZ", -1))),
    commuting_majorana_family(6, 2),
    commuting_majorana_family(8, 4),
    commuting_majorana_family(12, 4),
    extended_hamming_family(),
]


class TestProjectionMatchesDense:
    @pytest.mark.parametrize("family", _COMMUTING, ids=lambda f: f"{f.kind}-{f.n}-{len(f)}")
    def test_joint_eigenstate(self, family):
        psi, signs = joint_eigenstate(family)
        ref, ref_signs = dense_projection(family, (1, -1))
        assert signs == ref_signs
        assert np.abs(psi - ref).max() <= 1e-12

    @pytest.mark.parametrize("family", _COMMUTING[:-1], ids=lambda f: f"{f.kind}-{f.n}-{len(f)}")
    def test_stabilized_state(self, family):
        ref, _ = dense_projection(family, (1,))
        assert np.abs(stabilized_state(family) - ref).max() <= 1e-12

    def test_stabilized_state_degenerate(self):
        fam = OperatorSet("pauli", 1, 1, (PauliString.from_label("Z"), PauliString.from_label("Z", -1)))
        with pytest.raises(DegeneracyError):
            stabilized_state(fam)
        assert joint_eigenstate(fam)[1] == (1, -1)

    def test_rejects_non_hermitian_member(self):
        fam = OperatorSet("pauli", 1, 1, (PauliString(1, 1, 1, 0),))  # XZ = -iY
        with pytest.raises(InputError):
            stabilized_state(fam)


class TestCapacityAndEdgeCases:
    def test_vertex_cap(self):
        big = enumerate_set("pauli", 16, 3)  # 15120 members
        m = len(big)
        assert m > MAX_GRAPH_VERTICES
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                commutation_graph(big)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * m // 8  # raised before any m x m matrix, even of bits

    def test_build_memory_bounded_by_bitsets(self):
        ops = enumerate_set("pauli", 12, 3)
        m = len(ops)
        assert m == 5940
        tracemalloc.start()
        try:
            g = commutation_graph(ops)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(g) == m
        # the bitsets alone are about m^2 / 8 bytes; no m x m matrix is built
        assert peak < m * m // 4

    def test_json_export_streams_labels(self):
        # pauli (8,3): 1512 labels, 57 KB of them as JSON; the labels come
        # a few at a time, so no list of them or whole head is held at once
        g = commutation_graph(enumerate_set("pauli", 8, 3))
        tracemalloc.start()
        try:
            largest = max(len(piece) for piece in g._json_pieces())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert largest < 8 << 10
        assert peak < 256 << 10, f"peak {peak >> 10} KiB"

    def test_empty_family_degree(self):
        g = commutation_graph(enumerate_set("majorana", 4, 4))
        assert g.degrees() == [0]
