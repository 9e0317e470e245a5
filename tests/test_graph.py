"""Graph structure and dangling-detection contracts."""

import re
from itertools import chain, compress, count
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectcite import build_graph, dangling_nodes
from aspectcite.graph import _csr


def edge_lists(max_nodes=8):
    pair = st.tuples(st.integers(0, max_nodes - 1), st.integers(0, max_nodes - 1)).filter(lambda p: p[0] != p[1])
    return st.lists(pair, min_size=1, max_size=25, unique=True).map(
        lambda pairs: [(f"n{a}", f"n{b}") for a, b in pairs]
    )


class ReferenceGraph:
    """Per-edge, per-node construction kept as the oracle for the array-backed
    graph: first-appearance node index, sorted per-node neighbour lists and a
    set of index pairs."""

    def __init__(self, edges):
        index: dict = {}
        self.pairs = []
        for e in edges:
            for node in (e[0], e[1]):
                index.setdefault(node, len(index))
            self.pairs.append((index[e[0]], index[e[1]]))
        self.node_ids = tuple(index)
        n = len(index)
        self.out = [sorted(j for i, j in self.pairs if i == k) for k in range(n)]
        self.inn = [sorted(i for i, j in self.pairs if j == k) for k in range(n)]
        self.edge_set = set(self.pairs)
        self.times = [int(e[2]) for e in edges] if len(edges[0]) == 3 else None


@st.composite
def graphs_with_probes(draw):
    """(edges, probe pairs): timed or untimed edge lists over shuffled labels,
    and index pairs that include out-of-range and negative indices."""
    edges = draw(edge_lists(max_nodes=10))
    labels = draw(st.permutations([f"n{k}" for k in range(10)]))
    edges = [(labels[int(a[1:])], labels[int(b[1:])]) for a, b in edges]
    if draw(st.booleans()):
        times = draw(st.lists(st.integers(1990, 2000), min_size=len(edges), max_size=len(edges)))
        edges = [(a, b, t) for (a, b), t in zip(edges, times)]
    probes = draw(st.lists(st.tuples(st.integers(-2, 12), st.integers(-2, 12)), max_size=30))
    return edges, probes


def two_pass_index(edges):
    """The indexing `CitationGraph` used before its one-pass version, kept
    verbatim as the reference: a timed-edge scan, a tuple per edge, then
    `dict.fromkeys` and a second lookup per id. Returns the fields it set."""
    edges = list(edges)
    if not edges:
        raise ValueError("cannot build a graph from an empty edge list")

    # An edge is timed when it has a third field that is not None.
    thirds = list(map(itemgetter(2), compress(edges, map((3).__eq__, map(len, edges)))))
    num_timed = len(thirds) - thirds.count(None)
    if 0 < num_timed < len(edges):
        raise ValueError("edge list mixes timed and untimed edges; provide timestamps for all edges or none")
    timed = num_timed == len(edges)

    ids = list(chain.from_iterable(map(itemgetter(0, 1), edges)))
    index = dict(zip(dict.fromkeys(ids), count()))
    pairs = np.fromiter(map(index.__getitem__, ids), dtype=np.int64, count=len(ids)).reshape(-1, 2)

    loops = np.flatnonzero(pairs[:, 0] == pairs[:, 1])
    if loops.size:
        raise ValueError(f"self-loop {ids[2 * loops[0]]!r} must be removed before graph construction")

    n = len(index)
    out_indptr, out_indices, keys = _csr(pairs[:, 0], pairs[:, 1], n)
    if np.any(keys[1:] == keys[:-1]):
        raise ValueError("duplicate edges must be removed before graph construction")
    in_indptr, in_indices, _ = _csr(pairs[:, 1], pairs[:, 0], n)
    return {
        "node_ids": tuple(index), "_index": index, "edge_array": pairs, "timed": timed,
        "edge_times": np.fromiter(map(int, thirds), dtype=np.int64, count=len(edges)) if timed else None,
        "out_indptr": out_indptr, "out_indices": out_indices, "in_indptr": in_indptr, "in_indices": in_indices,
    }


@st.composite
def raw_edge_lists(draw):
    """Edge lists as callers pass them: ids drawn from a small pool (so repeated,
    and at times self-loops or duplicates), each edge a tuple or a list, with
    times on every edge, on none, on some, or as None."""
    pool = draw(st.lists(st.text(alphabet="abc", min_size=1, max_size=2), min_size=1, max_size=6, unique=True))
    node = st.sampled_from(pool)
    pair = st.tuples(node, node).filter(lambda p: p[0] != p[1]) if draw(st.booleans()) else st.tuples(node, node)
    pairs = draw(st.lists(pair, min_size=1, max_size=20, unique=draw(st.booleans())))
    times = draw(st.sampled_from(["none", "all", "some", "none-valued"]))
    edges = []
    for a, b in pairs:
        extra = {
            "none": (),
            "all": (draw(st.integers(1990, 2020)),),
            "some": draw(st.sampled_from([(), (2000,)])),
            "none-valued": draw(st.sampled_from([(None,), (2001,), ()])),
        }[times]
        edge = (a, b, *extra)
        edges.append(list(edge) if draw(st.booleans()) else edge)
    return edges


class TestOnePassIndex:
    """The one-pass index gives what the two-pass reference gave, errors included."""

    FIELDS = ("node_ids", "_index", "edge_array", "timed", "edge_times",
              "out_indptr", "out_indices", "in_indptr", "in_indices")

    def check(self, edges):
        try:
            expected = two_pass_index(edges)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc)) + "$"):
                build_graph(edges)
            return str(exc)
        g = build_graph(edges)
        for name in self.FIELDS:
            got, want = getattr(g, name), expected[name]
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want), name
            else:
                assert got == want, name
        assert list(g._index.items()) == list(expected["_index"].items())
        return None

    @given(raw_edge_lists())
    @settings(max_examples=300, deadline=None)
    def test_matches_two_pass_reference(self, edges):
        self.check(edges)

    @pytest.mark.parametrize("edges, error", [
        ([("a", "b"), ["b", "c"], ("c", "a")], None),
        ([["a", "b", 3], ("b", "a", 1)], None),
        ([("a", "b"), ("b", "b"), ("c", "c")], "self-loop 'b'"),
        ([["x", "y"], ("y", "x"), ["x", "y"]], "duplicate edges"),
        ([("a", "b", 1), ["b", "c"]], "mixes timed and untimed"),
        ([("a", "b", None), ("b", "c")], None),
        ([("a", "b", None), ("b", "c", 5)], "mixes timed and untimed"),
    ])
    def test_cases(self, edges, error):
        message = self.check(edges)
        assert (message is None) if error is None else (error in message)


class TestBuildGraph:
    def test_first_appearance_indexing_and_degrees(self):
        g = build_graph([("A", "B"), ("B", "C")])
        assert g.node_ids == ("A", "B", "C")
        assert g.num_nodes == 3
        assert g.out_degree(g.index_of("A")) == 1
        assert g.in_degree(g.index_of("C")) == 1

    def test_in_degree_counts_citers(self):
        g = build_graph([("A", "B"), ("C", "B")])
        assert g.in_degree(g.index_of("B")) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_graph([])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_graph([("A", "B"), ("A", "B")])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            build_graph([("A", "A")])

    def test_mixed_timed_untimed_rejected(self):
        with pytest.raises(ValueError, match="timed"):
            build_graph([("A", "B", 1), ("B", "C")])

    @given(graphs_with_probes())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_builder(self, case):
        edges, probes = case
        g, ref = build_graph(edges), ReferenceGraph(edges)
        n = len(ref.node_ids)
        assert g.node_ids == ref.node_ids and g.num_nodes == n and g.num_edges == len(edges)
        assert g.edge_array.dtype == np.int64 and g.edge_array.flags["C_CONTIGUOUS"]
        assert g.edge_array.tolist() == [list(p) for p in ref.pairs]
        for k in range(n):
            assert g.out_neighbors(k).tolist() == ref.out[k]
            assert g.in_neighbors(k).tolist() == ref.inn[k]
            assert (g.out_degree(k), g.in_degree(k)) == (len(ref.out[k]), len(ref.inn[k]))
        assert g.out_degrees().tolist() == [len(a) for a in ref.out]
        assert g.in_degrees().tolist() == [len(a) for a in ref.inn]
        assert dangling_nodes(g).tolist() == [k for k in range(n) if not ref.inn[k]]
        probes = probes + ref.pairs[:5]
        expected = [p in ref.edge_set for p in probes]
        assert g.contains(probes).tolist() == expected
        assert [g.has_edge(i, j) for i, j in probes] == expected
        assert g.timed == (ref.times is not None)
        if g.timed:
            assert g.edge_times.dtype == np.int64 and g.edge_times.tolist() == ref.times
        else:
            assert g.edge_times is None

    def test_indices_of_names_unknown_id(self):
        g = build_graph([("A", "B"), ("B", "C"), ("C", "A")])
        got = g.indices_of(["C", "A", "B", "B"])
        assert got.dtype == np.int64 and got.tolist() == [2, 0, 1, 1]
        assert g.indices_of([]).shape == (0,) and g.index_of("B") == 1
        with pytest.raises(KeyError, match="unknown node id 'ghost'"):
            g.indices_of(["A", "B", "C", "ghost"])

    def test_contains_empty_probe_list(self):
        g = build_graph([("A", "B")])
        assert g.contains([]).shape == (0,)

    def test_adjacency_is_read_only(self):
        g = build_graph([("A", "B"), ("B", "C")])
        with pytest.raises(ValueError, match="read-only"):
            g.out_neighbors(0)[0] = 2

    @given(edge_lists())
    @settings(max_examples=120, deadline=None)
    def test_transpose_consistency(self, edges):
        g = build_graph(edges)
        for i in range(g.num_nodes):
            for j in g.out_neighbors(i):
                assert i in g.in_neighbors(j)
        for j in range(g.num_nodes):
            for i in g.in_neighbors(j):
                assert j in g.out_neighbors(i)


class TestRejectionMessages:
    """Every construction check keeps its exact message and its order."""

    MIXED = "edge list mixes timed and untimed edges; provide timestamps for all edges or none"

    def test_empty(self):
        with pytest.raises(ValueError, match=re.escape("cannot build a graph from an empty edge list")):
            build_graph(iter(()))

    @pytest.mark.parametrize("edges", [
        [("A", "B", 1), ("B", "C")],
        [("A", "B"), ("B", "C", 2)],
        [("A", "B", None), ("B", "C", 3)],
        [["A", "B", 4], ["B", "C"]],
    ])
    def test_mixed_timed_untimed(self, edges):
        with pytest.raises(ValueError, match=re.escape(self.MIXED)):
            build_graph(edges)

    def test_all_none_times_is_untimed(self):
        g = build_graph([("A", "B", None), ("B", "C", None)])
        assert not g.timed and g.edge_times is None

    @pytest.mark.parametrize("edges, position, items", [
        ([["p1"], ("a", "b")], 0, 1),
        ([("a", "b"), ("b", "c", 1, "x")], 1, 4),
        ([("a", "b", None), ("b", "c", None, None)], 1, 4),
        ([("a", "b", 1), ("b", "c", 2), ()], 2, 0),
    ])
    def test_edge_of_wrong_length_names_its_position(self, edges, position, items):
        """A one-item edge once ended in a bare IndexError; a four-item one was read as untimed."""
        message = f"edge {position} has {items} items, expected 2 or 3 (source, target[, time])"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            build_graph(edges)

    def test_self_loop_names_the_node(self):
        with pytest.raises(ValueError, match=re.escape("self-loop 'C' must be removed before graph construction")):
            build_graph([("A", "B"), ("C", "C"), ("D", "D")])

    def test_duplicate(self):
        with pytest.raises(ValueError, match=re.escape("duplicate edges must be removed before graph construction")):
            build_graph([("A", "B"), ("B", "C"), ("A", "B")])

    def test_mixed_times_reported_before_self_loop(self):
        with pytest.raises(ValueError, match=re.escape(self.MIXED)):
            build_graph([("A", "A", 1), ("B", "C")])

    def test_self_loop_reported_before_duplicate(self):
        with pytest.raises(ValueError, match="self-loop 'E'"):
            build_graph([("A", "B"), ("A", "B"), ("E", "E")])


class TestDanglingNodes:
    def test_single_edge(self):
        g = build_graph([("A", "B")])
        assert list(g.node_ids[k] for k in dangling_nodes(g)) == ["A"]

    def test_cycle_has_none(self):
        g = build_graph([("A", "B"), ("B", "A")])
        assert dangling_nodes(g).size == 0

    def test_source_with_two_targets(self):
        g = build_graph([("A", "B"), ("A", "C")])
        assert [g.node_ids[k] for k in dangling_nodes(g)] == ["A"]

    @given(edge_lists())
    @settings(max_examples=120, deadline=None)
    def test_exactly_in_degree_zero(self, edges):
        g = build_graph(edges)
        expected = {k for k in range(g.num_nodes) if g.in_degree(k) == 0}
        assert set(dangling_nodes(g).tolist()) == expected

