"""Directed citation graph held as arrays: dense node indexing, CSR adjacency
both ways, sorted edge keys, optional per-edge times, and dangling nodes.

Edge `(i, j)` ("i cites j", everywhere in this package) has key `i * N + j`.
One sort of the keys finds duplicates, gives the out-CSR with ascending rows
and answers membership by `np.searchsorted`; sorting `j * N + i` gives the
in-CSR.
"""

from __future__ import annotations

from itertools import chain, compress, count
from operator import countOf, itemgetter

import numpy as np

__all__ = ["CitationGraph", "build_graph", "dangling_nodes"]


def _csr(rows: np.ndarray, cols: np.ndarray, n: int):
    """(indptr, indices, sorted keys) of the pairs; each row's indices ascend."""
    keys = np.sort(rows * n + cols)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    indices = keys % n
    for array in (indptr, indices, keys):
        array.setflags(write=False)
    return indptr, indices, keys


class CitationGraph:
    """Immutable directed graph over a dense node index.

    Node ids are opaque strings mapped to dense integers in first-appearance
    order. Adjacency is stored both ways as CSR arrays; row `j` of the in-CSR
    lists exactly the `i` whose out-CSR row holds `j`, both ascending.
    """

    def __init__(self, edges):
        edges = list(edges)
        if not edges:
            raise ValueError("cannot build a graph from an empty edge list")

        if countOf(map(len, edges), 2) == len(edges):  # no edge can carry a time
            thirds, self.timed = [], False
            ids = chain.from_iterable(edges)
        else:
            lengths = list(map(len, edges))
            if countOf(lengths, 2) + countOf(lengths, 3) < len(edges):
                bad = next(k for k, n in enumerate(lengths) if n not in (2, 3))
                raise ValueError(f"edge {bad} has {lengths[bad]} items, expected 2 or 3 (source, target[, time])")
            # An edge is timed when it has a third field that is not None.
            thirds = list(map(itemgetter(2), compress(edges, map((3).__eq__, lengths))))
            num_timed = len(thirds) - thirds.count(None)
            if 0 < num_timed < len(edges):
                raise ValueError("edge list mixes timed and untimed edges; provide timestamps for all edges or none")
            self.timed = num_timed == len(edges)
            ids = chain.from_iterable(map(itemgetter(0, 1), edges))

        # One dict pass: `first` maps each id to the position of its first
        # appearance, and the ids that start there, counted, give dense indices.
        first: dict = {}
        pos = np.fromiter(map(first.setdefault, ids, count()), dtype=np.int64, count=2 * len(edges))
        pairs = (np.cumsum(pos == np.arange(len(pos))) - 1)[pos].reshape(-1, 2)
        self.node_ids: tuple[str, ...] = tuple(first)
        self._index = dict(zip(first, count()))

        loops = np.flatnonzero(pairs[:, 0] == pairs[:, 1])
        if loops.size:
            raise ValueError(f"self-loop {edges[loops[0]][0]!r} must be removed before graph construction")

        n = len(first)
        self.out_indptr, self.out_indices, keys = _csr(pairs[:, 0], pairs[:, 1], n)
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("duplicate edges must be removed before graph construction")
        self.in_indptr, self.in_indices, _ = _csr(pairs[:, 1], pairs[:, 0], n)
        self._keys = keys
        pairs.setflags(write=False)
        self.edge_array = pairs
        self.edge_times = np.fromiter(map(int, thirds), dtype=np.int64, count=len(edges)) if self.timed else None

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def num_edges(self) -> int:
        return len(self.edge_array)

    def index_of(self, node_id: str) -> int:
        return int(self.indices_of([node_id])[0])

    def indices_of(self, node_ids) -> np.ndarray:
        """int64 dense indices of an iterable of node ids; an unknown id is a KeyError naming it."""
        try:
            return np.fromiter(map(self._index.__getitem__, node_ids), dtype=np.int64)
        except KeyError as exc:
            raise KeyError(f"unknown node id {exc.args[0]!r}") from None

    def out_neighbors(self, i: int) -> np.ndarray:
        """Nodes `i` cites, ascending (a read-only view into the CSR)."""
        return self.out_indices[self.out_indptr[i]:self.out_indptr[i + 1]]

    def in_neighbors(self, j: int) -> np.ndarray:
        """Nodes citing `j`, ascending (a read-only view into the CSR)."""
        return self.in_indices[self.in_indptr[j]:self.in_indptr[j + 1]]

    def out_degree(self, i: int) -> int:
        return int(self.out_indptr[i + 1] - self.out_indptr[i])

    def in_degree(self, j: int) -> int:
        return int(self.in_indptr[j + 1] - self.in_indptr[j])

    def in_degrees(self) -> np.ndarray:
        return np.diff(self.in_indptr)

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.out_indptr)

    def has_edge(self, i: int, j: int) -> bool:
        n = self.num_nodes
        if not (0 <= i < n and 0 <= j < n):
            return False
        key = i * n + j
        pos = int(self._keys.searchsorted(key))
        return pos < len(self._keys) and bool(self._keys[pos] == key)

    def lookup(self, pairs):
        """Positions of `(i, j)` pairs in the sorted edge keys, and which are edges."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        n = self.num_nodes
        inside = np.all((pairs >= 0) & (pairs < n), axis=1)
        keys = np.where(inside, pairs[:, 0] * n + pairs[:, 1], -1)
        pos = np.minimum(self._keys.searchsorted(keys), len(self._keys) - 1)
        return pos, inside & (self._keys[pos] == keys)

    def contains(self, pairs) -> np.ndarray:
        """Boolean mask: which `(i, j)` rows of `pairs` are edges."""
        return self.lookup(pairs)[1]

    def density(self) -> float:
        n = self.num_nodes
        return self.num_edges / (n * (n - 1)) if n > 1 else 0.0


def build_graph(edges) -> CitationGraph:
    """Construct a CitationGraph from (source, target[, time]) tuples."""
    return CitationGraph(edges)


def dangling_nodes(graph: CitationGraph) -> np.ndarray:
    """Nodes that are never cited (in-degree zero), sorted ascending.

    Their transition column is empty in every aspect; the propagation step
    needs no list of them, as it spreads every column's unkept mass uniformly.
    """
    return np.flatnonzero(graph.in_degrees() == 0)
