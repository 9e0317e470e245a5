"""Directed citation graph: dense node indexing, degree queries, dangling
nodes, and cumulative time snapshots.

Edge direction is `(i, j)` == "i cites j" everywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["CitationGraph", "SnapshotView", "build_graph", "dangling_nodes", "snapshot"]


class CitationGraph:
    """Immutable directed graph over a dense node index.

    Node ids are opaque strings mapped to dense integers in first-appearance
    order. Adjacency is stored both ways; `in_adjacency` is always the exact
    transpose of `out_adjacency`.
    """

    def __init__(self, edges):
        edges = list(edges)
        if not edges:
            raise ValueError("cannot build a graph from an empty edge list")

        timed_flags = {len(e) == 3 and e[2] is not None for e in edges}
        if timed_flags == {True, False}:
            raise ValueError("edge list mixes timed and untimed edges; provide timestamps for all edges or none")
        self.timed = timed_flags == {True}

        index: dict[str, int] = {}
        pairs: list[tuple[int, int]] = []
        times: list[int] = []
        for e in edges:
            src, dst = e[0], e[1]
            if src == dst:
                raise ValueError(f"self-loop {src!r} must be removed before graph construction")
            for node in (src, dst):
                if node not in index:
                    index[node] = len(index)
            pair = (index[src], index[dst])
            pairs.append(pair)
            if self.timed:
                times.append(int(e[2]))

        if len(set(pairs)) != len(pairs):
            raise ValueError("duplicate edges must be removed before graph construction")

        self.node_ids: tuple[str, ...] = tuple(index)
        self._index = index
        self.edge_array = np.asarray(pairs, dtype=np.int64)
        self.edge_times = np.asarray(times, dtype=np.int64) if self.timed else None
        self.edge_set = frozenset(pairs)

        n = len(self.node_ids)
        out_lists: list[list[int]] = [[] for _ in range(n)]
        in_lists: list[list[int]] = [[] for _ in range(n)]
        for i, j in pairs:
            out_lists[i].append(j)
            in_lists[j].append(i)
        self.out_adjacency = [np.asarray(sorted(l), dtype=np.int64) for l in out_lists]
        self.in_adjacency = [np.asarray(sorted(l), dtype=np.int64) for l in in_lists]

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def num_edges(self) -> int:
        return len(self.edge_array)

    def index_of(self, node_id: str) -> int:
        try:
            return self._index[node_id]
        except KeyError:
            raise KeyError(f"unknown node id {node_id!r}") from None

    def out_degree(self, i: int) -> int:
        return len(self.out_adjacency[i])

    def in_degree(self, j: int) -> int:
        return len(self.in_adjacency[j])

    def in_degrees(self) -> np.ndarray:
        return np.asarray([len(a) for a in self.in_adjacency], dtype=np.int64)

    def out_degrees(self) -> np.ndarray:
        return np.asarray([len(a) for a in self.out_adjacency], dtype=np.int64)

    def edges(self):
        """Edge index pairs in construction order."""
        return [tuple(e) for e in self.edge_array]

    def density(self) -> float:
        n = self.num_nodes
        return self.num_edges / (n * (n - 1)) if n > 1 else 0.0


@dataclass(frozen=True)
class SnapshotView:
    """Read-only cumulative view: all edges with time <= cutoff, full node set."""

    base: CitationGraph
    cutoff: int
    edge_indices: np.ndarray = field(repr=False)

    @property
    def num_nodes(self) -> int:
        return self.base.num_nodes

    @property
    def num_edges(self) -> int:
        return len(self.edge_indices)

    def edges(self) -> list[tuple[int, int]]:
        return [tuple(e) for e in self.base.edge_array[self.edge_indices]]


def build_graph(edges) -> CitationGraph:
    """Construct a CitationGraph from (source, target[, time]) tuples."""
    return CitationGraph(edges)


def dangling_nodes(graph: CitationGraph) -> np.ndarray:
    """Nodes that are never cited (in-degree zero), sorted ascending.

    These are exactly the nodes whose transition column carries no citation
    mass and must be repaired by the uniform teleport correction.
    """
    return np.flatnonzero(graph.in_degrees() == 0)


def snapshot(graph: CitationGraph, cutoff: int) -> SnapshotView:
    """Cumulative snapshot: edges with time <= cutoff. Requires a timed graph."""
    if not graph.timed:
        raise ValueError("snapshots need per-edge timestamps, but this graph is untimed")
    keep = np.flatnonzero(graph.edge_times <= cutoff)
    return SnapshotView(base=graph, cutoff=cutoff, edge_indices=keep)
