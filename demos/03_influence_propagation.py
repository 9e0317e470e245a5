#!/usr/bin/env python3
"""Per-aspect influence propagation to its stationary distributions.

Builds the implicit teleporting operator (never materialized densely) from
per-edge impacts in one call, holding each aspect's column-normalized
transition matrix times nu, and power-iterates. Influence mass flows from a
cited node to its citers; dangling columns are spread uniformly; every column
stays a probability distribution.
"""

import numpy as np

from aspectcite import (
    apply_projection,
    build_graph,
    build_transition,
    dangling_nodes,
    initialize_state,
    propagate,
)

# a small citation core: node 0 is cited by everyone, 4 cites nothing notable
edges = [(1, 0), (2, 0), (3, 0), (2, 1), (3, 1), (4, 3), (0, 4)]
graph = build_graph([(f"p{a}", f"p{b}") for a, b in edges])
print(f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges")
print(f"never-cited nodes (dangling columns): {[graph.node_ids[k] for k in dangling_nodes(graph)]}")

rng = np.random.default_rng(0)
impacts = rng.random((len(edges), 2))  # two aspects with random edge impacts
op = build_transition(edges, impacts, graph.num_nodes)
print(f"operator: beta = {op.beta:.5f} (= 0.05/N), nu = {op.nu} (keeps columns stochastic)")
for k in range(2):
    mat = op.matrices[k]  # CSR arrays of nu * X_k
    sums = np.bincount(mat.indices, weights=mat.data / op.nu, minlength=graph.num_nodes)
    print(f"aspect {k}: column sums of X_{k} {np.round(sums, 3)} (1 where fed, 0 where dangling)")

state = initialize_state(graph.num_nodes, aspects=2)
one_step = apply_projection(op, state)
print(f"one step conserves mass: column sums {np.round(one_step.matrix.sum(axis=0), 12)}")

final = propagate(op, state, max_steps=500, epsilon=1e-12)
print(f"converged in {final.step} steps, residual {final.residual:.2e}")
for k in range(2):
    print(f"aspect {k} stationary mass: {np.round(final.matrix[:, k], 4)}")

other_start = np.abs(np.random.default_rng(5).normal(size=state.matrix.shape))
other_start /= other_start.sum(axis=0)
from aspectcite import AspectState

final2 = propagate(op, AspectState(matrix=other_start), max_steps=500, epsilon=1e-12)
gap = np.abs(final.matrix - final2.matrix).sum(axis=0).max()
print(f"fixed point independent of the start (max L1 gap {gap:.2e})")
