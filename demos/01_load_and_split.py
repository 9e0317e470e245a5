#!/usr/bin/env python3
"""Loading a dataset from disk and producing a reproducible split.

Writes a tiny citation corpus to a temp directory in the three on-disk
formats (edge TSV, node-text TSV, word-vector text), loads it back, composes
text embeddings, and splits the edges with seeded negative sampling.
"""

import tempfile
from pathlib import Path

import numpy as np

from aspectcite import (
    build_graph,
    embed_documents,
    load_edge_list,
    load_node_text,
    load_word_vectors,
    split_edges,
)

tempdir = tempfile.TemporaryDirectory(prefix="aspectcite-demo-")
workdir = Path(tempdir.name)

(workdir / "edges.tsv").write_text(
    "# citing <TAB> cited\n"
    "p1\tp2\n"
    "p1\tp3\n"
    "p2\tp3\n"
    "p4\tp3\n"
    "p4\tp1\n"
    "p5\tp1\n"
    "p5\tp2\n"
    "p2\tp5\n"
    "p3\tp5\n"
    "p1\tp5\n"
    "p1\tp1\n"  # self-loop: dropped and counted
    "p1\tp2\n"  # duplicate: dropped and counted
)

(workdir / "text.tsv").write_text(
    "p1\ttitle\tdeep convolutional networks\n"
    "p1\tabstract\twe study deep networks for vision\n"
    "p2\ttitle\tconvolutional vision models\n"
    "p3\ttitle\tgraph representation learning\n"
    "p4\ttitle\tcitation graph analysis\n"
    "p5\ttitle\tdeep graph networks\n"
)

words = ["deep", "convolutional", "networks", "vision", "graph", "representation", "learning", "citation", "models", "analysis", "we", "study", "for"]
rng = np.random.default_rng(0)
(workdir / "vectors.txt").write_text(
    "\n".join(f"{w} " + " ".join(f"{v:.4f}" for v in rng.normal(size=8)) for w in words) + "\n"
)

edge_list = load_edge_list(workdir / "edges.tsv")
print(f"edges: {len(edge_list.edges)} kept, {edge_list.duplicate_count} duplicates dropped, "
      f"{edge_list.self_loop_count} self-loops dropped")

graph = build_graph(edge_list.edges)
print(f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges, density {graph.density():.3f}")

docs = load_node_text(workdir / "text.tsv")
table = load_word_vectors(workdir / "vectors.txt")
print(f"text: {len(docs)} documents, vocabulary {len(table)} words of dimension {table.dimension}")

text_matrix, stats = embed_documents(docs, graph.node_ids, ("title", "abstract"), table)
print(f"embeddings: shape {text_matrix.shape}, mean OOV ratio {stats['mean_oov_ratio']:.2f}, "
      f"{stats['nodes_without_text']} nodes without text")

split = split_edges(graph, (0.8, 0.1, 0.1), negatives_per_positive=1, seed=42)
print(f"split: {len(split.train_edges)} train / {len(split.validation_edges)} val / "
      f"{len(split.test_edges)} test edges; negatives per split: "
      f"{ {name: len(neg) for name, neg in split.negatives.items()} }")

again = split_edges(graph, (0.8, 0.1, 0.1), negatives_per_positive=1, seed=42)
print(f"same seed reproduces the exact split: {split == again}")

tempdir.cleanup()
