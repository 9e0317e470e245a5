#!/usr/bin/env python3
"""Aspect-level explanation of why a node is cited.

Plants a 200-node graph whose mixed-topic targets are cited for two different
reasons (disjoint token vocabularies), trains to near-zero loss, and shows how
the citers of one target split into aspects with distinct term summaries.
"""

import tempfile
from pathlib import Path

import numpy as np

from aspectcite import (
    TokenizedDocument,
    TrainConfig,
    WordVectorTable,
    build_graph,
    embed_documents,
    explain_target,
    export_explanation,
    fit,
    split_edges,
)


def planted_two_topic_dataset(seed=0, n_mixed=20, n_per_topic=90):
    rng = np.random.default_rng(seed)
    edges, cited = [], {}
    for topic in ("a", "b"):
        for s in range(n_per_topic):
            targets = sorted(rng.choice(n_mixed, size=2, replace=False))
            cited[f"{topic}{s}"] = targets
            edges += [(f"{topic}{s}", f"mix{m}") for m in targets]
    graph = build_graph(sorted(set(edges)))

    words = []
    for m in range(n_mixed):
        words += [f"alpha{m}_{w}" for w in range(3)] + [f"beta{m}_{w}" for w in range(3)]
    texts = {f"mix{m}": [f"alpha{m}_{w}" for w in range(3)] + [f"beta{m}_{w}" for w in range(3)]
             for m in range(n_mixed)}
    for topic, side in (("a", "alpha"), ("b", "beta")):
        for s in range(n_per_topic):
            texts[f"{topic}{s}"] = [f"{side}{m}_{w}" for m in cited[f"{topic}{s}"] for w in range(3)]
    table = WordVectorTable(dimension=len(words),
                            vectors={w: 4.0 * np.eye(len(words))[i] for i, w in enumerate(words)})
    docs = {nid: TokenizedDocument(nid, {"title": tuple(tokens)}) for nid, tokens in texts.items()}
    matrix, _ = embed_documents(docs, graph.node_ids, ("title",), table)
    return graph, matrix, texts


graph, text, texts = planted_two_topic_dataset()
split = split_edges(graph, (0.9, 0.05, 0.05), negatives_per_positive=1, seed=0)
config = TrainConfig(aspects=8, struct_dim=8, epochs_per_phase=80, alternations=2,
                     batch_size=64, margin_edge=0.25, margin_aspect=0.5, seed=0)
print("training on the planted graph (two citation topics per target)...")
result = fit(graph, split, config, text)
print(f"final mean train loss: {result.report['stages'][0]['sy_phases'][-1]['train_loss'][-1]:.4f}")

target = "mix0"
explanation = explain_target(target, result.params, result.state, graph, text,
                             texts=texts, top_n=5, top_m=4)
print(f"\nexplanation for target {target!r}:")
for k, group in enumerate(explanation.aspects):
    if not group:
        continue
    citers = ", ".join(f"{c.node_id}({c.score:.2f})" for c in group)
    print(f"  aspect {k}: top citers [{citers}]  terms {list(explanation.terms[k])}")

with tempfile.TemporaryDirectory(prefix="aspectcite-demo-") as tempdir:
    out = Path(tempdir) / "explanation.json"
    export_explanation(explanation, out, format="json")
    print(f"\nexported {out.stat().st_size} bytes to {out.name} in a temporary directory")
