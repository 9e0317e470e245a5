"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed and sizes, so one seed gives
byte-identical inputs on every machine. `digest` fingerprints what was made,
so a changed generator shows up in the benchmark output.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

# Cora's published shape: nodes, citation edges, classes, bag-of-words width.
CORA_NODES = 2708
CORA_EDGES = 5429
CORA_CLASSES = 7
CORA_VOCAB = 1433
CORA_WORDS_PER_DOC = 18

PROP_NODES = 100_000
PROP_EDGES = 500_000
PROP_UNCITED_SHARE = 0.2
PROP_COMMUNITIES = 100
PROP_LOCAL_SHARE = 0.95


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *name.encode()]))


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _unique_pairs(src, dst, n):
    """Drop self-loops and repeats, keeping first occurrences in draw order."""
    keep = src != dst
    src, dst = src[keep], dst[keep]
    _, first = np.unique(src * n + dst, return_index=True)
    first.sort()
    return src[first], dst[first]


def cora_like(seed: int):
    """Cora-shaped community graph with community-correlated sparse binary text.

    Every node cites one node of its own community first, so all nodes appear
    in the edge list; the remaining edges stay inside a community with
    probability 0.8. Returns (edges as (citer, cited) index pairs, the (N, V)
    bag-of-words matrix).
    """
    n, m, k, vocab = CORA_NODES, CORA_EDGES, CORA_CLASSES, CORA_VOCAB
    rng = _rng(seed, "cora")
    group = rng.integers(k, size=n)
    members = [np.flatnonzero(group == g) for g in range(k)]

    def same_community(nodes):
        return np.asarray([members[group[a]][rng.integers(len(members[group[a]]))] for a in nodes])

    src = np.arange(n)
    dst = same_community(src)
    dst = np.where(dst == src, (src + 1) % n, dst)  # keeps every node in the edge list
    while True:
        src, dst = _unique_pairs(src, dst, n)
        if len(src) >= m:
            break
        extra_src = rng.integers(n, size=2 * (m - len(src)))
        local = rng.random(len(extra_src)) < 0.8
        extra_dst = np.where(local, same_community(extra_src), rng.integers(n, size=len(extra_src)))
        src, dst = np.concatenate([src, extra_src]), np.concatenate([dst, extra_dst])
    edges = np.stack([src[:m], dst[:m]], axis=1)

    band = vocab // k
    text = np.zeros((n, vocab))
    for node in range(n):
        g = group[node]
        own = rng.choice(np.arange(g * band, (g + 1) * band), size=CORA_WORDS_PER_DOC // 2, replace=False)
        shared = rng.choice(vocab, size=CORA_WORDS_PER_DOC // 2, replace=False)
        text[node, own] = 1.0
        text[node, shared] = 1.0
    return edges, text


def skewed_graph(seed: int):
    """Community citation graph with Zipf-skewed in-degree and never-cited nodes.

    Every node cites at least once. A citation stays inside the citer's
    community with probability 0.95 and otherwise lands in a random
    community; within a community only the citable 80% of nodes are cited,
    with weight 1/(rank + 10). The uncited nodes (and citable ones no draw
    hits) are dangling columns of the propagation operator; the communities
    make propagation mix slowly, so default phases stop at max_steps.
    Returns (M, 2) (citer, cited) index pairs.
    """
    n, m = PROP_NODES, PROP_EDGES
    rng = _rng(seed, "skewed")
    group = rng.integers(PROP_COMMUNITIES, size=n)
    citable = rng.random(n) >= PROP_UNCITED_SHARE
    members, cdfs = [], []
    for c in range(PROP_COMMUNITIES):
        ranked = rng.permutation(np.flatnonzero((group == c) & citable))
        weight = 1.0 / (np.arange(len(ranked)) + 10.0)
        members.append(ranked)
        cdfs.append(np.cumsum(weight) / weight.sum())

    def cited_by(src):
        local = rng.random(len(src)) < PROP_LOCAL_SHARE
        community = np.where(local, group[src], rng.integers(PROP_COMMUNITIES, size=len(src)))
        dst = np.empty(len(src), dtype=np.int64)
        for c in range(PROP_COMMUNITIES):
            rows = np.flatnonzero(community == c)
            picks = np.searchsorted(cdfs[c], rng.random(len(rows)))
            dst[rows] = members[c][np.minimum(picks, len(members[c]) - 1)]
        return dst

    src = np.arange(n)
    dst = cited_by(src)
    while np.any(dst == src):  # a self-loop would drop the node's only sure edge
        loops = np.flatnonzero(dst == src)
        dst[loops] = cited_by(loops)
    while True:
        src, dst = _unique_pairs(src, dst, n)
        if len(src) >= m:
            break
        extra = rng.integers(n, size=int(1.2 * (m - len(src))) + 16)
        src, dst = np.concatenate([src, extra]), np.concatenate([dst, cited_by(extra)])
    return np.stack([src[:m], dst[:m]], axis=1)


def id_edges(edges) -> list[tuple[str, str]]:
    """Index pairs as the (citer_id, cited_id) tuples `build_graph` takes."""
    return [(f"p{i}", f"p{j}") for i, j in edges.tolist()]


def write_cli_files(seed: int, directory: str) -> tuple:
    """Write the Cora-shaped dataset as the CLI's TSV inputs.

    Files: edges.tsv, features.tsv (dense 0/1 rows), node_text.tsv (a title
    built from each node's words). Returns ({name: path}, the edge pairs).
    """
    edges, text = cora_like(seed)
    os.makedirs(directory, exist_ok=True)
    paths = {name: os.path.join(directory, f"{name}.tsv") for name in ("edges", "features", "node_text")}
    with open(paths["edges"], "w", encoding="utf-8") as fh:
        fh.writelines(f"p{i}\tp{j}\n" for i, j in edges.tolist())
    with open(paths["features"], "w", encoding="utf-8") as fh:
        fh.writelines(f"p{row}\t{' '.join('1' if v else '0' for v in vec)}\n" for row, vec in enumerate(text))
    with open(paths["node_text"], "w", encoding="utf-8") as fh:
        fh.writelines(
            f"p{row}\ttitle\t{' '.join(f'w{w}' for w in np.flatnonzero(vec))}\n" for row, vec in enumerate(text)
        )
    return paths, edges


def file_digest(paths: dict) -> dict:
    out = {}
    for name, path in sorted(paths.items()):
        with open(path, "rb") as fh:
            data = fh.read()
        out[name] = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()[:16]}
    return out
