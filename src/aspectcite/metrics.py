"""Ranking and classification metrics plus the end-to-end evaluation harness.

Conventions pinned here so numbers are comparable across runs:
  AUC     Mann-Whitney pair statistic, ties count 0.5.
  AP@k    mean precision over relevant ranks <= k, divided by
          min(k, total relevant); 0 when nothing relevant lands in the top k.
  nDCG@k  binary gains rel/log2(rank+1) against the ideal ordering.
  Recall  R-precision: classify the top-|positives| ranked pairs as positive
          (ties broken by stable input order, positives listed first).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import DatasetSplit
from .graph import CitationGraph
from .model import ModelParams, scores_for_pairs
from .propagation import AspectState
from .seeding import substream

__all__ = [
    "MetricsReport",
    "auc",
    "average_precision_at_k",
    "ndcg_at_k",
    "recall",
    "check_ks",
    "evaluate",
]

RANK_KS = (1, 5, 10)


def auc(pos_scores, neg_scores) -> float:
    """Probability a random positive outscores a random negative (ties 0.5).

    The Mann-Whitney U statistic in its rank form: each positive's mid-rank
    among the sorted negatives, (below + not_above) / 2, summed over the
    positives and divided by the pair count. Exact, with no P x N pair table.
    """
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("auc needs at least one positive and one negative score")
    neg = np.sort(neg)
    below = np.searchsorted(neg, pos, side="left")
    not_above = np.searchsorted(neg, pos, side="right")
    return float((below + not_above).sum() / (2 * pos.size * neg.size))


def average_precision_at_k(ranked_relevance, k: int) -> float:
    """Top-k average precision over a binary relevance list (best first)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rel = [int(bool(r)) for r in ranked_relevance]
    if not rel:
        raise ValueError("relevance list must be nonempty")
    total_relevant = sum(rel)
    if total_relevant == 0:
        return 0.0
    hits = 0
    precision_sum = 0.0
    for position, flag in enumerate(rel[:k], start=1):
        if flag:
            hits += 1
            precision_sum += hits / position
    return precision_sum / min(k, total_relevant)


def ndcg_at_k(ranked_relevance, k: int) -> float:
    """Normalized discounted cumulative gain with binary relevance."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rel = [int(bool(r)) for r in ranked_relevance]
    total_relevant = sum(rel)
    if total_relevant == 0:
        return 0.0
    dcg = 0.0
    for position, flag in enumerate(rel[:k], start=1):
        if flag:
            dcg += 1.0 / np.log2(position + 1)
    ideal = 0.0
    for position in range(1, min(k, total_relevant) + 1):
        ideal += 1.0 / np.log2(position + 1)
    return dcg / ideal


def recall(pos_scores, neg_scores) -> float:
    """R-precision recall: fraction of positives inside the top-|positives| cut."""
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("recall needs at least one positive and one negative score")
    scores = np.concatenate([pos, neg])
    order = np.argsort(-scores, kind="stable")
    cutoff = order[: pos.size]
    return float(np.sum(cutoff < pos.size) / pos.size)


@dataclass(frozen=True)
class MetricsReport:
    """Evaluation summary; every metric lies in [0, 1].

    `per_source` holds `evaluate`'s one row per ranked source, the rows of
    the CLI's `per_source.csv`; `to_dict` leaves it out.
    """

    auc: float
    ap_at_k: dict[int, float]
    ndcg_at_k: dict[int, float]
    recall: float
    num_positives: int
    num_negatives: int
    num_ranked_sources: int
    config: dict = field(default_factory=dict)
    per_source: list = field(default_factory=list, repr=False)

    def validate(self) -> None:
        values = [self.auc, self.recall, *self.ap_at_k.values(), *self.ndcg_at_k.values()]
        if any(not (0.0 <= v <= 1.0) for v in values):
            raise ValueError(f"metric outside [0, 1]: {self}")
        if 1 in self.ap_at_k and 1 in self.ndcg_at_k:
            if abs(self.ap_at_k[1] - self.ndcg_at_k[1]) > 1e-12:
                raise ValueError("AP@1 and nDCG@1 must coincide")

    def to_dict(self) -> dict:
        return {
            "auc": self.auc,
            "ap_at_k": {str(k): v for k, v in sorted(self.ap_at_k.items())},
            "ndcg_at_k": {str(k): v for k, v in sorted(self.ndcg_at_k.items())},
            "recall": self.recall,
            "num_positives": self.num_positives,
            "num_negatives": self.num_negatives,
            "num_ranked_sources": self.num_ranked_sources,
            "config": self.config,
        }


def check_ks(ks) -> tuple:
    """`evaluate`'s check of its ranking cutoffs, which needs no artifact:
    at least one, distinct, each >= 1; returns them as a tuple."""
    ks = tuple(ks)
    if not ks or len(set(ks)) < len(ks) or min(ks) < 1:
        raise ValueError(f"ks must be one or more distinct integers >= 1, got {ks}")
    return ks


def _sample_source_negatives(source, graph, count, rng):
    """Uniform non-neighbors of `source` (never edges, never self), distinct."""
    n = graph.num_nodes
    existing = set(graph.out_neighbors(source).tolist())
    max_available = n - 1 - len(existing)
    count = min(count, max_available)
    chosen: dict[int, None] = {}  # insertion-ordered set
    while len(chosen) < count:
        # one candidate per missing negative, so a round draws what one-at-a-time draws would
        cand = rng.integers(n, size=count - len(chosen)).tolist()
        chosen.update(dict.fromkeys(c for c in cand if c != source and c not in existing))
    return list(chosen)


def evaluate(
    params: ModelParams,
    state: AspectState,
    split: DatasetSplit,
    graph: CitationGraph,
    text_vectors: np.ndarray,
    split_name: str = "test",
    ks=RANK_KS,
    rank_negatives_per_source: int = 50,
    seed: int = 0,
    score_fn=None,
) -> MetricsReport:
    """Score the held-out split and assemble the metric report.

    AUC and Recall are computed globally over the split's positives and its
    sampled negatives. AP@k and nDCG@k rank each source's candidate list (its
    held-out positives plus `rank_negatives_per_source` freshly sampled
    non-neighbors) and macro-average over sources with at least one positive.

    Pairs are scored by the trained model's F score (`scores_for_pairs`);
    `score_fn(pairs) -> scores` replaces it (tests pass oracle scores this
    way). The report's `per_source` rows give each ranked source's id, its
    positive and candidate counts, and its AP@k and nDCG@k; the report's
    AP@k and nDCG@k are their means. `ks` must pass `check_ks`.
    """
    ks = check_ks(ks)
    positives = split.edges_of(split_name)
    negatives = split.negatives[split_name]
    if len(positives) == 0:
        raise ValueError(f"split {split_name!r} has no positive edges to evaluate")
    if len(negatives) == 0:
        raise ValueError(f"split {split_name!r} has no sampled negatives")

    if score_fn is None:
        def score_fn(pairs):
            return scores_for_pairs(pairs, state.matrix, params, text_vectors)

    pos_scores = score_fn(positives)
    neg_scores = score_fn(negatives)

    # each source's held-out targets, in split order, sources ascending
    by_source = positives[np.argsort(positives[:, 0], kind="stable")]
    sources, starts = np.unique(by_source[:, 0], return_index=True)

    rng = substream(seed, "rank-negatives")
    per_source_rows = []
    for source, targets in zip(sources.tolist(), np.split(by_source[:, 1], starts[1:])):
        neg_targets = _sample_source_negatives(source, graph, rank_negatives_per_source, rng)
        if not neg_targets:
            continue
        cand_targets = np.concatenate([targets, neg_targets])
        cand_pairs = np.column_stack([np.full(len(cand_targets), source), cand_targets])
        cand_scores = score_fn(cand_pairs)
        relevance = np.zeros(len(cand_pairs), dtype=int)
        relevance[: len(targets)] = 1
        order = np.argsort(-cand_scores, kind="stable")
        ranked_rel = relevance[order]
        row = {"source": graph.node_ids[source], "positives": len(targets), "candidates": len(cand_pairs)}
        for k in ks:
            row[f"ap@{k}"] = average_precision_at_k(ranked_rel, k)
            row[f"ndcg@{k}"] = ndcg_at_k(ranked_rel, k)
        per_source_rows.append(row)

    if not per_source_rows:
        raise ValueError("no source had both positives and candidate negatives to rank")

    def mean(column):
        return sum(row[column] for row in per_source_rows) / len(per_source_rows)

    report = MetricsReport(
        auc=auc(pos_scores, neg_scores),
        ap_at_k={k: mean(f"ap@{k}") for k in ks},
        ndcg_at_k={k: mean(f"ndcg@{k}") for k in ks},
        recall=recall(pos_scores, neg_scores),
        num_positives=len(positives),
        num_negatives=len(negatives),
        num_ranked_sources=len(per_source_rows),
        config={
            "split": split_name,
            "ks": list(ks),
            "rank_negatives_per_source": rank_negatives_per_source,
            "seed": seed,
        },
        per_source=per_source_rows,
    )
    report.validate()
    return report
