"""Aspect-level interpretability: which nodes cite a target for which reason.

Every citer of a target is assigned to exactly one aspect (its deterministic
argmax), ranked within that aspect by selected-aspect impact, and each aspect
group is summarized by the citers' most frequent tokens. Output is
machine-readable (JSON or CSV); rendering word clouds is someone else's job.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .codec import write_atomically, write_json
from .graph import CitationGraph
from .model import ModelParams, impacts_for_pairs, select_aspects
from .propagation import AspectState

__all__ = ["AspectExplanation", "RankedCiter", "explain_target", "export_explanation"]


@dataclass(frozen=True)
class RankedCiter:
    node_id: str
    score: float
    rank: int


@dataclass(frozen=True)
class AspectExplanation:
    """Per-aspect ranked citers and term summaries for one target node."""

    target_id: str
    aspects: tuple  # tuple over aspects of tuple[RankedCiter, ...]
    terms: tuple  # tuple over aspects of tuple[str, ...]
    note: str = ""

    def validate(self) -> None:
        seen: set[str] = set()
        for group in self.aspects:
            scores = [c.score for c in group]
            if any(a < b for a, b in zip(scores, scores[1:])):
                raise ValueError("scores within an aspect must be nonincreasing by rank")
            for citer in group:
                if citer.node_id in seen:
                    raise ValueError(f"citer {citer.node_id!r} appears under more than one aspect")
                seen.add(citer.node_id)

    def to_dict(self) -> dict:
        return {
            "target": self.target_id,
            "note": self.note,
            "aspects": [
                {
                    "aspect": k,
                    "citers": [
                        {"node": c.node_id, "score": c.score, "rank": c.rank} for c in group
                    ],
                    "top_terms": list(self.terms[k]),
                }
                for k, group in enumerate(self.aspects)
            ],
        }


def explain_target(
    target: str,
    params: ModelParams,
    state: AspectState,
    graph: CitationGraph,
    text_vectors: np.ndarray,
    texts: dict | None = None,
    top_n: int = 5,
    top_m: int = 10,
) -> AspectExplanation:
    """Group the target's citers by their argmax aspect and rank within groups.

    text_vectors is the (N, L_t) embedding matrix the model was trained with.
    texts maps node_id -> token sequence (already channel-merged) and feeds
    the per-aspect term summary: document frequency over the exported citers,
    ties broken alphabetically. Pass None to skip term summaries.
    A target nobody cites yields an empty explanation with a note.
    """
    if top_n < 1 or top_m < 0:
        raise ValueError("top_n must be >= 1 and top_m >= 0")
    t = graph.index_of(target)
    aspects = params.dims.aspects
    citers = graph.in_neighbors(t)
    if len(citers) == 0:
        return AspectExplanation(
            target_id=target,
            aspects=tuple(() for _ in range(aspects)),
            terms=tuple(() for _ in range(aspects)),
            note="target has no citers",
        )

    pairs = np.asarray([(int(i), t) for i in citers])
    _, impact_rows = impacts_for_pairs(pairs, state.matrix, params, text_vectors, scores=False)
    chosen = select_aspects(impact_rows)
    scores = impact_rows[np.arange(len(chosen)), chosen]  # one chosen-aspect impact per citer, in citer order

    groups: list[tuple[RankedCiter, ...]] = []
    terms: list[tuple[str, ...]] = []
    for k in range(aspects):
        members = [(float(scores[m]), int(citers[m])) for m in np.flatnonzero(chosen == k)]
        members.sort(key=lambda sc: (-sc[0], sc[1]))
        top = members[:top_n]
        groups.append(
            tuple(
                RankedCiter(node_id=graph.node_ids[node], score=score, rank=rank)
                for rank, (score, node) in enumerate(top, start=1)
            )
        )
        if texts is None or top_m == 0:
            terms.append(())
            continue
        frequency: dict[str, int] = {}
        for _, node in top:
            for token in set(texts.get(graph.node_ids[node], ())):
                frequency[token] = frequency.get(token, 0) + 1
        ordered = sorted(frequency.items(), key=lambda kv: (-kv[1], kv[0]))
        terms.append(tuple(tok for tok, _ in ordered[:top_m]))

    explanation = AspectExplanation(target_id=target, aspects=tuple(groups), terms=tuple(terms))
    explanation.validate()
    return explanation


def export_explanation(explanation: AspectExplanation, path, format: str = "json") -> None:
    """Write atomically and deterministically; CSV is one row per (aspect, rank, citer, score)."""
    if format == "json":
        write_json(path, explanation.to_dict())
        return
    if format == "csv":
        def write(tmp: str) -> None:
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["aspect", "rank", "citer", "score"])
                for k, group in enumerate(explanation.aspects):
                    for citer in group:
                        writer.writerow([k, citer.rank, citer.node_id, repr(citer.score)])

        write_atomically(path, write)
        return
    raise ValueError(f"unknown export format {format!r}; use 'json' or 'csv'")
