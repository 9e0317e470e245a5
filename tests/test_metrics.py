"""Metric implementations against independent brute-force oracles."""

import numpy as np
import pytest

from aspectcite import auc, average_precision_at_k, evaluate, ndcg_at_k, recall
from aspectcite import split_edges
from aspectcite.metrics import _sample_source_negatives
from test_corpus import random_graph


# -- independent definitional oracles ------------------------------------

def auc_oracle(pos, neg):
    """Literal pair counting: wins + half-ties over all pairs."""
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def ap_oracle(rel, k):
    """Expand the definition with explicit prefix slices."""
    total_relevant = sum(rel)
    if total_relevant == 0:
        return 0.0
    precisions = []
    for p in range(1, min(k, len(rel)) + 1):
        if rel[p - 1]:
            precisions.append(sum(rel[:p]) / p)
    return sum(precisions) / min(k, total_relevant)


def ndcg_oracle(rel, k):
    total_relevant = sum(rel)
    if total_relevant == 0:
        return 0.0
    dcg = sum(rel[p - 1] / np.log2(p + 1) for p in range(1, min(k, len(rel)) + 1))
    ideal_list = sorted(rel, reverse=True)
    idcg = sum(ideal_list[p - 1] / np.log2(p + 1) for p in range(1, min(k, len(rel)) + 1))
    return dcg / idcg


def recall_oracle(pos, neg):
    """Explicit ranking with stable tie order (positives listed first)."""
    tagged = [(s, 0, idx) for idx, s in enumerate(pos)] + [(s, 1, idx) for idx, s in enumerate(neg)]
    tagged.sort(key=lambda t: (-t[0], t[1], t[2]))
    top = tagged[: len(pos)]
    return sum(1 for _, is_neg, _ in top if is_neg == 0) / len(pos)


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.9, 0.8], [0.1, 0.2]) == 1.0

    def test_tie_convention(self):
        assert auc([0.5], [0.5]) == 0.5

    def test_pair_counting_example(self):
        # 3 concordant of 4 pairs
        assert auc([0.8, 0.3], [0.5, 0.1]) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            auc([], [0.1])

    def test_bitwise_equal_to_pair_counting(self):
        # the vectorized wins + half-ties count over all P x N pairs, at sizes
        # well past the exhaustive oracle battle, with and without ties
        rng = np.random.default_rng(13)
        for trial in range(300):
            pos = rng.normal(size=int(rng.integers(1, 600)))
            neg = rng.normal(size=int(rng.integers(1, 600)))
            if trial % 2:
                pos, neg = np.round(pos, 1), np.round(neg, 1)
            wins = np.sum(pos[:, None] > neg[None, :])
            ties = np.sum(pos[:, None] == neg[None, :])
            assert auc(pos, neg) == float((wins + 0.5 * ties) / (pos.size * neg.size))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        pos = rng.normal(size=30)
        neg = rng.normal(size=40)
        raw = auc(pos, neg)
        assert auc(np.exp(pos), np.exp(neg)) == pytest.approx(raw, abs=1e-12)
        assert auc(3 * pos + 7, 3 * neg + 7) == pytest.approx(raw, abs=1e-12)


class TestAveragePrecision:
    def test_all_relevant_first(self):
        assert average_precision_at_k([1, 1, 0], 3) == 1.0

    def test_nothing_relevant(self):
        assert average_precision_at_k([0, 0, 0], 3) == 0.0

    def test_hand_expansion(self):
        assert average_precision_at_k([1, 0, 1], 3) == pytest.approx((1 + 2 / 3) / 2)

    def test_k_limits_the_window(self):
        assert average_precision_at_k([0, 1, 1, 1], 1) == 0.0

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            average_precision_at_k([1], 0)


class TestNdcg:
    def test_ideal_ordering(self):
        assert ndcg_at_k([1, 1, 0], 3) == 1.0

    def test_nothing_relevant(self):
        assert ndcg_at_k([0, 0, 0, 0], 3) == 0.0

    def test_hand_computation(self):
        expected = (1 + 0.5) / (1 + 1 / np.log2(3))
        assert ndcg_at_k([1, 0, 1], 3) == pytest.approx(expected, abs=1e-12)
        assert ndcg_at_k([1, 0, 1], 3) == pytest.approx(0.9197, abs=5e-5)

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            ndcg_at_k([1], 0)


class TestRecall:
    def test_perfect_separation(self):
        assert recall([0.9, 0.8], [0.1]) == 1.0

    def test_inverted(self):
        assert recall([0.1], [0.9]) == 0.0

    def test_top_two_cutoff(self):
        assert recall([0.8, 0.2], [0.5, 0.1]) == 0.5

    def test_tie_prefers_stable_input_order(self):
        # positive listed before an equal-scoring negative keeps the slot
        assert recall([0.5], [0.5]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            recall([0.5], [])


class TestAgainstOracles:
    """Criterion-style battle: 1000 random instances of length <= 20, exact agreement."""

    def test_auc_oracle_battle(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n_pos = int(rng.integers(1, 11))
            n_neg = int(rng.integers(1, 11))
            # quantize so ties actually occur
            pos = np.round(rng.random(n_pos), 1)
            neg = np.round(rng.random(n_neg), 1)
            assert auc(pos, neg) == pytest.approx(auc_oracle(pos, neg), abs=1e-12)

    def test_ap_oracle_battle(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            rel = rng.integers(0, 2, size=rng.integers(1, 21)).tolist()
            k = int(rng.integers(1, 21))
            assert average_precision_at_k(rel, k) == pytest.approx(ap_oracle(rel, k), abs=1e-12)

    def test_ndcg_oracle_battle(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            rel = rng.integers(0, 2, size=rng.integers(1, 21)).tolist()
            k = int(rng.integers(1, 21))
            assert ndcg_at_k(rel, k) == pytest.approx(ndcg_oracle(rel, k), abs=1e-12)

    def test_recall_oracle_battle(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            n_pos = int(rng.integers(1, 11))
            n_neg = int(rng.integers(1, 11))
            pos = np.round(rng.random(n_pos), 1).tolist()
            neg = np.round(rng.random(n_neg), 1).tolist()
            assert recall(pos, neg) == pytest.approx(recall_oracle(pos, neg), abs=1e-12)

    def test_ap1_equals_ndcg1_always(self):
        rng = np.random.default_rng(15)
        for _ in range(500):
            rel = rng.integers(0, 2, size=rng.integers(1, 21)).tolist()
            assert average_precision_at_k(rel, 1) == ndcg_at_k(rel, 1)


class TestEvaluateHarness:
    def test_degenerate_oracle_model_maxes_metrics(self, small_graph, small_split, small_text):
        from aspectcite import ModelParams, Dims, initialize_state

        params = ModelParams.initialize(
            Dims(aspects=2, text_dim=small_text.shape[1], struct_dim=3),
            small_graph.num_nodes,
            np.random.default_rng(0),
        )
        state = initialize_state(small_graph.num_nodes, 2)
        edge_set = set(map(tuple, small_graph.edge_array.tolist()))

        def oracle(pairs):
            return np.asarray([1.0 if (i, j) in edge_set else 0.0 for i, j in pairs])

        report = evaluate(
            params, state, small_split, small_graph, small_text,
            rank_negatives_per_source=5, score_fn=oracle,
        )
        assert report.auc == 1.0
        assert report.recall == 1.0
        assert all(v == 1.0 for v in report.ap_at_k.values())

    def test_random_scorer_auc_near_half(self, small_graph, small_split, small_text):
        from aspectcite import ModelParams, Dims, initialize_state

        params = ModelParams.initialize(
            Dims(aspects=2, text_dim=small_text.shape[1], struct_dim=3),
            small_graph.num_nodes,
            np.random.default_rng(0),
        )
        state = initialize_state(small_graph.num_nodes, 2)
        aucs = []
        for seed in range(10):
            rng = np.random.default_rng(seed)

            def scorer(pairs):
                return rng.random(len(pairs))

            report = evaluate(
                params, state, small_split, small_graph, small_text,
                rank_negatives_per_source=5, score_fn=scorer, seed=seed,
            )
            aucs.append(report.auc)
        assert 0.4 <= float(np.mean(aucs)) <= 0.6

    def test_report_is_valid_and_deterministic(self, small_graph, small_split, small_text):
        from aspectcite import ModelParams, Dims, initialize_state

        params = ModelParams.initialize(
            Dims(aspects=3, text_dim=small_text.shape[1], struct_dim=3),
            small_graph.num_nodes,
            np.random.default_rng(1),
        )
        state = initialize_state(small_graph.num_nodes, 3)
        a = evaluate(params, state, small_split, small_graph, small_text, rank_negatives_per_source=4)
        b = evaluate(params, state, small_split, small_graph, small_text, rank_negatives_per_source=4)
        a.validate()
        assert a.to_dict() == b.to_dict()

    def test_per_source_rows_average_to_the_report(self, small_graph, small_split, small_text):
        """`evaluate` returns its per-source rows and writes no file; they stay out of `to_dict`."""
        from aspectcite import ModelParams, Dims, initialize_state
        from aspectcite.metrics import MetricsReport

        params = ModelParams.initialize(
            Dims(aspects=2, text_dim=small_text.shape[1], struct_dim=3),
            small_graph.num_nodes,
            np.random.default_rng(2),
        )
        state = initialize_state(small_graph.num_nodes, 2)
        report = evaluate(params, state, small_split, small_graph, small_text, rank_negatives_per_source=4)
        rows = report.per_source
        assert len(rows) == report.num_ranked_sources > 0
        assert list(rows[0]) == ["source", "positives", "candidates", "ap@1", "ndcg@1", "ap@5", "ndcg@5",
                                 "ap@10", "ndcg@10"]
        for k in report.ap_at_k:
            assert sum(row[f"ap@{k}"] for row in rows) / len(rows) == pytest.approx(report.ap_at_k[k], rel=1e-12)
            assert sum(row[f"ndcg@{k}"] for row in rows) / len(rows) == pytest.approx(report.ndcg_at_k[k], rel=1e-12)
        assert "per_source" not in report.to_dict()
        fields = {name: value for name, value in report.to_dict().items() if name != "config"}
        assert MetricsReport(**fields).per_source == []  # a report rebuilt from metrics.json's keys

    @pytest.mark.parametrize("ks", [(5, 5, 1), (), (0, 5), [1, 1]])
    def test_ks_must_be_distinct_and_positive(self, small_graph, small_split, small_text, ks):
        # a repeated k once added each source's AP@k and nDCG@k once per occurrence but divided once
        from aspectcite import ModelParams, Dims, initialize_state

        params = ModelParams.initialize(
            Dims(aspects=2, text_dim=small_text.shape[1], struct_dim=3),
            small_graph.num_nodes,
            np.random.default_rng(0),
        )
        state = initialize_state(small_graph.num_nodes, 2)
        with pytest.raises(ValueError, match="ks must be one or more distinct integers >= 1"):
            evaluate(params, state, small_split, small_graph, small_text, ks=ks)

    def test_empty_split_rejected(self, small_graph, small_text):
        from aspectcite import ModelParams, Dims, initialize_state
        from aspectcite.corpus import DatasetSplit

        params = ModelParams.initialize(
            Dims(aspects=2, text_dim=small_text.shape[1], struct_dim=3),
            small_graph.num_nodes,
            np.random.default_rng(0),
        )
        state = initialize_state(small_graph.num_nodes, 2)
        empty = DatasetSplit(
            train_edges=small_graph.edge_array,
            validation_edges=(),
            test_edges=(),
            negatives={"train": (), "validation": (), "test": ()},
            seed=0,
        )
        with pytest.raises(ValueError, match="no positive edges"):
            evaluate(params, state, empty, small_graph, small_text)


def sample_source_negatives_reference(source, graph, count, rng):
    """`metrics._sample_source_negatives` as it drew one candidate at a time
    before its rounds were batched, verbatim."""
    n = graph.num_nodes
    existing = set(graph.out_neighbors(source).tolist())
    max_available = n - 1 - len(existing)
    count = min(count, max_available)
    chosen: dict[int, None] = {}  # insertion-ordered set
    while len(chosen) < count:
        cand = int(rng.integers(n))
        if cand != source and cand not in existing:
            chosen[cand] = None
    return list(chosen)


class TestBatchedSourceNegatives:
    @pytest.mark.parametrize("num_nodes,num_edges,count", [
        (2708, 5429, 50),  # Cora-shaped, at the default rank_negatives_per_source
        (30, 600, 5),  # 69% dense: most candidates are rejected
        (30, 600, 50),  # more than a source has non-neighbors: all of them, in draw order
        (6, 20, 3),
    ])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_negatives_and_next_draw_as_one_at_a_time(self, num_nodes, num_edges, count, seed):
        graph = random_graph(num_nodes, num_edges, seed)
        batched_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for source in range(0, graph.num_nodes, max(1, graph.num_nodes // 40)):
            got = _sample_source_negatives(source, graph, count, batched_rng)
            assert got == sample_source_negatives_reference(source, graph, count, reference_rng), source
            assert all(type(node) is int for node in got)
        assert batched_rng.integers(2**62) == reference_rng.integers(2**62)
