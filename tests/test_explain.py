"""Aspect-explanation grouping, ranking, and export contracts."""

import csv
import json

import numpy as np
import pytest

from aspectcite import (
    Dims,
    ModelParams,
    build_graph,
    explain_target,
    export_explanation,
    initialize_state,
)


def setup_artifacts(graph, aspects=3, text_dim=4, seed=0):
    dims = Dims(aspects=aspects, text_dim=text_dim, struct_dim=3)
    params = ModelParams.initialize(dims, graph.num_nodes, np.random.default_rng(seed))
    state = initialize_state(graph.num_nodes, aspects)
    texts = np.random.default_rng(seed + 1).normal(size=(graph.num_nodes, text_dim))
    return params, state, texts


class TestExplainTarget:
    def test_single_citer_gets_rank_one(self):
        graph = build_graph([("a", "t"), ("t", "b")])
        params, state, texts = setup_artifacts(graph)
        exp = explain_target("t", params, state, graph, texts)
        groups = [g for g in exp.aspects if g]
        assert len(groups) == 1
        assert groups[0][0].node_id == "a"
        assert groups[0][0].rank == 1

    def test_identical_impacts_tie_break_by_node_index(self):
        graph = build_graph([("a", "t"), ("b", "t")])
        params, state, texts = setup_artifacts(graph)
        texts[graph.index_of("a")] = texts[graph.index_of("b")]
        params.node_embeddings[graph.index_of("a")] = params.node_embeddings[graph.index_of("b")]
        exp = explain_target("t", params, state, graph, texts)
        group = next(g for g in exp.aspects if g)
        assert [c.node_id for c in group] == ["a", "b"]
        assert [c.rank for c in group] == [1, 2]

    def test_no_citers_yields_note_not_error(self):
        graph = build_graph([("t", "b")])
        params, state, texts = setup_artifacts(graph)
        exp = explain_target("t", params, state, graph, texts)
        assert all(len(g) == 0 for g in exp.aspects)
        assert "no citers" in exp.note

    def test_unknown_target_raises(self):
        graph = build_graph([("a", "b")])
        params, state, texts = setup_artifacts(graph)
        with pytest.raises(KeyError):
            explain_target("zzz", params, state, graph, texts)

    def test_partition_covers_all_citers_disjointly(self):
        rng = np.random.default_rng(3)
        edges = {(f"c{i}", "t") for i in range(12)}
        edges |= {("t", "x")}
        graph = build_graph(sorted(edges))
        params, state, texts = setup_artifacts(graph, aspects=4)
        exp = explain_target("t", params, state, graph, texts, top_n=12)
        exp.validate()
        members = [c.node_id for group in exp.aspects for c in group]
        assert sorted(members) == sorted(f"c{i}" for i in range(12))

    def test_top_n_truncates(self):
        edges = sorted({(f"c{i}", "t") for i in range(9)})
        graph = build_graph(edges)
        params, state, texts = setup_artifacts(graph, aspects=2)
        exp = explain_target("t", params, state, graph, texts, top_n=2)
        assert all(len(group) <= 2 for group in exp.aspects)

    def test_scores_nonincreasing_within_aspect(self):
        edges = sorted({(f"c{i}", "t") for i in range(10)})
        graph = build_graph(edges)
        params, state, texts = setup_artifacts(graph, aspects=2, seed=5)
        exp = explain_target("t", params, state, graph, texts, top_n=10)
        for group in exp.aspects:
            scores = [c.score for c in group]
            assert scores == sorted(scores, reverse=True)

    def test_rerun_is_bit_identical(self):
        edges = sorted({(f"c{i}", "t") for i in range(8)})
        graph = build_graph(edges)
        params, state, texts = setup_artifacts(graph, aspects=3, seed=7)
        tokens = {f"c{i}": [f"w{i % 3}", "shared"] for i in range(8)}
        a = explain_target("t", params, state, graph, texts, texts=tokens)
        b = explain_target("t", params, state, graph, texts, texts=tokens)
        assert a == b

    def test_term_summary_document_frequency_with_alphabetical_ties(self):
        edges = sorted({("c0", "t"), ("c1", "t"), ("c2", "t")})
        graph = build_graph(edges)
        params, state, texts = setup_artifacts(graph, aspects=1)
        tokens = {
            "c0": ["beta", "alpha", "beta"],  # duplicates within a doc count once
            "c1": ["beta", "gamma"],
            "c2": ["alpha"],
        }
        exp = explain_target("t", params, state, graph, texts, texts=tokens, top_m=2)
        assert exp.terms[0] == ("alpha", "beta")  # both df=2, alphabetical tie-break


class TestMiniaturePlantedSeparation:
    """Six citers of one target, two token groups, trained until the margins
    hold; the two citer groups must land in different aspects with disjoint
    term summaries."""

    def test_trained_groups_have_disjoint_terms(self):
        from aspectcite import TrainConfig
        from aspectcite.seeding import substream
        from aspectcite.training import (
            _forward,
            batch_loss,
            batch_loss_and_grads,
            sample_batch_alphas,
        )
        from aspectcite.model import select_aspects

        edges = [(f"c{i}", "t") for i in range(6)]
        graph = build_graph(edges)
        tokens = {
            "c0": ["conv", "net"], "c1": ["conv", "net"], "c2": ["conv", "net"],
            "c3": ["video", "frame"], "c4": ["video", "frame"], "c5": ["video", "frame"],
            "t": ["conv", "net", "video", "frame"],
        }
        vocab = ["conv", "net", "video", "frame"]
        table = {w: 4.0 * np.eye(4)[i] for i, w in enumerate(vocab)}
        texts = np.zeros((graph.num_nodes, 4))
        for row, nid in enumerate(graph.node_ids):
            texts[row] = np.mean([table[w] for w in tokens[nid]], axis=0)

        config = TrainConfig(aspects=4, struct_dim=4, margin_edge=0.25, margin_aspect=0.5, seed=3)
        dims = Dims(aspects=4, text_dim=4, struct_dim=4)
        params = ModelParams.initialize(dims, graph.num_nodes, substream(3, "init"))
        state = initialize_state(graph.num_nodes, 4)
        t_idx = graph.index_of("t")
        citer_idx = [graph.index_of(f"c{i}") for i in range(6)]
        # negatives drawn from the opposite token group (non-edges)
        triplets = [(c, t_idx, citer_idx[(pos + 3) % 6]) for pos, c in enumerate(citer_idx)]
        rng = substream(3, "gumbel")
        for _ in range(400):
            fw = _forward(params, state.matrix, texts, triplets)
            alphas = sample_batch_alphas(fw["imp_j"], rng)
            _, grads = batch_loss_and_grads(params, fw, alphas, config)
            for name, grad in grads.items():
                tensor = getattr(params, name)
                tensor -= config.learning_rate * grad
        final_alphas = select_aspects(_forward(params, state.matrix, texts, triplets)["imp_j"])
        final = batch_loss(params, state.matrix, texts, triplets, final_alphas, config)
        assert final / len(triplets) <= 0.05

        exp = explain_target("t", params, state, graph, texts, texts=tokens, top_n=6, top_m=2)
        populated = [(set(c.node_id for c in group), set(terms)) for group, terms in zip(exp.aspects, exp.terms) if group]
        assert len(populated) == 2
        (members_a, terms_a), (members_b, terms_b) = populated
        assert {frozenset(members_a), frozenset(members_b)} == {
            frozenset({"c0", "c1", "c2"}), frozenset({"c3", "c4", "c5"})
        }
        assert terms_a.isdisjoint(terms_b)


class TestExport:
    def make_explanation(self):
        edges = sorted({(f"c{i}", "t") for i in range(6)})
        graph = build_graph(edges)
        params, state, texts = setup_artifacts(graph, aspects=3, seed=2)
        tokens = {f"c{i}": [f"w{i}"] for i in range(6)}
        return explain_target("t", params, state, graph, texts, texts=tokens)

    def test_json_round_trip(self, tmp_path):
        exp = self.make_explanation()
        path = tmp_path / "exp.json"
        export_explanation(exp, path, format="json")
        assert json.loads(path.read_text(encoding="utf-8")) == exp.to_dict()

    def test_empty_explanation_exports_valid_file(self, tmp_path):
        graph = build_graph([("t", "b")])
        params, state, texts = setup_artifacts(graph)
        exp = explain_target("t", params, state, graph, texts)
        path = tmp_path / "empty.json"
        export_explanation(exp, path, format="json")
        payload = json.loads(path.read_text())
        assert all(entry["citers"] == [] for entry in payload["aspects"])

    def test_csv_row_count_matches_group_sizes(self, tmp_path):
        exp = self.make_explanation()
        path = tmp_path / "exp.csv"
        export_explanation(exp, path, format="csv")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        expected = sum(len(group) for group in exp.aspects)
        assert len(rows) == expected + 1  # header

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            export_explanation(self.make_explanation(), tmp_path / "x.bin", format="bin")
