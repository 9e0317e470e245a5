"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criteria 1 and 2 need the public Cora dataset on disk (see demos/fetch_cora.py);
they skip with an explanatory message when it is absent.
"""

import itertools
import json
import os
import time

import numpy as np
import pytest

import aspectcite as ac
from aspectcite.cli import main
from aspectcite.corpus import TokenizedDocument, WordVectorTable, embed_documents
from aspectcite.model import Dims, ModelParams, sample_aspect, select_aspects, softmax
from aspectcite.propagation import (
    AspectState,
    apply_projection,
    build_transition,
    initialize_state,
    propagate,
)
from aspectcite.seeding import substream
from aspectcite.training import (
    TrainConfig,
    _forward,
    batch_loss,
    batch_loss_and_grads,
)

from test_metrics import ap_oracle, auc_oracle, ndcg_oracle, recall_oracle
from test_propagation import dense_projection, random_instance


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


# ------------------------------------------------------------------ Cora

def load_cora():
    """Locate and parse the LINQS Cora files; None when unavailable."""
    root = os.environ.get("CORA_DIR", os.path.join(os.path.dirname(__file__), "data", "cora"))
    cites = os.path.join(root, "cora.cites")
    content = os.path.join(root, "cora.content")
    if not (os.path.isfile(cites) and os.path.isfile(content)):
        return None
    features = {}
    with open(content, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            features[parts[0]] = np.asarray([float(v) for v in parts[1:-1]])
    edges = []
    seen = set()
    with open(cites, encoding="utf-8") as fh:
        for line in fh:
            cited, citing = line.split()
            if citing == cited or (citing, cited) in seen:
                continue
            seen.add((citing, cited))
            edges.append((citing, cited))
    graph = ac.build_graph(edges)
    matrix = np.zeros((graph.num_nodes, len(next(iter(features.values())))))
    for row, nid in enumerate(graph.node_ids):
        if nid in features:
            matrix[row] = features[nid]
    return graph, matrix


CORA_SKIP = (
    "Cora dataset not found (set $CORA_DIR or place cora.cites/cora.content under "
    "tests/data/cora; demos/fetch_cora.py downloads and converts it on a networked machine)"
)


@pytest.mark.slow
def test_criterion_1_cora_link_prediction():
    cora = load_cora()
    if cora is None:
        pytest.skip(CORA_SKIP)
    graph, features = cora
    started = time.perf_counter()
    split = ac.split_edges(graph, (0.8, 0.1, 0.1), 1, seed=0)
    result = ac.fit(graph, split, TrainConfig(seed=0), features)
    metrics = ac.evaluate(result.params, result.state, split, graph, features, seed=0)
    elapsed = time.perf_counter() - started
    report(
        1,
        metrics.auc >= 0.85 and elapsed <= 900,
        f"Cora DP default config: AUC={metrics.auc:.4f} (floor 0.85), {elapsed:.0f}s (limit 900s)",
    )


@pytest.mark.slow
def test_criterion_2_dp_beats_ndp_on_cora():
    cora = load_cora()
    if cora is None:
        pytest.skip(CORA_SKIP)
    graph, features = cora
    started = time.perf_counter()
    dp_aucs, ndp_aucs = [], []
    for seed in range(5):
        split = ac.split_edges(graph, (0.8, 0.1, 0.1), 1, seed=seed)
        for dynamic, bucket in ((True, dp_aucs), (False, ndp_aucs)):
            result = ac.fit(graph, split, TrainConfig(dynamic_propagation=dynamic, seed=seed), features)
            bucket.append(ac.evaluate(result.params, result.state, split, graph, features, seed=seed).auc)
    elapsed = time.perf_counter() - started
    dp_med, ndp_med = float(np.median(dp_aucs)), float(np.median(ndp_aucs))
    report(
        2,
        dp_med >= ndp_med and elapsed <= 1800,
        f"Cora DP median AUC {dp_med:.4f} vs NDP {ndp_med:.4f} over 5 shared seeds, {elapsed:.0f}s (limit 1800s)",
    )


# ------------------------------------------------- criterion 3: ablation

def multichannel_dataset(seed, n=100, m=400, communities=4):
    """title: crisp community words; abstract: diluted; claim: pure noise."""
    rng = np.random.default_rng(seed)
    group = rng.integers(communities, size=n)
    edges = set()
    while len(edges) < m:
        a, b = int(rng.integers(n)), int(rng.integers(n))
        if a == b:
            continue
        if group[a] != group[b] and rng.random() < 0.9:
            continue
        edges.add((f"n{a}", f"n{b}"))
    graph = ac.build_graph(sorted(edges))
    title_vocab = {c: [f"t{c}_{w}" for w in range(4)] for c in range(communities)}
    abstract_vocab = {c: [f"s{c}_{w}" for w in range(4)] for c in range(communities)}
    noise_vocab = [f"x{w}" for w in range(30)]
    docs = {}
    for nid in graph.node_ids:
        c = int(group[int(nid[1:])])
        docs[nid] = TokenizedDocument(
            nid,
            {
                "title": tuple(rng.choice(title_vocab[c], size=3)),
                "abstract": tuple(rng.choice(abstract_vocab[c], size=2)) + tuple(rng.choice(noise_vocab, size=3)),
                "claim": tuple(rng.choice(noise_vocab, size=4)),
            },
        )
    words = (
        [w for c in range(communities) for w in title_vocab[c]]
        + [w for c in range(communities) for w in abstract_vocab[c]]
        + noise_vocab
    )
    table = WordVectorTable(
        dimension=len(words), vectors={w: 4.0 * np.eye(len(words))[i] for i, w in enumerate(words)}
    )
    return graph, docs, table


def test_criterion_3_channel_ablation_direction():
    combos = [
        ("title",), ("abstract",), ("claim",),
        ("title", "abstract"), ("title", "claim"), ("abstract", "claim"),
        ("title", "abstract", "claim"),
    ]
    means = {}
    results = {combo: [] for combo in combos}
    for seed in range(5):
        graph, docs, table = multichannel_dataset(seed)
        split = ac.split_edges(graph, (0.8, 0.1, 0.1), 1, seed=seed)
        for combo in combos:
            text, _ = embed_documents(docs, graph.node_ids, combo, table)
            config = TrainConfig(
                aspects=3, struct_dim=8, epochs_per_phase=10, alternations=2,
                batch_size=64, seed=seed,
            )
            result = ac.fit(graph, split, config, text)
            metrics = ac.evaluate(
                result.params, result.state, split, graph, text,
                rank_negatives_per_source=20, seed=seed,
            )
            results[combo].append(metrics.ap_at_k[10])
    means = {combo: float(np.mean(vals)) for combo, vals in results.items()}
    weakest_single = min(means[c] for c in combos[:3])
    worst_margin = min(means[c] - (weakest_single - 0.02) for c in combos[3:])
    report(
        3,
        worst_margin >= 0.0,
        "multi-channel AP@10 vs weakest single channel over 5 seeds: "
        + ", ".join(f"{'+'.join(c)}={means[c]:.3f}" for c in combos)
        + f"; worst margin {worst_margin:+.3f} (floor 0.0 after the 0.02 noise allowance)",
    )


# --------------------------------------------- criterion 4: propagation

def test_criterion_4_propagation_against_dense_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(100):
        n, aspects, edges, impacts = random_instance(rng, max_n=50, max_aspects=4)
        op = build_transition(edges, impacts, n)
        result = propagate(op, initialize_state(n, aspects), max_steps=2000, epsilon=1e-12)
        dense = dense_projection(edges, impacts, n)
        for k in range(aspects):
            v = np.full(n, 1.0 / n)
            for _ in range(5000):
                nxt = dense[k] @ v
                delta = np.abs(nxt - v).sum()
                v = nxt
                if delta < 1e-14:
                    break
            worst = max(worst, float(np.abs(result.matrix[:, k] - v).sum()))
    # mass conservation at N = 10^4
    big_rng = np.random.default_rng(77)
    n = 10_000
    rows = big_rng.integers(n, size=30_000)
    cols = big_rng.integers(n, size=30_000)
    keep = rows != cols
    edges = np.stack([rows[keep], cols[keep]], axis=1)
    op = build_transition(edges, big_rng.random((len(edges), 3)), n)
    out = apply_projection(op, initialize_state(n, 3))
    mass_error = float(np.max(np.abs(out.matrix.sum(axis=0) - 1.0)))
    elapsed = time.perf_counter() - started
    report(
        4,
        worst < 1e-6 and mass_error < 1e-9 and elapsed <= 120,
        f"100 random graphs: max L1 gap to dense oracle {worst:.2e} (tol 1e-6); "
        f"mass error at N=1e4 {mass_error:.2e} (tol 1e-9); {elapsed:.0f}s (limit 120s)",
    )


# ----------------------------------------------- criterion 5: gradients

def test_criterion_5_gradients_match_finite_differences():
    started = time.perf_counter()
    h = 1e-5
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(10):
        aspects = int(rng.integers(2, 6))
        text_dim = int(rng.integers(2, 7))
        struct_dim = int(rng.integers(2, 7))
        n = 12
        params = ModelParams.initialize(
            Dims(aspects=aspects, text_dim=text_dim, struct_dim=struct_dim), n,
            np.random.default_rng(trial),
        )
        for name in ModelParams.TENSOR_FIELDS:
            tensor = getattr(params, name)
            tensor += rng.normal(scale=0.3, size=tensor.shape)
        text = rng.normal(size=(n, text_dim))
        state = np.abs(rng.normal(size=(n, aspects)))
        state /= state.sum(axis=0)
        triplets = []
        while len(triplets) < 6:
            i, j, k = (int(v) for v in rng.integers(n, size=3))
            if len({i, j, k}) == 3:
                triplets.append((i, j, k))
        config = TrainConfig(aspects=aspects, struct_dim=struct_dim, seed=0)
        fw = _forward(params, state, text, triplets)
        alphas = select_aspects(fw["imp_j"])
        _, grads = batch_loss_and_grads(params, fw, alphas, config)
        for name in ModelParams.TENSOR_FIELDS:
            flat = getattr(params, name).ravel()
            for idx in rng.choice(flat.size, size=min(10, flat.size), replace=False):
                original = flat[idx]
                flat[idx] = original + h
                up = batch_loss(params, state, text, triplets, alphas, config)
                flat[idx] = original - h
                down = batch_loss(params, state, text, triplets, alphas, config)
                flat[idx] = original
                fd = (up - down) / (2 * h)
                an = grads[name].ravel()[idx]
                worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1.0))
    elapsed = time.perf_counter() - started
    report(
        5,
        worst <= 1e-4 and elapsed <= 60,
        f"10 random configurations, alpha frozen, h=1e-5: worst relative gradient error "
        f"{worst:.2e} (tol 1e-4); {elapsed:.0f}s (limit 60s)",
    )


# ------------------------------------------- criterion 6: Gumbel-max law

def test_criterion_6_gumbel_max_statistics():
    started = time.perf_counter()
    rng = np.random.default_rng(31337)
    draws = 100_000
    worst_sigma = 0.0
    for _ in range(20):
        size = int(rng.integers(2, 7))
        d_pair = rng.normal(scale=1.5, size=size)
        pi = softmax(d_pair)
        u = rng.random((draws, size))
        perturbed = -np.log(-np.log(u)) + np.log(pi)
        counts = np.bincount(np.argmax(perturbed, axis=1), minlength=size)
        freq = counts / draws
        se = np.sqrt(pi * (1 - pi) / draws)
        worst_sigma = max(worst_sigma, float(np.max(np.abs(freq - pi) / se)))
    elapsed = time.perf_counter() - started
    report(
        6,
        worst_sigma <= 3.0 and elapsed <= 60,
        f"20 random impact vectors x 1e5 draws: worst deviation {worst_sigma:.2f} standard errors "
        f"(limit 3); {elapsed:.0f}s (limit 60s)",
    )


def test_criterion_6_single_vector_api_agrees():
    # the per-vector op follows the same law (smaller sample for runtime)
    rng = substream(5, "gumbel-check")
    d_pair = np.array([0.0, 0.0])
    counts = np.zeros(2)
    for _ in range(20_000):
        hard, _ = sample_aspect(d_pair, mode="train", rng=rng)
        counts += hard
    freq = counts / counts.sum()
    assert np.allclose(freq, 0.5, atol=0.015)


# --------------------------------------------- criterion 7: metric oracles

def test_criterion_7_metric_oracles_exact():
    rng = np.random.default_rng(4242)
    worst = 0.0
    for _ in range(1000):
        n_pos = int(rng.integers(1, 11))
        n_neg = int(rng.integers(1, 11))
        pos = np.round(rng.random(n_pos), 1)
        neg = np.round(rng.random(n_neg), 1)
        worst = max(worst, abs(ac.auc(pos, neg) - auc_oracle(pos, neg)))
        worst = max(worst, abs(ac.recall(pos.tolist(), neg.tolist()) - recall_oracle(pos.tolist(), neg.tolist())))
        rel = rng.integers(0, 2, size=int(rng.integers(1, 21))).tolist()
        k = int(rng.integers(1, 21))
        worst = max(worst, abs(ac.average_precision_at_k(rel, k) - ap_oracle(rel, k)))
        worst = max(worst, abs(ac.ndcg_at_k(rel, k) - ndcg_oracle(rel, k)))
    report(
        7,
        worst <= 1e-12,
        f"AUC/AP@k/nDCG@k/Recall vs definitional expansions on 1000 instances: "
        f"max abs deviation {worst:.2e} (exact up to IEEE rounding, tol 1e-12)",
    )


# --------------------------------------------- criterion 8: determinism

def _write_toy_dataset(root):
    rng = np.random.default_rng(3)
    edges = set()
    while len(edges) < 60:
        a, b = rng.integers(30, size=2)
        if a != b:
            edges.add((f"p{a}", f"p{b}"))
    (root / "edges.tsv").write_text(
        "\n".join(f"{a}\t{b}" for a, b in sorted(edges)) + "\n", encoding="utf-8"
    )
    words = [f"w{i}" for i in range(15)]
    lines = []
    for node in sorted({n for e in edges for n in e}):
        lines.append(f"{node}\ttitle\t{' '.join(rng.choice(words, size=3, replace=False))}")
    (root / "text.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (root / "vectors.txt").write_text(
        "\n".join(f"{w} " + " ".join(f"{v:.4f}" for v in rng.normal(size=6)) for w in words) + "\n",
        encoding="utf-8",
    )


def test_criterion_8_pipeline_determinism(tmp_path):
    _write_toy_dataset(tmp_path)
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main([
            "ingest", "--edges", str(tmp_path / "edges.tsv"), "--node-text", str(tmp_path / "text.tsv"),
            "--word-vectors", str(tmp_path / "vectors.txt"), "--out-dir", str(out), "--seed", "11",
        ]) == 0
        assert main([
            "train", "--manifest", str(out / "manifest.json"), "--out-dir", str(out),
            "--aspects", "3", "--struct-dim", "4", "--epochs-per-phase", "3",
            "--alternations", "2", "--batch-size", "16", "--seed", "11",
        ]) == 0
        assert main([
            "evaluate", "--manifest", str(out / "manifest.json"), "--checkpoint", str(out / "checkpoint.json"),
            "--state", str(out / "state.json"), "--out-dir", str(out), "--rank-negatives", "5", "--seed", "11",
        ]) == 0
        target = json.loads((out / "manifest.json").read_text())["edges"][0][1]
        assert main([
            "explain", "--manifest", str(out / "manifest.json"), "--checkpoint", str(out / "checkpoint.json"),
            "--state", str(out / "state.json"), "--target", target, "--node-text", str(tmp_path / "text.tsv"),
            "--out-dir", str(out),
        ]) == 0
        artifacts = {}
        for name in ("manifest.json", "text_vectors.npy", "checkpoint.json", "checkpoint.bin", "state.json",
                     "state.bin", "metrics.json", "explanation.json"):
            artifacts[name] = (out / name).read_bytes()
        # the report carries wall-clock under "timing"; compare it with that key dropped
        rep = json.loads((out / "report.json").read_text())
        rep.pop("timing", None)
        artifacts["report.json"] = json.dumps(rep, sort_keys=True).encode()
        outputs.append(artifacts)
    mismatched = [name for name in outputs[0] if outputs[0][name] != outputs[1][name]]
    report(
        8,
        not mismatched,
        "two seeded ingest->train->evaluate->explain pipelines byte-identical "
        f"(timestamps excluded); mismatches: {mismatched or 'none'}",
    )


# ---------------------------------- criterion 9: planted-aspect recovery

def planted_two_topic_dataset(seed=0, n_mixed=20, n_per_topic=90):
    """200 nodes; every mixed target owns disjoint alpha/beta word triples and
    each source carries the topic-side words of the two targets it cites."""
    rng = np.random.default_rng(seed)
    edges = []
    cited = {}
    for topic in ("a", "b"):
        for s in range(n_per_topic):
            targets = sorted(rng.choice(n_mixed, size=2, replace=False))
            cited[f"{topic}{s}"] = targets
            for m in targets:
                edges.append((f"{topic}{s}", f"mix{m}"))
    graph = ac.build_graph(sorted(set(edges)))

    words = []
    for m in range(n_mixed):
        words += [f"alpha{m}_{w}" for w in range(3)] + [f"beta{m}_{w}" for w in range(3)]
    texts = {}
    for m in range(n_mixed):
        texts[f"mix{m}"] = [f"alpha{m}_{w}" for w in range(3)] + [f"beta{m}_{w}" for w in range(3)]
    for topic, side in (("a", "alpha"), ("b", "beta")):
        for s in range(n_per_topic):
            tokens = []
            for m in cited[f"{topic}{s}"]:
                tokens += [f"{side}{m}_{w}" for w in range(3)]
            texts[f"{topic}{s}"] = tokens
    table = WordVectorTable(
        dimension=len(words), vectors={w: 4.0 * np.eye(len(words))[i] for i, w in enumerate(words)}
    )
    docs = {nid: TokenizedDocument(nid, {"title": tuple(tokens)}) for nid, tokens in texts.items()}
    text_matrix, _ = embed_documents(docs, graph.node_ids, ("title",), table)
    return graph, text_matrix, texts


def test_criterion_9_planted_aspect_recovery():
    graph, text, texts = planted_two_topic_dataset(seed=0)
    assert graph.num_nodes == 200
    split = ac.split_edges(graph, (0.9, 0.05, 0.05), 1, seed=0)
    config = TrainConfig(
        aspects=8, struct_dim=8, epochs_per_phase=80, alternations=2,
        batch_size=64, margin_edge=0.25, margin_aspect=0.5, seed=0,
    )
    result = ac.fit(graph, split, config, text)
    final_loss = result.report["stages"][0]["sy_phases"][-1]["train_loss"][-1]

    pure = total = 0
    for m in range(20):
        explanation = ac.explain_target(
            f"mix{m}", result.params, result.state, graph, text, texts=texts, top_n=1000
        )
        for group in explanation.aspects:
            if not group:
                continue
            topic_a = sum(1 for citer in group if citer.node_id.startswith("a"))
            topic_b = sum(1 for citer in group if citer.node_id.startswith("b"))
            pure += max(topic_a, topic_b)
            total += topic_a + topic_b
    purity = pure / total
    report(
        9,
        purity >= 0.9 and final_loss <= 0.15,
        f"planted two-topic graph: citer-group purity {purity:.3f} (floor 0.90) "
        f"after training to mean train loss {final_loss:.4f} (near-zero cap 0.15)",
    )
