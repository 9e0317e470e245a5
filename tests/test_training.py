"""Losses, triplet sampling, gradient correctness, phases, and the full fit."""

import numpy as np
import pytest

from aspectcite import (
    Dims,
    ModelParams,
    TrainConfig,
    build_graph,
    fit,
    initialize_state,
    sample_triplets,
    split_edges,
    train_sd_phase,
    train_sy_phase,
)
from aspectcite import training
from aspectcite.model import save_checkpoint, select_aspects
from aspectcite.seeding import substream
from aspectcite.training import (
    TrainingAbort,
    _forward,
    batch_loss,
    batch_loss_and_grads,
    sample_batch_alphas,
)

from conftest import community_dataset
from test_corpus import random_graph
from test_model import select_aspects_reference


def hinge_loss(f_j=9.0, f_k=0.0, imp_j=(9.0,), imp_k=(0.0,), aspect=0, margin_edge=1.0, margin_aspect=1.0):
    """Summed loss of a hand-built one-triplet forward; the defaults satisfy both margins."""
    fw = {"f_j": np.array([f_j]), "f_k": np.array([f_k]), "imp_j": np.array([imp_j]), "imp_k": np.array([imp_k])}
    config = TrainConfig(margin_edge=margin_edge, margin_aspect=margin_aspect)
    return training._hinge(fw, np.array([aspect]), config)[0]


class TestLossEdge:
    def test_margin_satisfied(self):
        assert hinge_loss(f_j=2.0, f_k=0.5) == 0.0

    def test_margin_violated(self):
        assert hinge_loss(f_j=0.5, f_k=2.0) == 2.5

    def test_boundary_equals_margin(self):
        assert hinge_loss(f_j=1.0, f_k=1.0) == 1.0

    def test_zero_iff_gap_at_least_margin(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            f_pos, f_neg, margin = rng.normal(size=3)
            margin = abs(margin) + 1e-3
            value = hinge_loss(f_j=f_pos, f_k=f_neg, margin_edge=margin)
            assert value >= 0.0
            assert (value == 0.0) == (f_pos - f_neg >= margin)


class TestLossAspect:
    def test_selected_gap_satisfied(self):
        assert hinge_loss(imp_j=[2.0, 9.0], imp_k=[0.0, 9.0], aspect=0) == 0.0

    def test_selected_gap_violated(self):
        assert hinge_loss(imp_j=[0.0, 9.0], imp_k=[2.0, 0.0], aspect=0) == 3.0

    def test_equal_impacts_cost_margin(self):
        d = [0.4, -0.2]
        assert hinge_loss(imp_j=d, imp_k=d, aspect=1) == 1.0


def sample_triplets_reference(edges, batch, rng, graph):
    """`training.sample_triplets` as it skipped exhausted sources inside its
    loop and returned a list of triplets, verbatim but for plain tuples."""
    if len(edges) == 0:
        raise ValueError("train edge set is empty")
    triplets = []
    skipped = 0
    n = graph.num_nodes
    while len(triplets) < batch:
        i, j = edges[int(rng.integers(len(edges)))].tolist()  # the row's two ids as Python ints
        if graph.out_degree(i) >= n - 1:
            skipped += 1
            if skipped > 10 * batch:
                break  # every remaining source is exhausted; give up gracefully
            continue
        negative = None
        for _ in range(50):
            cand = int(rng.integers(n))
            if cand != i and not graph.has_edge(i, cand):
                negative = cand
                break
        if negative is None:
            allowed = np.setdiff1d(np.arange(n), np.append(graph.out_neighbors(i), i))
            negative = int(allowed[int(rng.integers(len(allowed)))])
        triplets.append((i, j, negative))
    return triplets


def one_non_neighbor_graph(seed):
    """30 nodes; v0 cites all others but v29, and 200 random pairs among v1..v29."""
    rng = np.random.default_rng(seed)
    edges = {(0, b) for b in range(1, 29)}
    while len(edges) < 28 + 200:
        a, b = rng.integers(1, 30, size=2).tolist()
        if a != b:
            edges.add((a, b))
    return build_graph([(f"v{a}", f"v{b}") for a, b in sorted(edges)])


class TestSampleTriplets:
    def test_deterministic_under_seed(self, small_graph, small_split):
        a = sample_triplets(small_split.train_edges, 16, substream(3, "triplets"), small_graph)
        b = sample_triplets(small_split.train_edges, 16, substream(3, "triplets"), small_graph)
        assert np.array_equal(a, b)

    def test_invariants_exhaustive(self, small_graph, small_split):
        rng = substream(1, "triplets")
        triplets = sample_triplets(small_split.train_edges, 300, rng, small_graph)
        train = set(map(tuple, small_split.train_edges.tolist()))
        for i, j, k in triplets:
            assert (i, j) in train
            assert not small_graph.has_edge(i, k)
            assert len({i, j, k}) == 3

    def test_batch_zero_is_empty(self, small_graph, small_split):
        batch = sample_triplets(small_split.train_edges, 0, substream(0, "x"), small_graph)
        assert batch.shape == (0, 3) and batch.dtype == np.int64

    def test_exhausted_source_skipped_with_warning(self):
        # node a cites every other node; pairs from it alone leave nothing to sample
        edges = [("a", f"x{i}") for i in range(10)] + [("x0", "x1"), ("x1", "x2")]
        graph = build_graph(edges)
        split = split_edges(graph, (1.0, 0.0, 0.0), 1, seed=0)
        exhausted_only = split.train_edges[split.train_edges[:, 0] == graph.index_of("a")]
        with pytest.raises(ValueError, match="cites all other nodes"):
            sample_triplets(exhausted_only, 5, substream(0, "t"), graph)

    @pytest.mark.parametrize("graph_of,source_only", [
        pytest.param(lambda seed: random_graph(2708, 5429, seed), False, id="cora-shaped"),
        pytest.param(one_non_neighbor_graph, True, id="one-non-neighbor"),
    ])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_same_rows_and_next_draw_as_reference(self, monkeypatch, graph_of, source_only, seed):
        graph = graph_of(seed)
        n = graph.num_nodes
        edges = graph.edge_array
        if source_only:  # only v0's pairs, so most rows need its one non-neighbor
            edges = edges[edges[:, 0] == graph.index_of("v0")]
        assert np.all(graph.out_degrees()[edges[:, 0]] < n - 1)
        fallbacks = []
        setdiff1d = np.setdiff1d
        monkeypatch.setattr(np, "setdiff1d", lambda *args: fallbacks.append(1) or setdiff1d(*args))
        rng, reference_rng = substream(seed, "triplets"), substream(seed, "triplets")
        for batch in (1, 64, 512):
            got = sample_triplets(edges, batch, rng, graph)
            want = sample_triplets_reference(edges, batch, reference_rng, graph)
            assert got.shape == (batch, 3) and got.dtype == np.int64
            assert got.tolist() == [list(row) for row in want]
        assert rng.integers(2**62) == reference_rng.integers(2**62)
        assert (len(fallbacks) > 0) == source_only

    def test_exhausted_source_never_starts_a_row(self):
        edges = [("a", f"x{i}") for i in range(10)] + [("x0", "x1"), ("x1", "x2"), ("x3", "a")]
        graph = build_graph(edges)
        a = graph.index_of("a")
        assert graph.out_degree(a) == graph.num_nodes - 1
        triplets = sample_triplets(graph.edge_array, 200, substream(0, "t"), graph)
        assert triplets.shape == (200, 3)
        assert not np.any(triplets[:, 0] == a)
        assert not np.any(graph.contains(triplets[:, [0, 2]]))
        assert np.all(triplets[:, 0] != triplets[:, 2])


class TestGradients:
    def make_problem(self, seed, aspect_loss_weight=1.0):
        rng = np.random.default_rng(seed)
        aspects = int(rng.integers(2, 5))
        text_dim = int(rng.integers(2, 6))
        struct_dim = int(rng.integers(2, 6))
        n = 10
        dims = Dims(aspects=aspects, text_dim=text_dim, struct_dim=struct_dim)
        params = ModelParams.initialize(dims, n, np.random.default_rng(seed + 1))
        for name in ModelParams.TENSOR_FIELDS:
            tensor = getattr(params, name)
            tensor += rng.normal(scale=0.3, size=tensor.shape)
        texts = rng.normal(size=(n, text_dim))
        state = np.abs(rng.normal(size=(n, aspects)))
        state /= state.sum(axis=0)
        triplets = []
        while len(triplets) < 5:
            i, j, k = rng.integers(n, size=3)
            if len({int(i), int(j), int(k)}) == 3:
                triplets.append((int(i), int(j), int(k)))
        config = TrainConfig(aspects=aspects, struct_dim=struct_dim, aspect_loss_weight=aspect_loss_weight, seed=0)
        alphas = select_aspects(_forward(params, state, texts, triplets)["imp_j"])
        return params, state, texts, triplets, alphas, config

    @pytest.mark.parametrize("aspect_loss_weight", [0.0, 1.0, 2.5])
    def test_matches_central_differences(self, aspect_loss_weight):
        # criterion tolerance: 1e-4 relative error, alpha frozen, h = 1e-5
        h = 1e-5
        rng = np.random.default_rng(99)
        for seed in range(4):
            params, state, texts, triplets, alphas, config = self.make_problem(seed, aspect_loss_weight)
            _, grads = batch_loss_and_grads(params, _forward(params, state, texts, triplets), alphas, config)
            for name in ModelParams.TENSOR_FIELDS:
                flat = getattr(params, name).ravel()
                for idx in rng.choice(flat.size, size=min(6, flat.size), replace=False):
                    original = flat[idx]
                    flat[idx] = original + h
                    up = batch_loss(params, state, texts, triplets, alphas, config)
                    flat[idx] = original - h
                    down = batch_loss(params, state, texts, triplets, alphas, config)
                    flat[idx] = original
                    fd = (up - down) / (2 * h)
                    an = grads[name].ravel()[idx]
                    assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1.0)


def forward_reference(params, state_matrix, text_vectors, triplets):
    """The pre-change training forward pass: one representation per triplet
    slot, recomputed on every row, and its own copy of the scoring chain."""
    trip = np.asarray(triplets, dtype=np.int64).reshape(-1, 3)
    bi, bj, bk = trip[:, 0], trip[:, 1], trip[:, 2]

    def rep(nodes):
        fused = np.concatenate([text_vectors[nodes], params.node_embeddings[nodes]], axis=1)
        norms = np.linalg.norm(fused, axis=1, keepdims=True)
        safe = np.where(norms == 0.0, 1.0, norms)
        return fused / safe, norms

    r_i, norm_i = rep(bi)
    r_j, norm_j = rep(bj)
    r_k, norm_k = rep(bk)
    state = np.asarray(state_matrix)
    d_j, d_k = state[bj], state[bk]
    c_j = d_j @ params.state_to_effect.T
    c_k = d_k @ params.state_to_effect.T
    e_j = r_i * r_j
    e_k = r_i * r_k
    imp_j = c_j @ params.effect_weights + e_j @ params.similarity_weights
    imp_k = c_k @ params.effect_weights + e_k @ params.similarity_weights
    return {
        "bi": bi, "bj": bj, "bk": bk,
        "r_i": r_i, "r_j": r_j, "r_k": r_k,
        "norm_i": norm_i, "norm_j": norm_j, "norm_k": norm_k,
        "d_j": d_j, "d_k": d_k,
        "c_j": c_j, "c_k": c_k,
        "e_j": e_j, "e_k": e_k,
        "imp_j": imp_j, "imp_k": imp_k,
        "f_j": c_j.sum(axis=1) + e_j.sum(axis=1),
        "f_k": c_k.sum(axis=1) + e_k.sum(axis=1),
    }


class TestForward:
    @pytest.mark.parametrize("seed,n,aspects,text_dim,struct_dim,batch", [
        (0, 6, 2, 3, 2, 1),
        (1, 6, 3, 2, 4, 40),
        (2, 50, 5, 7, 5, 300),
        (3, 2708, 5, 1433, 100, 512),
    ])
    def test_bitwise_equal_to_pre_change_forward(self, seed, n, aspects, text_dim, struct_dim, batch):
        rng = np.random.default_rng(seed)
        dims = Dims(aspects=aspects, text_dim=text_dim, struct_dim=struct_dim)
        params = ModelParams.initialize(dims, n, np.random.default_rng(seed + 100))
        params.similarity_weights += rng.normal(scale=0.3, size=params.similarity_weights.shape)
        texts = rng.normal(size=(n, text_dim))
        texts[1] = 0.0
        params.node_embeddings[1] = 0.0  # node 1 has a zero-norm representation
        state = rng.random((n, aspects))
        state /= state.sum(axis=0)
        triplets = rng.integers(min(n, 8) if seed % 2 else n, size=(batch, 3))  # odd seeds repeat nodes heavily
        triplets[0] = (1, 0, 1)
        got = _forward(params, state, texts, triplets)
        want = forward_reference(params, state, texts, triplets)
        assert got.keys() == want.keys()
        for key in want:
            assert got[key].shape == want[key].shape and np.array_equal(got[key], want[key]), key

    def test_alphas_bitwise_equal_to_pre_change_draws(self):
        gen = np.random.default_rng(5)
        rng, ref_rng = substream(4, "gumbel"), substream(4, "gumbel")
        for rows, aspects in ((1, 2), (7, 3), (512, 5), (33, 1)):
            impacts = gen.normal(scale=2.0, size=(rows, aspects))
            impacts[0] = 0.5  # an all-tied row
            chosen = sample_batch_alphas(impacts, rng)
            assert chosen.dtype == np.int64
            assert np.array_equal(chosen, np.argmax(select_aspects_reference(impacts, ref_rng), axis=1))
        assert rng.random() == ref_rng.random()  # both streams consumed the same draws


class TestTrainSyPhase:
    def test_zero_learning_rate_is_bitwise_noop(self, small_graph, small_split, small_text):
        config = TrainConfig(aspects=2, struct_dim=3, epochs_per_phase=2, batch_size=8, learning_rate=0.0, seed=1)
        dims = Dims(aspects=2, text_dim=small_text.shape[1], struct_dim=3)
        params = ModelParams.initialize(dims, small_graph.num_nodes, substream(1, "init"))
        before = {name: getattr(params, name).copy() for name in ModelParams.TENSOR_FIELDS}
        state = initialize_state(small_graph.num_nodes, 2)
        train_sy_phase(
            params, state, small_split.train_edges, config, small_graph, small_text,
            substream(1, "triplets"), substream(1, "gumbel"),
        )
        for name, tensor in before.items():
            assert np.array_equal(tensor, getattr(params, name))

    def test_single_triplet_overfits_to_zero_loss(self):
        # 3-node graph, lr=0.1, 500 steps; margins are achievable so both
        # hinges must reach 0 on the trained triplet
        graph = build_graph([("a", "b"), ("a", "c")])
        texts = np.zeros((3, 2))
        config = TrainConfig(aspects=2, struct_dim=4, learning_rate=0.1, seed=0)
        dims = Dims(aspects=2, text_dim=2, struct_dim=4)
        params = ModelParams.initialize(dims, 3, substream(0, "init"))
        state = initialize_state(3, 2)
        triplet = [(graph.index_of("a"), graph.index_of("b"), graph.index_of("c"))]
        rng = substream(0, "gumbel")
        for _ in range(500):
            fw = _forward(params, state.matrix, texts, triplet)
            chosen = sample_batch_alphas(fw["imp_j"], rng)
            loss, grads = batch_loss_and_grads(params, fw, chosen, config)
            for name, grad in grads.items():
                tensor = getattr(params, name)
                tensor -= config.learning_rate * grad
        final_chosen = select_aspects(_forward(params, state.matrix, texts, triplet)["imp_j"])
        final = batch_loss(params, state.matrix, texts, triplet, final_chosen, config)
        assert final == 0.0

    def test_one_forward_per_batch(self, small_graph, small_split, small_text, monkeypatch):
        # per batch one forward feeds both the Gumbel draw and the backward;
        # the eval batch adds one forward for its aspect choice and one per epoch
        calls = []

        def counting(*args):
            calls.append(1)
            return _forward(*args)

        monkeypatch.setattr(training, "_forward", counting)
        config = TrainConfig(aspects=2, struct_dim=3, epochs_per_phase=3, batch_size=8, seed=1)
        dims = Dims(aspects=2, text_dim=small_text.shape[1], struct_dim=3)
        params = ModelParams.initialize(dims, small_graph.num_nodes, substream(1, "init"))
        train_sy_phase(
            params, initialize_state(small_graph.num_nodes, 2), small_split.train_edges, config, small_graph,
            small_text,
            substream(1, "triplets"), substream(1, "gumbel"),
        )
        batches = -(-len(small_split.train_edges) // config.batch_size)
        assert batches > 1
        assert len(calls) == batches * config.epochs_per_phase + config.epochs_per_phase + 1

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_nonfinite_loss_aborts_with_diagnostics(self, small_graph, small_split, small_text):
        config = TrainConfig(aspects=2, struct_dim=3, epochs_per_phase=1, batch_size=8, seed=1)
        dims = Dims(aspects=2, text_dim=small_text.shape[1], struct_dim=3)
        params = ModelParams.initialize(dims, small_graph.num_nodes, substream(1, "init"))
        params.state_to_effect[0, 0] = np.inf
        state = initialize_state(small_graph.num_nodes, 2)
        with pytest.raises(TrainingAbort, match="norms"):
            train_sy_phase(
                params, state, small_split.train_edges, config, small_graph, small_text,
                substream(1, "triplets"), substream(1, "gumbel"),
            )


class TestTrainSdPhase:
    def make(self, small_graph, small_text, aspects=3):
        config = TrainConfig(aspects=aspects, struct_dim=3, seed=2)
        dims = Dims(aspects=aspects, text_dim=small_text.shape[1], struct_dim=3)
        params = ModelParams.initialize(dims, small_graph.num_nodes, substream(2, "init"))
        state = initialize_state(small_graph.num_nodes, aspects)
        return config, params, state

    def test_output_columns_are_distributions(self, small_graph, small_split, small_text):
        config, params, state = self.make(small_graph, small_text)
        out = train_sd_phase(params, state, small_split.train_edges, config, small_text)
        assert np.allclose(out.matrix.sum(axis=0), 1.0, atol=1e-9)

    def test_deterministic_fixed_point(self, small_graph, small_split, small_text):
        config, params, state = self.make(small_graph, small_text)
        a = train_sd_phase(params, state, small_split.train_edges, config, small_text)
        b = train_sd_phase(params, state, small_split.train_edges, config, small_text)
        assert np.array_equal(a.matrix, b.matrix)

    def test_consecutive_calls_from_same_inputs_identical(self, small_graph, small_split, small_text):
        # the rebuilt operator depends on the state through the citation
        # effect, so "unchanged params" pins the output only for an unchanged
        # input state; that case must be exactly reproducible
        config, params, state = self.make(small_graph, small_text)
        first = train_sd_phase(params, state, small_split.train_edges, config, small_text)
        second = train_sd_phase(params, state, small_split.train_edges, config, small_text)
        assert np.array_equal(first.matrix, second.matrix)
        assert first.residual == second.residual

    def test_edge_array_and_tuple_list_give_identical_state(self, small_graph, small_split, small_text):
        config, params, state = self.make(small_graph, small_text)
        as_list = [tuple(e) for e in small_split.train_edges]
        from_list = train_sd_phase(params, state, as_list, config, small_text)
        from_array = train_sd_phase(params, state, np.asarray(as_list), config, small_text)
        assert np.array_equal(from_list.matrix, from_array.matrix)
        assert (from_list.step, from_list.residual) == (from_array.step, from_array.residual)

    def test_no_positive_impact_gives_the_uniform_state(self, small_graph, small_split, small_text):
        config, params, state = self.make(small_graph, small_text)
        # D is 0 on every edge, so every masked edge impact is zero and every column is dangling
        params.effect_weights[:] = 0.0
        params.similarity_weights[:] = 0.0
        out = train_sd_phase(params, state, small_split.train_edges, config, small_text)
        assert out.matrix.dtype == np.float64
        assert np.allclose(out.matrix, 1.0 / small_graph.num_nodes, rtol=1e-12) and out.converged


class TestFit:
    def test_ndp_runs_sy_only(self, small_graph, small_split, small_text):
        config = TrainConfig(
            aspects=2, struct_dim=3, epochs_per_phase=2, alternations=1,
            batch_size=8, dynamic_propagation=False, seed=3,
        )
        result = fit(small_graph, small_split, config, small_text)
        stage = result.report["stages"][0]
        assert len(stage["sy_phases"]) == 1
        assert stage["sd_phases"] == []
        assert np.allclose(result.state.matrix, 1.0 / small_graph.num_nodes)

    def test_dp_runs_alternations(self, small_graph, small_split, small_text):
        config = TrainConfig(
            aspects=2, struct_dim=3, epochs_per_phase=2, alternations=3, batch_size=8, seed=3,
        )
        result = fit(small_graph, small_split, config, small_text)
        stage = result.report["stages"][0]
        assert len(stage["sy_phases"]) == 3
        assert len(stage["sd_phases"]) == 3

    def test_sd_phases_report_per_phase_and_cumulative_steps(self, small_graph, small_split, small_text):
        config = TrainConfig(
            aspects=2, struct_dim=3, epochs_per_phase=1, alternations=3, batch_size=8,
            propagation_max_steps=4, seed=3,
        )
        result = fit(small_graph, small_split, config, small_text)
        phases = result.report["stages"][0]["sd_phases"]
        assert [p["steps"] for p in phases] == list(np.cumsum([p["phase_steps"] for p in phases]))
        assert all(1 <= p["phase_steps"] <= 4 for p in phases)
        assert result.state.step == phases[-1]["steps"]

    def test_empty_train_part_raises_instead_of_returning_untrained_params(self, small_graph, small_text):
        split = split_edges(small_graph, (0.0, 0.5, 0.5), 1, seed=7)
        assert len(split.train_edges) == 0
        with pytest.raises(ValueError, match="no train edges"):
            fit(small_graph, split, TrainConfig(aspects=2, struct_dim=3, seed=0), small_text)

    def test_negatives_per_positive_is_not_a_training_knob(self):
        for removed in ("negatives_per_positive", "gumbel_temperature", "momentum", "snapshot_cutoffs"):
            assert removed not in TrainConfig().to_dict()
            with pytest.raises(TypeError):
                TrainConfig(**{removed: 2})

    def test_seeded_runs_are_byte_identical(self, small_graph, small_split, small_text, tmp_path):
        config = TrainConfig(aspects=2, struct_dim=3, epochs_per_phase=2, alternations=2, batch_size=8, seed=5)
        paths = []
        for run in range(2):
            result = fit(small_graph, small_split, config, small_text)
            path = tmp_path / f"ckpt{run}.json"
            save_checkpoint(result.params, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_ndp_dp_identical_with_zero_propagation_steps(self, small_graph, small_split, small_text):
        base = dict(aspects=2, struct_dim=3, epochs_per_phase=2, alternations=1, batch_size=8, seed=5)
        dp = fit(small_graph, small_split, TrainConfig(dynamic_propagation=True, propagation_max_steps=0, **base), small_text)
        ndp = fit(small_graph, small_split, TrainConfig(dynamic_propagation=False, **base), small_text)
        for name in ModelParams.TENSOR_FIELDS:
            assert np.array_equal(getattr(dp.params, name), getattr(ndp.params, name))
        assert np.array_equal(dp.state.matrix, ndp.state.matrix)

    def test_dp_train_loss_not_worse_than_ndp_on_planted_graph(self):
        graph, text, _ = community_dataset(n=200, m=800, seed=4)
        split = split_edges(graph, (0.8, 0.1, 0.1), 1, seed=4)
        base = dict(aspects=4, struct_dim=8, epochs_per_phase=10, alternations=3, batch_size=64, learning_rate=1.0, seed=4)
        dp = fit(graph, split, TrainConfig(dynamic_propagation=True, **base), text)
        ndp = fit(graph, split, TrainConfig(dynamic_propagation=False, **base), text)

        def final_loss(result):
            return result.report["stages"][0]["sy_phases"][-1]["train_loss"][-1]

        assert final_loss(dp) <= final_loss(ndp) + 1e-9
