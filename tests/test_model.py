"""Scoring-chain operation contracts and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectcite import (
    Dims,
    ModelParams,
    aspect_impact,
    citation_effect,
    edge_similarity,
    link_score,
    load_checkpoint,
    masked_impact,
    node_representation,
    sample_aspect,
    save_checkpoint,
    score_pair,
)
from aspectcite.model import impacts_for_pairs, representations_for, scores_for_pairs, softmax


def make_params(aspects=2, text_dim=2, struct_dim=3, num_nodes=4, seed=0):
    dims = Dims(aspects=aspects, text_dim=text_dim, struct_dim=struct_dim)
    return ModelParams.initialize(dims, num_nodes, np.random.default_rng(seed))


class TestNodeRepresentation:
    def test_normalization_arithmetic(self):
        params = make_params(text_dim=2, struct_dim=2)
        params.node_embeddings[0] = [3.0, 4.0]
        r, flag = node_representation(0, np.array([0.0, 0.0]), params)
        assert np.allclose(r, [0, 0, 0.6, 0.8]) and not flag

    def test_unit_norm_input_unchanged(self):
        params = make_params(text_dim=2, struct_dim=3)
        params.node_embeddings[1] = np.zeros(3)
        r, flag = node_representation(1, np.array([1.0, 0.0]), params)
        assert np.allclose(r, [1, 0, 0, 0, 0]) and not flag

    def test_zero_input_flagged(self):
        params = make_params(text_dim=2, struct_dim=2)
        params.node_embeddings[2] = np.zeros(2)
        r, flag = node_representation(2, np.zeros(2), params)
        assert np.array_equal(r, np.zeros(4)) and flag

    def test_dimension_mismatch_rejected(self):
        params = make_params(text_dim=2)
        with pytest.raises(ValueError):
            node_representation(0, np.zeros(3), params)

    def test_output_is_unit_norm(self):
        params = make_params(text_dim=4, struct_dim=4)
        r, flag = node_representation(0, np.arange(4.0), params)
        assert not flag
        assert np.linalg.norm(r) == pytest.approx(1.0, abs=1e-6)


class TestCitationEffect:
    def test_identity_map(self):
        params = make_params(aspects=2)
        params.state_to_effect = np.eye(2)
        state = np.array([[0.2, 0.8], [0.5, 0.5]])
        assert np.allclose(citation_effect(0, state, params), [0.2, 0.8])

    def test_zero_map(self):
        params = make_params(aspects=2)
        params.state_to_effect = np.zeros((2, 2))
        state = np.array([[0.2, 0.8]])
        assert np.allclose(citation_effect(0, state, params), [0, 0])

    def test_permutation_map(self):
        params = make_params(aspects=2)
        params.state_to_effect = np.array([[0.0, 1.0], [1.0, 0.0]])
        state = np.array([[0.2, 0.8]])
        assert np.allclose(citation_effect(0, state, params), [0.8, 0.2])

    def test_linearity(self):
        params = make_params(aspects=3)
        rng = np.random.default_rng(1)
        d1, d2 = rng.normal(size=3), rng.normal(size=3)
        a, b = 0.7, -1.3
        state = np.vstack([d1, d2, a * d1 + b * d2])
        eff = lambda row: citation_effect(row, state, params)
        assert np.allclose(eff(2), a * eff(0) + b * eff(1), atol=1e-12)


class TestEdgeSimilarity:
    def test_orthogonal(self):
        assert np.allclose(edge_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])), [0, 0])

    def test_square(self):
        assert np.allclose(edge_similarity(np.array([0.6, 0.8]), np.array([0.6, 0.8])), [0.36, 0.64])

    def test_absorbing_zero(self):
        r = np.array([0.3, -0.4, 0.5])
        assert np.array_equal(edge_similarity(r, np.zeros(3)), np.zeros(3))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_l1_norm_bounded_for_unit_inputs(self, seed):
        rng = np.random.default_rng(seed)
        r1 = rng.normal(size=8)
        r2 = rng.normal(size=8)
        r1 /= np.linalg.norm(r1)
        r2 /= np.linalg.norm(r2)
        assert np.abs(edge_similarity(r1, r2)).sum() <= 1.0 + 1e-9


class TestAspectImpact:
    def test_effect_identity_path(self):
        params = make_params(aspects=2, text_dim=1, struct_dim=1)
        params.effect_weights = np.eye(2)
        params.similarity_weights = np.zeros((2, 2))
        params.bias = np.zeros(2)
        assert np.allclose(aspect_impact(np.array([0.2, 0.8]), np.zeros(2), params), [0.2, 0.8])

    def test_all_zero(self):
        params = make_params(aspects=2, text_dim=1, struct_dim=1)
        params.effect_weights = np.zeros((2, 2))
        params.similarity_weights = np.zeros((2, 2))
        params.bias = np.zeros(2)
        assert np.allclose(aspect_impact(np.zeros(2), np.zeros(2), params), [0, 0])

    def test_bias_only(self):
        params = make_params(aspects=2, text_dim=1, struct_dim=1)
        params.effect_weights = np.zeros((2, 2))
        params.similarity_weights = np.zeros((2, 2))
        params.bias = np.array([1.0, 2.0])
        assert np.allclose(aspect_impact(np.zeros(2), np.zeros(2), params), [1, 2])


class TestSampleAspect:
    def test_infer_argmax(self):
        hard, _ = sample_aspect(np.array([0.2, 0.8]), mode="infer")
        assert np.array_equal(hard, [0, 1])

    def test_infer_tie_breaks_to_lowest_index(self):
        hard, _ = sample_aspect(np.array([0.5, 0.5]), mode="infer")
        assert np.array_equal(hard, [1, 0])

    def test_shift_invariance(self):
        d = np.array([0.3, -1.2, 0.9])
        _, pi = sample_aspect(d, mode="infer")
        _, pi_shifted = sample_aspect(d + 17.5, mode="infer")
        assert np.allclose(pi, pi_shifted, atol=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            sample_aspect(np.array([np.nan, 0.0]), mode="infer")

    def test_train_needs_rng(self):
        with pytest.raises(ValueError):
            sample_aspect(np.array([0.0, 0.0]), mode="train")

    def test_gumbel_max_marginals_match_softmax(self):
        # symmetric two-aspect case: frequencies (0.5, 0.5) within 0.01
        rng = np.random.default_rng(123)
        d = np.array([0.0, 0.0])
        counts = np.zeros(2)
        draws = 100_000
        for _ in range(draws):
            hard, _ = sample_aspect(d, mode="train", rng=rng)
            counts += hard
        freq = counts / draws
        assert np.allclose(freq, [0.5, 0.5], atol=0.01)

    def test_relaxation_is_distribution(self):
        rng = np.random.default_rng(7)
        _, relaxed = sample_aspect(np.array([0.5, -0.3, 2.0]), mode="train", temperature=0.7, rng=rng)
        assert relaxed.sum() == pytest.approx(1.0)
        assert np.all(relaxed >= 0)


class TestMaskedImpact:
    def test_negative_clipped(self):
        assert np.allclose(masked_impact(np.array([0.0, 1.0]), np.array([0.3, -0.4])), [0, 0])

    def test_selected_positive_passes(self):
        assert np.allclose(masked_impact(np.array([1.0, 0.0]), np.array([0.3, -0.4])), [0.3, 0])

    def test_mask_kills_unselected(self):
        assert np.allclose(masked_impact(np.array([1.0, 0.0]), np.array([0.0, 5.0])), [0, 0])

    def test_non_one_hot_rejected(self):
        with pytest.raises(ValueError):
            masked_impact(np.array([1.0, 1.0]), np.array([0.0, 0.0]))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bounds_and_pattern(self, seed):
        rng = np.random.default_rng(seed)
        d = rng.normal(size=4)
        alpha = np.zeros(4)
        alpha[rng.integers(4)] = 1.0
        y = masked_impact(alpha, d)
        assert np.all(y >= 0)
        assert np.all(y <= np.maximum(d, 0.0) + 1e-15)
        assert np.count_nonzero(y) <= 1


class TestLinkScore:
    def test_element_sums(self):
        assert link_score(np.array([0.2, 0.8]), np.array([0.36, 0.64])) == pytest.approx(2.0)

    def test_zero(self):
        assert link_score(np.zeros(3), np.zeros(2)) == 0.0

    def test_mixed_signs(self):
        assert link_score(np.array([-1.0, 1.0]), np.array([0.5])) == pytest.approx(0.5)


class TestScorePair:
    def test_self_pair_rejected(self):
        params = make_params()
        state = np.full((4, 2), 0.5)
        with pytest.raises(ValueError):
            score_pair(1, 1, state, params, np.zeros((4, 2)))

    def test_infer_deterministic(self):
        params = make_params(num_nodes=5, text_dim=3, struct_dim=2, aspects=3)
        state = np.full((5, 3), 1 / 5)
        texts = np.random.default_rng(2).normal(size=(5, 3))
        a = score_pair(0, 3, state, params, texts, mode="infer")
        b = score_pair(0, 3, state, params, texts, mode="infer")
        assert np.array_equal(a.alpha, b.alpha) and a.f == b.f
        assert np.array_equal(a.d_pair, b.d_pair)

    def test_composition_matches_components(self):
        params = make_params(num_nodes=4, text_dim=2, struct_dim=2, aspects=2)
        state = np.array([[0.3, 0.7], [0.6, 0.4], [0.1, 0.9], [0.5, 0.5]])
        texts = np.random.default_rng(3).normal(size=(4, 2))
        bundle = score_pair(0, 2, state, params, texts, mode="infer")
        r0, _ = node_representation(0, texts[0], params)
        r2, _ = node_representation(2, texts[2], params)
        c = citation_effect(2, state, params)
        e = edge_similarity(r0, r2)
        assert np.allclose(bundle.c, c)
        assert np.allclose(bundle.e, e)
        assert np.allclose(bundle.d_pair, aspect_impact(c, e, params))
        assert bundle.f == pytest.approx(link_score(c, e))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bundle_invariants_hold(self, seed):
        rng = np.random.default_rng(seed)
        params = make_params(num_nodes=6, text_dim=3, struct_dim=2, aspects=3, seed=seed)
        state = np.abs(rng.normal(size=(6, 3)))
        state /= state.sum(axis=0)
        texts = rng.normal(size=(6, 3))
        mode = "train" if seed % 2 else "infer"
        bundle = score_pair(0, 1, state, params, texts, mode=mode, rng=rng)
        bundle.validate()

    def test_batch_scores_match_scalar_path(self):
        params = make_params(num_nodes=6, text_dim=3, struct_dim=2, aspects=3, seed=5)
        rng = np.random.default_rng(4)
        state = np.abs(rng.normal(size=(6, 3)))
        state /= state.sum(axis=0)
        texts = rng.normal(size=(6, 3))
        pairs = [(0, 1), (2, 5), (4, 3)]
        batch = scores_for_pairs(np.asarray(pairs), state, params, texts)
        for pair, score in zip(pairs, batch):
            assert score == pytest.approx(score_pair(*pair, state, params, texts).f, abs=1e-12)


def impacts_for_pairs_per_row(pairs, state_matrix, params, text_vectors):
    """Reference: one representation per pair endpoint, recomputed on every row."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    src, dst = pairs[:, 0], pairs[:, 1]
    r_src = representations_for(src, text_vectors, params)
    r_dst = representations_for(dst, text_vectors, params)
    c = np.asarray(state_matrix)[dst] @ params.state_to_effect.T
    e = r_src * r_dst
    d = c @ params.effect_weights + e @ params.similarity_weights + params.bias
    return c, e, d


class TestImpactsForPairs:
    def setup_inputs(self, num_nodes=40, seed=11):
        params = make_params(num_nodes=num_nodes, text_dim=7, struct_dim=5, aspects=4, seed=seed)
        rng = np.random.default_rng(seed)
        state = rng.random((num_nodes, 4))
        state /= state.sum(axis=0)
        texts = rng.normal(size=(num_nodes, 7))
        texts[3] = 0.0
        params.node_embeddings[3] = 0.0  # node 3 has a zero-norm representation
        return params, state, texts

    @pytest.mark.parametrize("pairs", [
        [(0, 3)],
        [(3, 1)],
        [(5, 9), (9, 5), (5, 9), (3, 5), (5, 3), (3, 3), (0, 39)],
        np.random.default_rng(2).integers(40, size=(700, 2)),
        np.random.default_rng(3).integers(6, size=(300, 2)),
    ])
    def test_bitwise_equal_to_per_row_reference(self, pairs):
        params, state, texts = self.setup_inputs()
        got = impacts_for_pairs(pairs, state, params, texts)
        want = impacts_for_pairs_per_row(pairs, state, params, texts)
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = make_params(num_nodes=5, seed=9)
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        for name in ModelParams.TENSOR_FIELDS:
            assert np.array_equal(getattr(params, name), getattr(loaded, name))
        assert loaded.dims == params.dims

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": {"aspects": 2}}', encoding="utf-8")
        with pytest.raises(ValueError, match="malformed"):
            load_checkpoint(path)


def test_softmax_rows_sum_to_one():
    x = np.random.default_rng(0).normal(size=(5, 4)) * 50
    s = softmax(x)
    assert np.allclose(s.sum(axis=1), 1.0)
