"""Scoring-chain operation contracts and invariants."""

import hashlib
import itertools
import json
import multiprocessing
import os
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectcite import (
    Dims,
    ModelParams,
    load_checkpoint,
    sample_aspect,
    save_checkpoint,
)
from aspectcite import codec, model, pool
from aspectcite.model import (
    BLOCK_ROWS,
    distinct_nodes,
    impacts_for_pairs,
    impacts_from_representations,
    masked_impacts,
    representations_for,
    scores_for_pairs,
    select_aspects,
    softmax,
)
from aspectcite.seeding import substream
from test_propagation import ARTIFACT_CORRUPTIONS, corrupt_artifact, special_values, v2_entry


def make_params(aspects=2, text_dim=2, struct_dim=3, num_nodes=4, seed=0):
    dims = Dims(aspects=aspects, text_dim=text_dim, struct_dim=struct_dim)
    return ModelParams.initialize(dims, num_nodes, np.random.default_rng(seed))


def write_v1_checkpoint(params, path):
    """The earlier checkpoint format: no marker, every tensor as a flat list of floats."""
    payload = {
        "dims": {"aspects": params.dims.aspects, "text_dim": params.dims.text_dim, "struct_dim": params.dims.struct_dim},
        "num_nodes": params.num_nodes,
        "seed_lineage": params.seed_lineage,
        "tensors": {
            name: {"shape": list(getattr(params, name).shape), "data": getattr(params, name).ravel().tolist()}
            for name in ModelParams.TENSOR_FIELDS
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)


def write_v2_checkpoint(params, path):
    """The earlier single-file checkpoint format: every tensor inline as base64."""
    payload = {
        "format": "aspectcite-checkpoint-v2",
        "dims": {"aspects": params.dims.aspects, "text_dim": params.dims.text_dim, "struct_dim": params.dims.struct_dim},
        "num_nodes": params.num_nodes,
        "seed_lineage": params.seed_lineage,
        "tensors": {name: v2_entry(getattr(params, name)) for name in ModelParams.TENSOR_FIELDS},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)


def write_v3_checkpoint(params, path):
    """The earlier sidecar checkpoint format: a header and sidecar like today's,
    with a fifth tensor, an all-zero (I,) aspect-impact bias, after similarity_weights."""
    fields = ("state_to_effect", "effect_weights", "similarity_weights", "bias", "node_embeddings")
    tensors = {name: getattr(params, name) for name in ModelParams.TENSOR_FIELDS}
    tensors["bias"] = np.zeros(params.dims.aspects)
    codec.write_artifact(path, "aspectcite-checkpoint-v3", {
        "dims": {"aspects": params.dims.aspects, "text_dim": params.dims.text_dim, "struct_dim": params.dims.struct_dim},
        "num_nodes": params.num_nodes,
        "seed_lineage": params.seed_lineage,
        "tensors": {name: codec.tensor_entry(tensors[name]) for name in fields},
    }, [tensors[name] for name in fields])


# sha256 of the header and sidecar written for TestCheckpoint.test_checkpoint_bytes_are_pinned,
# matched by a header built with json.dumps by hand and the tensors' "<f8" bytes joined in field order
CHECKPOINT_SHA256 = {
    "checkpoint.bin": "1c73a285bd951f891350db4b4e2a698ae1a829864cb07665224ba6c918b7c789",
    "checkpoint.json": "65b8754c7403ca903ee4d51a48fe8443b421f62b9bfe77c209083690833195ec",
}


def checkpoint_entries(payload):
    """A checkpoint header's tensor entries in sidecar order."""
    return [payload["tensors"][name] for name in ModelParams.TENSOR_FIELDS]


def impacts(params, state, pairs, texts=None):
    """(c, e, D) rows for `pairs`, one representation per distinct node; texts default to zeros."""
    if texts is None:
        texts = np.zeros((params.num_nodes, params.dims.text_dim))
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    nodes, (src_rows, dst_rows) = distinct_nodes(params.num_nodes, pairs[:, 0], pairs[:, 1])
    reps, _ = representations_for(nodes, texts, params)
    return from_reps(params, reps, src_rows, dst_rows, np.asarray(state)[pairs[:, 1]])


def from_reps(params, reps, src_rows, dst_rows, dst_states):
    """(c, e, D) straight from given representation rows."""
    return impacts_from_representations(
        np.asarray(reps, dtype=np.float64), src_rows, dst_rows, np.asarray(dst_states, dtype=np.float64), params
    )


class TestNodeRepresentation:
    def test_normalization_arithmetic(self):
        params = make_params(text_dim=2, struct_dim=2)
        params.node_embeddings[0] = [3.0, 4.0]
        params.node_embeddings[1] = [0.0, 1.0]
        texts = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        r, norms = representations_for(np.array([0]), texts, params)
        assert np.allclose(r, [[0, 0, 0.6, 0.8]]) and norms.tolist() == [[5.0]]
        r, norms = representations_for(np.array([0, 1, 0]), texts, params)
        assert np.allclose(r, [[0, 0, 0.6, 0.8], [0, 0.5**0.5, 0, 0.5**0.5], [0, 0, 0.6, 0.8]])
        assert np.allclose(norms, [[5.0], [2**0.5], [5.0]])

    def test_unit_norm_input_unchanged(self):
        params = make_params(text_dim=2, struct_dim=3)
        params.node_embeddings[1] = np.zeros(3)
        texts = np.zeros((4, 2))
        texts[1] = [1.0, 0.0]
        r, norms = representations_for(np.array([1]), texts, params)
        assert np.allclose(r, [[1, 0, 0, 0, 0]]) and norms.tolist() == [[1.0]]

    def test_zero_input_flagged(self):
        params = make_params(text_dim=2, struct_dim=2)
        params.node_embeddings[2] = np.zeros(2)
        texts = np.ones((4, 2))
        texts[2] = 0.0
        r, norms = representations_for(np.array([2, 0, 2]), texts, params)
        assert np.array_equal(r[[0, 2]], np.zeros((2, 4))) and norms[0, 0] == 0.0 and norms[2, 0] == 0.0
        assert norms[1, 0] > 0.0
        _, e, _ = impacts(params, np.full((4, 2), 0.25), [[0, 2], [0, 1]], texts)
        assert not e[0].any() and e[1].any()  # a zero representation zeroes every similarity it enters

    def test_dimension_mismatch_rejected(self):
        params = make_params(text_dim=2)
        texts = np.zeros((4, 3))
        with pytest.raises(ValueError):
            representations_for(np.array([0]), texts, params)
        with pytest.raises(ValueError):
            impacts_for_pairs(np.array([(0, 1)]), np.full((4, 2), 0.25), params, texts)
        with pytest.raises(ValueError):
            impacts_for_pairs(np.zeros((0, 2), dtype=np.int64), np.full((4, 2), 0.25), params, texts)

    def test_output_is_unit_norm(self):
        params = make_params(text_dim=4, struct_dim=4)
        texts = np.arange(16.0).reshape(4, 4)
        r, norms = representations_for(np.array([0, 3, 1]), texts, params)
        assert np.all(norms > 0)
        assert np.allclose(np.linalg.norm(r, axis=1), 1.0, atol=1e-6)


class TestCitationEffect:
    def test_identity_map(self):
        params = make_params(aspects=2)
        params.state_to_effect = np.eye(2)
        state = np.array([[0.2, 0.8], [0.5, 0.5], [0.1, 0.9], [0.3, 0.7]])
        c, _, _ = impacts(params, state, [(1, 0)])
        assert np.allclose(c, [[0.2, 0.8]])
        c, _, _ = impacts(params, state, [(1, 0), (0, 2), (3, 0)])
        assert np.allclose(c, state[[0, 2, 0]])

    def test_zero_map(self):
        params = make_params(aspects=2)
        params.state_to_effect = np.zeros((2, 2))
        state = np.full((4, 2), 0.25)
        c, _, _ = impacts(params, state, [(1, 0), (2, 3)])
        assert np.array_equal(c, np.zeros((2, 2)))

    def test_permutation_map(self):
        params = make_params(aspects=2)
        params.state_to_effect = np.array([[0.0, 1.0], [1.0, 0.0]])
        state = np.array([[0.2, 0.8], [0.6, 0.4], [0.1, 0.9], [0.3, 0.7]])
        c, _, _ = impacts(params, state, [(1, 0)])
        assert np.allclose(c, [[0.8, 0.2]])
        c, _, _ = impacts(params, state, [(1, 0), (0, 1)])
        assert np.allclose(c, [[0.8, 0.2], [0.4, 0.6]])

    def test_linearity(self):
        params = make_params(aspects=3, num_nodes=4)
        rng = np.random.default_rng(1)
        d1, d2 = rng.normal(size=3), rng.normal(size=3)
        a, b = 0.7, -1.3
        state = np.vstack([d1, d2, a * d1 + b * d2, d1])
        c, _, _ = impacts(params, state, [(3, 0), (3, 1), (3, 2)])
        assert np.allclose(c[2], a * c[0] + b * c[1], atol=1e-12)


class TestEdgeSimilarity:
    def setup_method(self):
        self.params = make_params(aspects=2, text_dim=1, struct_dim=1)

    def test_orthogonal(self):
        _, e, _ = from_reps(self.params, [[1.0, 0.0], [0.0, 1.0]], [0], [1], [[0.5, 0.5]])
        assert np.allclose(e, [[0, 0]])

    def test_square(self):
        reps = [[0.6, 0.8], [1.0, 0.0]]
        _, e, _ = from_reps(self.params, reps, [0, 0, 1], [0, 1, 0], np.full((3, 2), 0.5))
        assert np.allclose(e, [[0.36, 0.64], [0.6, 0.0], [0.6, 0.0]])

    def test_absorbing_zero(self):
        params = make_params(aspects=2, text_dim=1, struct_dim=2)
        reps = [[0.3, -0.4, 0.5], [0.0, 0.0, 0.0]]
        _, e, _ = from_reps(params, reps, [0, 1], [1, 0], np.full((2, 2), 0.5))
        assert np.array_equal(e, np.zeros((2, 3)))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_l1_norm_bounded_for_unit_inputs(self, seed):
        rng = np.random.default_rng(seed)
        params = make_params(aspects=2, text_dim=4, struct_dim=4, num_nodes=5, seed=seed)
        texts = rng.normal(size=(5, 4))
        pairs = rng.integers(5, size=(int(rng.integers(1, 5)), 2))
        _, e, _ = impacts(params, np.full((5, 2), 0.2), pairs, texts)
        assert np.all(np.abs(e).sum(axis=1) <= 1.0 + 1e-9)


class TestAspectImpact:
    def setup_method(self):
        self.params = make_params(aspects=2, text_dim=1, struct_dim=1)
        self.params.state_to_effect = np.eye(2)
        self.params.effect_weights = np.zeros((2, 2))
        self.params.similarity_weights = np.zeros((2, 2))
        self.reps = [[0.6, 0.8], [1.0, 0.0]]

    def test_effect_identity_path(self):
        self.params.effect_weights = np.eye(2)
        _, _, d = from_reps(self.params, self.reps, [0], [1], [[0.2, 0.8]])
        assert np.allclose(d, [[0.2, 0.8]])
        _, _, d = from_reps(self.params, self.reps, [0, 1], [1, 0], [[0.2, 0.8], [0.7, 0.3]])
        assert np.allclose(d, [[0.2, 0.8], [0.7, 0.3]])

    def test_all_zero(self):
        _, _, d = from_reps(self.params, self.reps, [0, 1], [1, 0], [[0.2, 0.8], [0.7, 0.3]])
        assert np.allclose(d, np.zeros((2, 2)))


def sample_aspect_reference(d_pair, mode, rng=None):
    """The pre-change single-vector selection: argmax of softmax(d) in infer
    mode, a Gumbel-max draw on a (I,)-shaped uniform vector in train mode."""
    pi = softmax(d_pair)
    if mode == "infer":
        index = int(np.argmax(pi))
    else:
        index = int(np.argmax(-np.log(-np.log(rng.random(d_pair.shape))) + np.log(pi)))
    hard = np.zeros_like(pi)
    hard[index] = 1.0
    return hard


def select_aspects_reference(impacts, rng=None):
    """The pre-change batched selection, which returned one one-hot row per
    impact row: the argmax of d, or of a Gumbel-max perturbation of log softmax(d)."""
    scores = np.asarray(impacts, dtype=np.float64)
    if rng is not None:
        scores = -np.log(-np.log(rng.random(scores.shape))) + np.log(softmax(scores))
    onehot = np.zeros_like(scores)
    onehot[np.arange(len(scores)), np.argmax(scores, axis=1)] = 1.0
    return onehot


def masked_impacts_reference(impacts, onehot):
    """The pre-change mask, which tested a one-hot selection entry for 1.0."""
    return np.where(onehot == 1.0, np.maximum(impacts, 0.0), 0.0)


class TestSelectAspects:
    @pytest.mark.parametrize("rows,aspects", [(1, 1), (33, 1), (1, 2), (7, 3), (512, 5), (0, 4)])
    def test_index_is_argmax_of_pre_change_onehot(self, rows, aspects):
        gen = np.random.default_rng(rows * 10 + aspects)
        d = np.round(gen.normal(scale=2.0, size=(rows, aspects)), 1)  # rounding makes ties
        d[:2] = 0.5  # all-tied rows
        rng, ref_rng = substream(11, "gumbel"), substream(11, "gumbel")
        for generator, reference in ((None, None), (rng, ref_rng)):
            chosen = select_aspects(d, generator)
            assert chosen.dtype == np.int64 and chosen.shape == (rows,)
            assert np.array_equal(chosen, np.argmax(select_aspects_reference(d, reference), axis=1))
        assert rng.random() == ref_rng.random()  # both generators consumed the same draws


class TestSampleAspect:
    def test_infer_argmax(self):
        hard, _ = sample_aspect(np.array([0.2, 0.8]), mode="infer")
        assert np.array_equal(hard, [0, 1])
        # softmax rounds these two impacts to the same probability; the argmax
        # is taken over the impacts themselves, as every batched path does
        hard, pi = sample_aspect(np.array([0.0, 1e-17]), mode="infer")
        assert pi[0] == pi[1] and np.array_equal(hard, [0, 1])

    def test_infer_tie_breaks_to_lowest_index(self):
        hard, _ = sample_aspect(np.array([0.5, 0.5]), mode="infer")
        assert np.array_equal(hard, [1, 0])
        assert np.array_equal(select_aspects(np.array([[0.5, 0.5, 0.1], [0.2, 0.7, 0.7]])), [0, 1])

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

    def test_train_draws_match_pre_change_single_vector_form(self):
        gen = np.random.default_rng(8)
        rng, ref_rng = np.random.default_rng(99), np.random.default_rng(99)
        for _ in range(500):
            d = gen.normal(scale=2.0, size=int(gen.integers(2, 7)))
            hard, pi = sample_aspect(d, mode="train", rng=rng)
            assert np.array_equal(hard, sample_aspect_reference(d, "train", ref_rng))
            assert np.array_equal(pi, softmax(d))
            d = np.round(d, 1)
            assert np.array_equal(sample_aspect(d, mode="infer")[0], sample_aspect_reference(d, "infer"))


class TestMaskedImpact:
    def test_negative_clipped(self):
        assert np.allclose(masked_impacts(np.array([[0.3, -0.4]]), np.array([1])), [[0, 0]])

    def test_selected_positive_passes(self):
        assert np.allclose(masked_impacts(np.array([[0.3, -0.4]]), np.array([0])), [[0.3, 0]])
        d = np.array([[0.3, -0.4], [-0.1, 0.2], [-0.5, -0.6]])
        assert np.allclose(masked_impacts(d, select_aspects(d)), [[0.3, 0], [0, 0.2], [0, 0]])

    def test_mask_kills_unselected(self):
        assert np.allclose(masked_impacts(np.array([[0.0, 5.0]]), np.array([0])), [[0, 0]])

    @pytest.mark.parametrize("d", [
        [[0.5, 0.5, 0.1], [0.2, 0.7, 0.7], [1.0, 1.0, 1.0]],  # ties go to the lowest index
        [[-0.3, -0.1, -0.2], [-1e-300, -0.0, -5.0], [-np.inf, -2.0, -2.0]],  # all-negative rows
        [[-0.0, 0.0, -0.0], [0.0, -0.0, -1.0], [-0.0, -0.0, -0.0]],  # signed zeros, equal under argmax
        [[np.nan, 1.0, 2.0], [3.0, np.nan, np.nan], [np.inf, np.inf, 0.0]],
        np.zeros((0, 3)),
    ])
    def test_one_argmax_equals_select_then_mask_bit_for_bit(self, d):
        d = np.asarray(d, dtype=np.float64).reshape(-1, 3)
        got, want = masked_impacts(d, select_aspects(d)), masked_impacts_reference(d, select_aspects_reference(d))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_one_argmax_equals_select_then_mask_on_random_rows(self, seed):
        rng = np.random.default_rng(seed)
        d = np.round(rng.normal(size=(int(rng.integers(1, 40)), int(rng.integers(1, 6)))), 1)  # rounding makes ties
        d[rng.random(d.shape) < 0.1] = -0.0
        want = masked_impacts_reference(d, select_aspects_reference(d))
        assert masked_impacts(d, select_aspects(d)).tobytes() == want.tobytes()

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bounds_and_pattern(self, seed):
        rng = np.random.default_rng(seed)
        d = rng.normal(size=(int(rng.integers(1, 5)), 4))
        for chosen in (rng.integers(4, size=len(d)), select_aspects(d), select_aspects(d, rng)):
            y = masked_impacts(d, chosen)
            assert np.all(y >= 0)
            assert np.all(y <= np.maximum(d, 0.0) + 1e-15)
            assert np.all(np.count_nonzero(y, axis=1) <= 1)


class TestLinkScore:
    def setup_method(self):
        self.params = make_params(aspects=2, text_dim=2, struct_dim=2)
        self.params.node_embeddings[:] = 0.0
        self.params.state_to_effect = np.eye(2)

    def scores(self, texts, state, pair=(0, 1)):
        c, e, _ = impacts(self.params, state, [pair], texts)
        batch = scores_for_pairs(np.array([pair, pair]), state, self.params, texts)
        return float(c.sum() + e.sum()), batch

    def test_element_sums(self):
        texts = np.array([[0.6, 0.8], [0.6, 0.8], [1.0, 0.0], [1.0, 0.0]])
        state = np.array([[0.5, 0.5], [0.2, 0.8], [0.5, 0.5], [0.5, 0.5]])
        f, batch = self.scores(texts, state)  # c = (0.2, 0.8), e = (0.36, 0.64, 0, 0)
        assert f == pytest.approx(2.0) and np.allclose(batch, 2.0)

    def test_zero(self):
        self.params.state_to_effect = np.zeros((2, 2))
        texts = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        f, batch = self.scores(texts, np.full((4, 2), 0.25))
        assert f == 0.0 and np.array_equal(batch, [0.0, 0.0])

    def test_mixed_signs(self):
        self.params.state_to_effect = np.array([[-1.0, 0.0], [0.0, 1.0]])
        texts = np.array([[1.0, 0.0], [0.5, 0.75**0.5], [1.0, 0.0], [1.0, 0.0]])
        f, batch = self.scores(texts, np.ones((4, 2)))  # c = (-1, 1), e = (0.5, 0, 0, 0)
        assert f == pytest.approx(0.5) and np.allclose(batch, 0.5)


class TestScorePair:
    """One candidate pair through the batched chain."""

    def test_infer_deterministic(self):
        params = make_params(num_nodes=5, text_dim=3, struct_dim=2, aspects=3)
        state = np.full((5, 3), 1 / 5)
        texts = np.random.default_rng(2).normal(size=(5, 3))
        a = impacts(params, state, [(0, 3)], texts)
        b = impacts(params, state, [(0, 3)], texts)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert np.array_equal(select_aspects(a[2]), select_aspects(b[2]))

    def test_composition_matches_components(self):
        params = make_params(num_nodes=4, text_dim=2, struct_dim=2, aspects=2)
        state = np.array([[0.3, 0.7], [0.6, 0.4], [0.1, 0.9], [0.5, 0.5]])
        texts = np.random.default_rng(3).normal(size=(4, 2))
        for i, j in ((0, 2), (3, 1)):
            c, e, d = impacts(params, state, [(i, j)], texts)
            reps, _ = representations_for(np.array([i, j]), texts, params)
            assert np.array_equal(c[0], state[j] @ params.state_to_effect.T)
            assert np.array_equal(e[0], reps[0] * reps[1])
            assert np.allclose(d[0], c[0] @ params.effect_weights + e[0] @ params.similarity_weights)
            chosen = select_aspects(d)
            assert np.array_equal(chosen, [np.argmax(d[0])])
            assert masked_impacts(d, chosen).sum() == max(d.max(), 0.0)
            assert scores_for_pairs(np.array([(i, j)]), state, params, texts)[0] == c.sum() + e.sum()

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bundle_invariants_hold(self, seed):
        rng = np.random.default_rng(seed)
        params = make_params(num_nodes=6, text_dim=3, struct_dim=2, aspects=3, seed=seed)
        state = np.abs(rng.normal(size=(6, 3)))
        state /= state.sum(axis=0)
        texts = rng.normal(size=(6, 3))
        _, _, d = impacts(params, state, [(0, 1)], texts)
        chosen = select_aspects(d, rng if seed % 2 else None)
        y = masked_impacts(d, chosen)
        assert chosen.shape == (1,) and 0 <= chosen[0] < 3
        assert np.all(y >= 0) and np.count_nonzero(y) <= 1

    def test_batch_scores_match_scalar_path(self):
        params = make_params(num_nodes=6, text_dim=3, struct_dim=2, aspects=3, seed=5)
        rng = np.random.default_rng(4)
        state = np.abs(rng.normal(size=(6, 3)))
        state /= state.sum(axis=0)
        texts = rng.normal(size=(6, 3))
        pairs = [(0, 1), (2, 5), (4, 3)]
        batch = scores_for_pairs(np.asarray(pairs), state, params, texts)
        for pair, score in zip(pairs, batch):
            c, e, _ = impacts(params, state, [pair], texts)
            assert score == pytest.approx(c.sum() + e.sum(), abs=1e-12)


def impacts_for_pairs_per_row(pairs, state_matrix, params, text_vectors):
    """Reference (F, D): one representation per pair endpoint, recomputed on
    every row, and the whole chain as one product over all rows."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    src, dst = pairs[:, 0], pairs[:, 1]
    e, _ = representations_for(src, text_vectors, params)
    e *= representations_for(dst, text_vectors, params)[0]
    c = np.asarray(state_matrix)[dst] @ params.state_to_effect.T
    d = c @ params.effect_weights + e @ params.similarity_weights
    return c.sum(axis=1) + e.sum(axis=1), d


class TestImpactsForPairs:
    def setup_inputs(self, num_nodes=40, seed=11, text_dim=7, struct_dim=5):
        params = make_params(num_nodes=num_nodes, text_dim=text_dim, struct_dim=struct_dim, aspects=4, seed=seed)
        rng = np.random.default_rng(seed)
        state = rng.random((num_nodes, 4))
        state /= state.sum(axis=0)
        texts = rng.normal(size=(num_nodes, text_dim))
        texts[3] = 0.0
        params.node_embeddings[3] = 0.0  # node 3 has a zero-norm representation
        return params, state, texts

    def assert_matches_reference(self, pairs, params, state, texts):
        got = impacts_for_pairs(pairs, state, params, texts)
        want = impacts_for_pairs_per_row(pairs, state, params, texts)
        assert len(got) == 2
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b)

    @pytest.mark.parametrize("pairs", [
        [(0, 3)],
        [(3, 1)],
        [(5, 9), (9, 5), (5, 9), (3, 5), (5, 3), (3, 3), (0, 39)],
        np.random.default_rng(2).integers(40, size=(700, 2)),
        np.random.default_rng(3).integers(6, size=(300, 2)),
        np.random.default_rng(4).integers(40, size=(2 * BLOCK_ROWS + 5, 2)),  # two blocks, the second 5 rows longer
        np.zeros((0, 2), dtype=np.int64),
    ])
    def test_bitwise_equal_to_per_row_reference(self, pairs):
        self.assert_matches_reference(pairs, *self.setup_inputs())

    @pytest.mark.parametrize("rows", [0, 2 * BLOCK_ROWS + 5])
    def test_without_scores_d_is_unchanged_and_f_is_none(self, rows):
        params, state, texts = self.setup_inputs()
        pairs = np.random.default_rng(6).integers(40, size=(rows, 2))
        f, d = impacts_for_pairs(pairs, state, params, texts, scores=False)
        assert f is None and d.shape == (rows, 4)
        assert d.tobytes() == impacts_for_pairs(pairs, state, params, texts)[1].tobytes()

    def test_blocks_bitwise_equal_at_cora_width(self):
        # L = 1433 + 100: a block of a few rows here would take OpenBLAS's
        # small-matrix path, whose last bits differ from the one-block product
        pairs = np.random.default_rng(5).integers(40, size=(2 * BLOCK_ROWS + 5, 2))
        self.assert_matches_reference(pairs, *self.setup_inputs(text_dim=1433, struct_dim=100))

    @pytest.mark.parametrize("rows", [
        0, 1, BLOCK_ROWS, 2 * BLOCK_ROWS - 1, 2 * BLOCK_ROWS, 2 * BLOCK_ROWS + 5, 4 * BLOCK_ROWS - 1, 4 * BLOCK_ROWS + 1,
    ])
    def test_blocks_have_at_least_block_rows(self, monkeypatch, rows):
        params, state, texts = self.setup_inputs()
        sizes = []

        def recording(reps, src_rows, dst_rows, dst_states, params):
            sizes.append(len(src_rows))
            return impacts_from_representations(reps, src_rows, dst_rows, dst_states, params)

        monkeypatch.setattr(model, "impacts_from_representations", recording)
        pairs = np.random.default_rng(rows).integers(40, size=(rows, 2))
        impacts_for_pairs(pairs, state, params, texts)
        assert sum(sizes) == rows
        if rows < 2 * BLOCK_ROWS:
            assert sizes == [rows]
        else:
            assert min(sizes) >= BLOCK_ROWS and max(sizes) < 2 * BLOCK_ROWS

    @pytest.mark.parametrize("bad", [-1, 40])
    @pytest.mark.parametrize("column", [0, 1])
    def test_node_index_outside_range_rejected(self, bad, column):
        params, state, texts = self.setup_inputs()
        pairs = np.array([(0, 1), (2, 3), (5, 6)])
        pairs[1, column] = bad
        with pytest.raises(ValueError, match=rf"pair 1 \(.*{bad}.*\) has a node index outside \[0, 40\)"):
            impacts_for_pairs(pairs, state, params, texts)
        with pytest.raises(ValueError, match="outside"):
            scores_for_pairs(pairs[1:2], state, params, texts)  # -1 used to score node 39 silently


def pairs_over(rng, num_nodes, rows, distinct):
    """`rows` pairs whose endpoints are exactly `distinct` nodes out of
    `num_nodes`, and those nodes, sorted."""
    nodes = np.sort(rng.choice(num_nodes, size=distinct, replace=False))
    endpoints = np.concatenate([nodes, rng.choice(nodes, size=2 * rows - distinct)])
    return rng.permutation(endpoints).reshape(rows, 2), nodes


def calling_thread(monkeypatch):
    """Make the pool run every task on the calling thread, as on a one-CPU process."""
    monkeypatch.setattr(pool, "_usable_cpus", lambda: 1)


class TestPooledImpacts:
    """Representation blocks of BLOCK_ROWS distinct nodes and pair blocks of
    at least BLOCK_ROWS pairs run as tasks on the worker pool; every output
    must match the calling thread's byte for byte."""

    NODES = 3 * BLOCK_ROWS

    def setup_inputs(self, nodes):
        params = make_params(num_nodes=self.NODES, text_dim=6, struct_dim=4, aspects=3, seed=21)
        rng = np.random.default_rng(21)
        state = rng.random((self.NODES, 3))
        state /= state.sum(axis=0)
        texts = rng.normal(size=(self.NODES, 6))
        for zero in (nodes[0], nodes[-1]):  # nodes[-1] is alone in the last representation block
            texts[zero] = 0.0
            params.node_embeddings[zero] = 0.0
        return params, state, texts

    @pytest.mark.parametrize("scores", [True, False])
    @pytest.mark.parametrize("distinct", [BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
    @pytest.mark.parametrize("rows", [2 * BLOCK_ROWS - 1, 2 * BLOCK_ROWS, 2 * BLOCK_ROWS + 1])
    def test_bitwise_equal_to_the_calling_thread(self, monkeypatch, rows, distinct, scores):
        pairs, nodes = pairs_over(np.random.default_rng(rows + distinct), self.NODES, rows, distinct)
        params, state, texts = self.setup_inputs(nodes)
        f, d = impacts_for_pairs(pairs, state, params, texts, scores=scores)
        with monkeypatch.context() as patch:
            calling_thread(patch)
            f_ref, d_ref = impacts_for_pairs(pairs, state, params, texts, scores=scores)
        assert d.shape == (rows, 3) and d.tobytes() == d_ref.tobytes()
        if scores:
            assert f.shape == (rows,) and f.tobytes() == f_ref.tobytes()
            assert f.tobytes() == impacts_for_pairs_per_row(pairs, state, params, texts)[0].tobytes()
        else:
            assert f is None and f_ref is None
        whole, _ = representations_for(nodes, texts, params)  # one block of every distinct node
        _, (src_rows, dst_rows) = distinct_nodes(self.NODES, pairs[:, 0], pairs[:, 1])
        assert not whole[-1].any()
        assert d.tobytes() == from_reps(params, whole, src_rows, dst_rows, state[pairs[:, 1]])[2].tobytes()

    def record_threads(self, monkeypatch, rows, distinct):
        pairs, nodes = pairs_over(np.random.default_rng(7), self.NODES, rows, distinct)
        params, state, texts = self.setup_inputs(nodes)
        names = {"representations_for": [], "impacts_from_representations": []}
        for name, calls in names.items():
            def recording(*args, _calls=calls, _function=getattr(model, name)):
                _calls.append(threading.current_thread().name)
                return _function(*args)
            monkeypatch.setattr(model, name, recording)
        impacts_for_pairs(pairs, state, params, texts)
        return names["representations_for"], names["impacts_from_representations"]

    def test_multi_block_calls_run_on_the_pool(self, monkeypatch):
        on_pool = pool._usable_cpus() > 1
        represent, impact = self.record_threads(monkeypatch, 3 * BLOCK_ROWS, 2 * BLOCK_ROWS + 1)
        assert (len(represent), len(impact)) == (3, 3)
        assert all(name.startswith("aspectcite-pool") == on_pool for name in represent + impact), represent + impact

    def test_one_block_calls_run_on_the_calling_thread(self, monkeypatch):
        caller = threading.current_thread().name
        represent, impact = self.record_threads(monkeypatch, 2 * BLOCK_ROWS - 1, BLOCK_ROWS)
        assert represent == [caller] and impact == [caller]

    def test_a_failing_block_raises_after_every_block_finished(self, monkeypatch):
        pairs, nodes = pairs_over(np.random.default_rng(8), self.NODES, 5 * BLOCK_ROWS, BLOCK_ROWS)
        params, state, texts = self.setup_inputs(nodes)
        calls, finished = itertools.count(), []

        def failing(reps, src_rows, dst_rows, dst_states, params):
            if next(calls) == 0:  # atomic: exactly one block fails
                raise ValueError("block failed")
            finished.append(len(src_rows))
            return impacts_from_representations(reps, src_rows, dst_rows, dst_states, params)

        monkeypatch.setattr(model, "impacts_from_representations", failing)
        with pytest.raises(ValueError, match="block failed"):
            impacts_for_pairs(pairs, state, params, texts)
        # the calling thread stops at the first error
        assert len(finished) == (4 if pool._usable_cpus() > 1 else 0)

    def test_forked_child_computes_the_same_impacts(self):
        pairs, nodes = pairs_over(np.random.default_rng(9), self.NODES, 3 * BLOCK_ROWS, 2 * BLOCK_ROWS + 1)
        params, state, texts = self.setup_inputs(nodes)
        expected = impacts_for_pairs(pairs, state, params, texts)[1].tobytes()  # the parent's pool is live

        def child():
            assert impacts_for_pairs(pairs, state, params, texts)[1].tobytes() == expected

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # forking a process that runs threads
            process = multiprocessing.get_context("fork").Process(target=child)
            process.start()
        process.join(timeout=60)
        alive = process.is_alive()
        if alive:
            process.kill()
            process.join()
        assert not alive and process.exitcode == 0


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

    @pytest.mark.parametrize("aspects,text_dim,struct_dim,num_nodes", [(1, 1, 1, 1), (1, 4, 1, 6), (3, 1, 5, 1), (2, 3, 4, 5)])
    def test_round_trip_is_bitwise(self, tmp_path, aspects, text_dim, struct_dim, num_nodes):
        params = make_params(aspects=aspects, text_dim=text_dim, struct_dim=struct_dim, num_nodes=num_nodes)
        for seed, name in enumerate(ModelParams.TENSOR_FIELDS):
            setattr(params, name, special_values(getattr(params, name).shape, seed=seed))
        save_checkpoint(params, tmp_path / "ckpt.json")
        loaded = load_checkpoint(tmp_path / "ckpt.json")
        for name in ModelParams.TENSOR_FIELDS:
            want, got = getattr(params, name), getattr(loaded, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert got.flags.writeable and got.flags.c_contiguous and got.dtype.isnative
        assert loaded.dims == params.dims and loaded.seed_lineage == params.seed_lineage

    def test_save_load_save_gives_same_bytes(self, tmp_path):
        params = make_params(num_nodes=6, seed=3)
        params.seed_lineage = "root/init"
        save_checkpoint(params, tmp_path / "a.json")
        save_checkpoint(load_checkpoint(tmp_path / "a.json"), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_checkpoint_bytes_are_pinned(self, tmp_path):
        params = ModelParams(
            dims=Dims(aspects=2, text_dim=3, struct_dim=4),
            state_to_effect=np.array([[-0.0, 1e-300], [2.0 / 3.0, 1.0]]),
            effect_weights=-np.arange(4.0).reshape(2, 2) / 7.0,
            similarity_weights=(np.arange(14.0).reshape(7, 2) - 6.5) / 3.0,
            node_embeddings=np.arange(20.0).reshape(5, 4) * np.pi,
            seed_lineage="root-seed=7",
        )
        save_checkpoint(params, tmp_path / "checkpoint.json")
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        assert digests == CHECKPOINT_SHA256

    def test_sidecar_holds_the_tensors_in_field_order(self, tmp_path):
        params = make_params(num_nodes=6, seed=4)
        save_checkpoint(params, tmp_path / "ckpt.json")
        want = b"".join(getattr(params, name).astype("<f8").tobytes() for name in ModelParams.TENSOR_FIELDS)
        assert (tmp_path / "ckpt.bin").read_bytes() == want

    @pytest.mark.parametrize("tensor", ["state_to_effect", "node_embeddings"])
    @pytest.mark.parametrize("how", ARTIFACT_CORRUPTIONS)
    def test_corrupt_file_rejected(self, tmp_path, how, tensor):
        path = tmp_path / "ckpt.json"
        save_checkpoint(make_params(), path)
        message = corrupt_artifact(path, how, entries=checkpoint_entries, tensor=ModelParams.TENSOR_FIELDS.index(tensor))
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)

    def test_v1_list_file_rejected_naming_the_format(self, tmp_path):
        path = tmp_path / "ckpt.json"
        write_v1_checkpoint(make_params(), path)
        with pytest.raises(ValueError, match="aspectcite-checkpoint-v4"):
            load_checkpoint(path)

    def test_v2_base64_file_rejected_naming_the_format(self, tmp_path):
        path = tmp_path / "ckpt.json"
        write_v2_checkpoint(make_params(), path)
        pattern = "format 'aspectcite-checkpoint-v2', expected 'aspectcite-checkpoint-v4'; re-run train"
        with pytest.raises(ValueError, match=pattern):
            load_checkpoint(path)

    def test_v3_five_tensor_file_rejected_naming_the_format(self, tmp_path):
        path = tmp_path / "ckpt.json"
        write_v3_checkpoint(make_params(), path)
        pattern = "format 'aspectcite-checkpoint-v3', expected 'aspectcite-checkpoint-v4'; re-run train"
        with pytest.raises(ValueError, match=pattern):
            load_checkpoint(path)

    def test_header_with_another_runs_sidecar_rejected(self, tmp_path):
        # a crash between the sidecar's rename and the header's leaves this pair
        save_checkpoint(make_params(seed=1), tmp_path / "ckpt.json")
        save_checkpoint(make_params(seed=2), tmp_path / "other.json")
        os.replace(tmp_path / "other.bin", tmp_path / "ckpt.bin")
        with pytest.raises(ValueError, match="does not match .*; re-run train"):
            load_checkpoint(tmp_path / "ckpt.json")


def test_softmax_rows_sum_to_one():
    x = np.random.default_rng(0).normal(size=(5, 4)) * 50
    s = softmax(x)
    assert np.allclose(s.sum(axis=1), 1.0)
