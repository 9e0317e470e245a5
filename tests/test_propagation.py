"""Propagation operator contracts against dense brute-force oracles."""

import base64
import hashlib
import json
import math
import multiprocessing
import os
import re
import sys
import threading
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from aspectcite import Dims, ModelParams, TrainConfig, build_graph, pool, propagation, substream, train_sd_phase, training
from aspectcite.codec import read_payload, read_tensors, sidecar_path, tensor_entry, write_artifact
from aspectcite.propagation import (
    apply_projection,
    build_transition,
    initialize_state,
    load_state,
    propagate,
    save_state,
    AspectMatrix,
    AspectState,
    ProjectionOperator,
)


def csr(op, k):
    """Aspect k's block nu*X_k as a scipy CSR matrix, for the scipy-backed oracles."""
    mat = op.matrices[k]
    return sparse.csr_matrix((mat.data, mat.indices, mat.indptr), shape=(op.num_nodes, op.num_nodes))


def transition(op, k):
    """Aspect k's column-normalized transition matrix X_k, as a dense array."""
    return csr(op, k).toarray() / op.nu


def dangling_columns(op, k):
    """(N,) bool: the columns of aspect k's transition matrix that hold no entry."""
    return np.bincount(op.matrices[k].indices, minlength=op.num_nodes) == 0


def dense_projection(edges, impacts, n):
    """Brute-force dense P per aspect: beta*ones + nu*(X + Z), assembled entry by entry."""
    impacts = np.atleast_2d(np.asarray(impacts, dtype=float))
    aspects = impacts.shape[1]
    beta = 0.05 / n
    nu = 1.0 - beta * n
    mats = []
    for k in range(aspects):
        x = np.zeros((n, n))
        for (i, j), y in zip(edges, impacts[:, k]):
            x[i, j] = y
        sums = x.sum(axis=0)
        z = np.zeros((n, n))
        for j in range(n):
            if sums[j] > 0:
                x[:, j] /= sums[j]
            else:
                z[:, j] = 1.0 / n
        mats.append(beta * np.ones((n, n)) + nu * (x + z))
    return mats


def apply_projection_per_aspect(op, state):
    """Reference step: per aspect, one strided sparse matvec with nu*X_k, then
    the mass it did not keep spread evenly over the nodes."""
    matrix = state.matrix
    n = op.num_nodes
    out = np.empty_like(matrix)
    for k in range(op.aspects):
        column = np.ascontiguousarray(matrix[:, k])
        kept = csr(op, k) @ column
        out[:, k] = kept + (column.sum() - kept.sum()) / n
    return out


def step_residual(before, after):
    """Reference residual: the max over aspects of the L1 change in the aspect's column."""
    return float(max(np.abs(after[:, k] - before[:, k]).sum() for k in range(before.shape[1])))


def apply_projection_gathers(op, state):
    """The step before the deficit form, kept as an oracle: gather each
    aspect's dangling columns, then add nu * X_k x, nu * dangling_mass / N and
    beta * column_sum in three passes over the state."""
    matrix = state.matrix
    column_sums = matrix.sum(axis=0)
    n = op.num_nodes
    flat = matrix.T.ravel()
    data = np.concatenate([mat.data for mat in op.matrices])
    rows = np.concatenate([mat.rows + k * n for k, mat in enumerate(op.matrices)])
    cols = np.concatenate([mat.indices + k * n for k, mat in enumerate(op.matrices)])
    dangling = [np.flatnonzero(dangling_columns(op, k)) + k * n for k in range(op.aspects)]
    dangling_mass = np.array([flat[idx].sum() for idx in dangling])
    out = np.bincount(rows, weights=data * flat.take(cols), minlength=op.aspects * n)
    out = out.astype(np.float64, copy=False).reshape(op.aspects, n)
    out += (op.nu * dangling_mass / n)[:, None]
    out += op.beta * column_sums[:, None]
    return AspectState(matrix=out.T, step=state.step + 1, residual=step_residual(matrix, out.T), converged=state.converged)


def build_transition_coo(edges, impacts, num_nodes):
    """Reference build: every edge enters the column masses, scipy's
    COO-to-CSR conversion sorts and canonicalises each aspect's matrix, and
    each entry's row comes from expanding indptr."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    impacts = np.atleast_2d(np.asarray(impacts, dtype=np.float64))
    rows, cols = edges[:, 0], edges[:, 1]
    beta = 0.05 / num_nodes
    nu = 1.0 - beta * num_nodes
    matrices = []
    for k in range(impacts.shape[1]):
        weight = impacts[:, k]
        column_mass = np.bincount(cols, weights=weight, minlength=num_nodes)
        fed = column_mass > 0.0
        keep = fed[cols] & (weight > 0.0)
        data = weight[keep] / column_mass[cols[keep]]
        mat = sparse.csr_matrix((data, (rows[keep], cols[keep])), shape=(num_nodes, num_nodes))
        indptr = mat.indptr.astype(np.int64)
        rows_k = np.repeat(np.arange(num_nodes), np.diff(indptr))
        matrices.append(AspectMatrix(indptr, mat.indices[: mat.nnz].astype(np.int64), nu * mat.data[: mat.nnz], rows_k))
    return ProjectionOperator(num_nodes=num_nodes, beta=beta, nu=nu, matrices=tuple(matrices))


@dataclass(frozen=True)
class StackedOperator:
    """Reference operator: the per-aspect matrices, times nu, stacked into one block-diagonal CSR matrix."""

    operator: ProjectionOperator
    stacked: sparse.csr_matrix

    @property
    def num_nodes(self):
        return self.operator.num_nodes

    @property
    def aspects(self):
        return self.operator.aspects


def build_stacked_projection(op):
    n = op.num_nodes
    indptr = [np.zeros(1, dtype=np.int64)]
    offset = 0
    for mat in op.matrices:
        indptr.append(mat.indptr[1:] + offset)
        offset += len(mat.data)
    stacked = sparse.csr_matrix(
        (
            np.concatenate([mat.data for mat in op.matrices]),
            np.concatenate([mat.indices + k * n for k, mat in enumerate(op.matrices)]),
            np.concatenate(indptr),
        ),
        shape=(op.aspects * n, op.aspects * n),
    )
    return StackedOperator(operator=op, stacked=stacked)


def apply_stacked_projection(op, state):
    """Reference step: one scipy SpMV with the stacked matrix on the aspect-major
    flat state, then the L1 change of each aspect row of the flat states."""
    matrix = state.matrix
    n = op.num_nodes
    flat = matrix.T.ravel().reshape(op.aspects, n)
    out = (op.stacked @ flat.ravel()).reshape(op.aspects, n)
    out += ((flat.sum(axis=1) - out.sum(axis=1)) / n)[:, None]
    residual = float(np.max(np.abs(out - flat).sum(axis=1)))
    return AspectState(matrix=out.T, step=state.step + 1, residual=residual, converged=state.converged)


def assert_same_operator(op, reference):
    assert (op.num_nodes, op.aspects, op.beta, op.nu) == (reference.num_nodes, reference.aspects, reference.beta, reference.nu)
    for mat, ref in zip(op.matrices, reference.matrices, strict=True):
        assert isinstance(mat, AspectMatrix)
        for name in AspectMatrix._fields:
            got, want = getattr(mat, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def propagate_c_ordered(op, initial, max_steps, epsilon):
    """Reference power iteration: C-ordered state each step, residual as a strided axis-0 sum."""
    current = initial.matrix
    for step in range(1, max_steps + 1):
        nxt = np.ascontiguousarray(apply_projection_per_aspect(op, AspectState(matrix=current)))
        residual = float(np.max(np.abs(nxt - current).sum(axis=0)))
        current = nxt
        if residual < epsilon:
            return current, step, residual, True
    return current, max_steps, residual, False


def one_hot_operator(rng, aspects, n=3000, m=9000):
    """One-hot masked impacts as train_sd_phase builds them, with dangling columns in every aspect."""
    rows, cols = rng.integers(n, size=m), rng.integers(n // 2, size=m)
    keep = rows != cols
    edges = np.unique(np.stack([rows[keep], cols[keep]], axis=1), axis=0)
    impacts = np.zeros((len(edges), aspects))
    impacts[np.arange(len(edges)), rng.integers(aspects, size=len(edges))] = rng.random(len(edges)) - 0.2
    return build_transition(edges, np.maximum(impacts, 0.0), n)


def random_distribution(rng, n, aspects):
    state = rng.random((n, aspects))
    return state / state.sum(axis=0)


def random_instance(rng, max_n=50, max_aspects=4):
    n = int(rng.integers(3, max_n + 1))
    aspects = int(rng.integers(1, max_aspects + 1))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    count = int(rng.integers(1, min(len(pairs), 4 * n)))
    idx = rng.choice(len(pairs), size=count, replace=False)
    edges = [pairs[k] for k in idx]
    impacts = rng.random((count, aspects)) * (rng.random((count, aspects)) > 0.2)
    return n, aspects, edges, impacts


class TestBuildTransition:
    def test_equal_impacts_split_evenly(self):
        mat = transition(build_transition([(1, 3), (2, 3)], np.array([[1.0], [1.0]]), 4), 0)
        assert mat[1, 3] == pytest.approx(0.5)
        assert mat[2, 3] == pytest.approx(0.5)

    def test_single_edge_self_normalizes(self):
        assert transition(build_transition([(1, 2)], np.array([[7.0]]), 3), 0)[1, 2] == pytest.approx(1.0)

    def test_proportional_split(self):
        mat = transition(build_transition([(1, 3), (2, 3)], np.array([[1.0], [3.0]]), 4), 0)
        assert mat[1, 3] == pytest.approx(0.25)
        assert mat[2, 3] == pytest.approx(0.75)

    def test_negative_impact_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            build_transition([(0, 1)], np.array([[-0.1]]), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_impact_rejected(self, bad):
        # a NaN compares False against 0, so only an explicit check keeps it out of the column masses
        impacts = np.array([[0.5, 0.0], [bad, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            build_transition([(0, 2), (1, 2), (2, 0)], impacts, 3)

    @pytest.mark.parametrize("edges,first", [
        ([(0, 1), (1, 3)], 1),  # a cited node N: aspect 0 once read aspect 1's mass as its node N
        ([(0, 1), (2, 0), (3, 2)], 2),  # a citer N: once an indptr of length N + 2 and a broadcast error later
        ([(0, 1), (-1, 2)], 1),
        ([(0, -3), (1, 0)], 0),
    ])
    def test_node_index_outside_the_graph_rejected(self, edges, first):
        with pytest.raises(ValueError, match=rf"edge {first} \({edges[first][0]}, {edges[first][1]}\) .* outside \[0, 3\)"):
            build_transition(edges, np.array([[1.0, 0.0]] * len(edges)), 3)

    def test_zero_mass_column_marked_dangling(self):
        op = build_transition([(0, 1)], np.array([[0.0]]), 3)
        assert csr(op, 0).nnz == 0

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bit_equal_to_coo_reference(self, data):
        n = data.draw(st.integers(1, 8), label="n")  # few columns, so several edges share each mass sum
        aspects = data.draw(st.integers(1, 4), label="aspects")
        edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), unique=True, max_size=50))
        value = st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1.0, 1.0 / 3.0, 1e300, np.finfo(float).max]),
            st.floats(0.0, 1.0),
            st.floats(0.0, 1e6),
        )
        row = st.one_of(
            st.just([0.0] * aspects),  # all-zero row
            st.integers(0, aspects - 1).flatmap(lambda k: value.map(lambda v: [v if a == k else 0.0 for a in range(aspects)])),
            st.lists(value, min_size=aspects, max_size=aspects),  # several aspects at once
        )
        impacts = np.array(data.draw(st.lists(row, min_size=len(edges), max_size=len(edges))), dtype=float)
        impacts = impacts.reshape(len(edges), aspects)
        # columns whose every incoming weight is zero, in some or all aspects
        zero_fed = data.draw(st.sets(st.integers(0, n - 1), max_size=n), label="zero-fed columns")
        for e, (_, j) in enumerate(edges):
            if j in zero_fed:
                impacts[e, data.draw(st.sampled_from([slice(None), 0]))] = 0.0
        order = data.draw(st.permutations(range(len(edges))), label="edge order")
        shuffled_edges = np.array(edges, dtype=np.int64).reshape(-1, 2)[order]
        shuffled_impacts = impacts[order]
        assert_same_operator(
            build_transition(shuffled_edges, shuffled_impacts, n),
            build_transition_coo(shuffled_edges, shuffled_impacts, n),
        )

    @pytest.mark.parametrize("aspects", [1, 3, 5])
    def test_bit_equal_to_coo_reference_on_large_graph(self, aspects):
        rng = np.random.default_rng(80 + aspects)
        n, m = 3000, 9000
        rows, cols = rng.integers(n, size=m), rng.integers(n // 2, size=m)
        edges = np.unique(np.stack([rows, cols], axis=1), axis=0)
        edges = edges[rng.permutation(len(edges))]
        impacts = rng.random((len(edges), aspects)) * (rng.random((len(edges), aspects)) < 0.4)
        assert_same_operator(build_transition(edges, impacts, n), build_transition_coo(edges, impacts, n))

    def test_column_sums_one_or_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n, aspects, edges, impacts = random_instance(rng, max_n=20)
            op = build_transition(edges, impacts, n)
            assert (op.beta, op.nu) == (0.05 / n, 1.0 - 0.05 / n * n)
            for k in range(aspects):
                sums = transition(op, k).sum(axis=0)
                dangling = dangling_columns(op, k)
                fed = np.zeros(n, dtype=bool)
                fed[[j for (_, j), y in zip(edges, impacts[:, k]) if y > 0]] = True
                assert np.array_equal(dangling, ~fed)
                assert np.allclose(sums[~dangling], 1.0, atol=1e-9)
                assert np.allclose(sums[dangling], 0.0)


class TestApplyProjection:
    def test_columns_stay_distributions(self):
        rng = np.random.default_rng(1)
        n, aspects, edges, impacts = random_instance(rng, max_n=30)
        op = build_transition(edges, impacts, n)
        state = initialize_state(n, aspects)
        out = apply_projection(op, state)
        assert np.allclose(out.matrix.sum(axis=0), 1.0, atol=1e-9)
        assert out.step == 1

    def test_symmetric_two_cycle_fixed_point(self):
        op = build_transition([(0, 1), (1, 0)], np.array([[1.0], [1.0]]), 2)
        state = AspectState(matrix=np.array([[0.5], [0.5]]))
        out = apply_projection(op, state)
        assert np.allclose(out.matrix, [[0.5], [0.5]], atol=1e-12)

    def test_matches_dense_oracle_three_nodes(self):
        edges = [(0, 2), (1, 2)]
        impacts = np.array([[1.0], [1.0]])
        op = build_transition(edges, impacts, 3)
        state = initialize_state(3, 1)
        out = apply_projection(op, state)
        dense = dense_projection(edges, impacts, 3)[0]
        expected = dense @ state.matrix[:, 0]
        assert np.allclose(out.matrix[:, 0], expected, atol=1e-12)

    def test_unnormalized_input_rejected(self):
        op = build_transition([(0, 1)], np.array([[1.0]]), 2)
        with pytest.raises(ValueError, match="sum to 1"):
            apply_projection(op, AspectState(matrix=np.array([[0.9], [0.9]])))

    def test_nan_column_rejected(self):
        # a NaN column sum compares False against any tolerance
        op = build_transition([(0, 1), (1, 0)], np.array([[1.0, 1.0], [1.0, 1.0]]), 2)
        with pytest.raises(ValueError, match="sum to 1"):
            apply_projection(op, AspectState(matrix=np.array([[0.5, np.nan], [0.5, 0.5]])))

    @pytest.mark.parametrize("dangling", ["all", "none", "mixed"])
    def test_one_step_conserves_column_sums(self, dangling):
        # a sequential sum down the uniform C-ordered start's columns is off by
        # ~2e-12 at 10^5 nodes, so the exact sums also check how the step sums them
        rng = np.random.default_rng(11)
        n, aspects = 100_000, 3
        if dangling == "mixed":
            op = one_hot_operator(rng, aspects, n=n, m=3 * n)
        else:
            # a ring feeds every column; extra random edges skew the in-degrees
            ring = np.stack([(np.arange(n) + 1) % n, np.arange(n)], axis=1)
            extra = rng.integers(n, size=(4 * n, 2))
            edges = np.unique(np.concatenate([ring, extra[extra[:, 0] != extra[:, 1]]]), axis=0)
            impacts = rng.random((len(edges), aspects)) + 0.1
            op = build_transition(edges, impacts * (dangling == "none"), n)
        flags = [dangling_columns(op, k) for k in range(aspects)]
        assert {"all": all(f.all() for f in flags), "none": not any(f.any() for f in flags),
                "mixed": all(f.any() and not f.all() for f in flags)}[dangling]
        start = initialize_state(n, aspects).matrix
        out = apply_projection(op, AspectState(matrix=start))
        for k in range(aspects):
            assert abs(math.fsum(out.matrix[:, k]) - math.fsum(start[:, k])) <= 1e-13

    @pytest.mark.parametrize("aspects", [1, 2, 3, 4, 5])
    def test_bitwise_equal_to_per_aspect_loop(self, aspects):
        # a graph large enough for the pairwise sums to take several blocks
        rng = np.random.default_rng(40 + aspects)
        op = one_hot_operator(rng, aspects)
        assert all(dangling_columns(op, k).any() for k in range(aspects))
        state = random_distribution(rng, op.num_nodes, aspects)
        for matrix in (state, np.asfortranarray(state)):
            current = AspectState(matrix=matrix)
            for _ in range(3):
                out = apply_projection(op, current)
                assert np.array_equal(out.matrix, apply_projection_per_aspect(op, current))
                assert out.residual == step_residual(current.matrix, out.matrix)
                assert out.matrix.T.flags.c_contiguous
                current = out

    def test_bitwise_equal_to_per_aspect_loop_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, aspects, edges, impacts = random_instance(rng, max_aspects=5)
            op = build_transition(edges, impacts, n)
            state = rng.random((n, aspects))
            state = np.asfortranarray(state / state.sum(axis=0))
            out = apply_projection(op, AspectState(matrix=state))
            assert np.array_equal(out.matrix, apply_projection_per_aspect(op, AspectState(matrix=state)))

    def test_no_positive_impact_gives_the_uniform_state(self):
        # every column is dangling, so the step is the uniform distribution;
        # np.bincount of an empty input is int64 and once broke the step
        op = build_transition([[0, 1], [1, 2]], np.zeros((2, 2)), 3)
        assert all(dangling_columns(op, k).all() for k in range(2)) and not any(len(mat.rows) for mat in op.matrices)
        state = AspectState(matrix=np.array([[0.5, 0.2], [0.3, 0.2], [0.2, 0.6]]))
        out = propagate(op, state)
        assert out.matrix.dtype == np.float64 and np.allclose(out.matrix, 1.0 / 3.0, atol=1e-15)
        assert out.converged and out.step == 2
        uniform = propagate(op, initialize_state(3, 2))
        assert np.allclose(uniform.matrix, 1.0 / 3.0, atol=1e-15) and uniform.converged

    def test_positivity_after_one_step(self):
        rng = np.random.default_rng(2)
        n, aspects, edges, impacts = random_instance(rng, max_n=25)
        op = build_transition(edges, impacts, n)
        out = apply_projection(op, initialize_state(n, aspects))
        assert np.all(out.matrix >= op.beta - 1e-15)


class TestPropagate:
    def test_fixed_point_matches_dense_power_iteration(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            n, aspects, edges, impacts = random_instance(rng)
            op = build_transition(edges, impacts, n)
            result = propagate(op, initialize_state(n, aspects), max_steps=500, epsilon=1e-12)
            dense = dense_projection(edges, impacts, n)
            for k in range(aspects):
                v = np.full(n, 1.0 / n)
                for _ in range(2000):
                    nv = dense[k] @ v
                    if np.abs(nv - v).sum() < 1e-14:
                        v = nv
                        break
                    v = nv
                assert np.abs(result.matrix[:, k] - v).sum() < 1e-6

    def test_independent_of_start(self):
        # each result sits within residual * nu/(1-nu) of the unique fixed
        # point (geometric tail of the 0.95-contraction), hence the 19x factor
        rng = np.random.default_rng(4)
        n, aspects, edges, impacts = random_instance(rng)
        op = build_transition(edges, impacts, n)
        eps = 1e-12
        tail = op.nu / (1.0 - op.nu)
        a = propagate(op, initialize_state(n, aspects), max_steps=5000, epsilon=eps)
        other = rng.random((n, aspects))
        other /= other.sum(axis=0)
        b = propagate(op, AspectState(matrix=other), max_steps=5000, epsilon=eps)
        assert a.converged and b.converged
        for k in range(aspects):
            assert np.abs(a.matrix[:, k] - b.matrix[:, k]).sum() <= 2 * eps * tail + 1e-12

    @pytest.mark.parametrize("carried", [math.inf, 1e-20])
    def test_zero_steps_returns_input_with_infinite_residual(self, carried):
        # a residual carried in from an earlier phase is never read
        op = build_transition([(0, 1)], np.array([[1.0]]), 2)
        start = replace(initialize_state(2, 1), step=7, residual=carried)
        out = propagate(op, start, max_steps=0)
        assert np.array_equal(out.matrix, start.matrix) and out.step == 7
        assert np.isinf(out.residual) and not out.converged

    def test_warm_start_with_a_tiny_residual_takes_a_step(self):
        # the incoming residual belongs to another operator's last step, so it is never read
        rng = np.random.default_rng(15)
        n, aspects, edges, impacts = random_instance(rng)
        op = build_transition(edges, impacts, n)
        start = AspectState(matrix=random_distribution(rng, n, aspects), step=3, residual=5e-324, converged=True)
        out = propagate(op, start, max_steps=1, epsilon=1e-8)
        assert out.step == 4 and not out.converged
        assert out.residual == step_residual(start.matrix, out.matrix) > 1e-8
        warm = propagate(op, start, max_steps=500, epsilon=1e-12)
        assert warm.converged
        again = propagate(op, replace(warm, residual=5e-324), max_steps=10, epsilon=1e-8)
        assert again.step == warm.step + 1 and again.converged

    def test_two_cycle_converges_to_uniform(self):
        # the swap matrix makes the second eigenvalue -nu, so convergence is
        # an oscillation decaying at 0.95^k; give it room
        op = build_transition([(0, 1), (1, 0)], np.array([[1.0, 1.0], [1.0, 1.0]]), 2)
        start = AspectState(matrix=np.array([[0.9, 0.1], [0.1, 0.9]]))
        out = propagate(op, start, max_steps=1000, epsilon=1e-13)
        assert np.allclose(out.matrix, 0.5, atol=1e-9)

    def test_residuals_nonincreasing_after_first_step(self):
        rng = np.random.default_rng(5)
        n, aspects, edges, impacts = random_instance(rng, max_n=30)
        op = build_transition(edges, impacts, n)
        state = initialize_state(n, aspects)
        residuals = []
        for _ in range(30):
            nxt = apply_projection(op, state)
            residuals.append(np.max(np.abs(nxt.matrix - state.matrix).sum(axis=0)))
            state = nxt
        diffs = np.diff(residuals)
        assert np.all(diffs <= 1e-12)

    def test_mass_conservation_large_sparse(self):
        rng = np.random.default_rng(6)
        n = 10_000
        m = 30_000
        rows = rng.integers(n, size=m)
        cols = rng.integers(n, size=m)
        keep = rows != cols
        edges = np.stack([rows[keep], cols[keep]], axis=1)
        impacts = rng.random((len(edges), 2))
        op = build_transition(edges, impacts, n)
        out = apply_projection(op, initialize_state(n, 2))
        assert np.all(np.abs(out.matrix.sum(axis=0) - 1.0) < 1e-9)


class TestAgainstGatheringStep:
    """The deficit step against the earlier step that gathered dangling
    columns: the two differ only by rounding, so whole runs must agree."""

    def run_both(self, monkeypatch, op, start, max_steps, epsilon):
        out = propagate(op, start, max_steps=max_steps, epsilon=epsilon)
        with monkeypatch.context() as patch:
            patch.setattr(propagation, "apply_projection", apply_projection_gathers)
            reference = propagate(op, start, max_steps=max_steps, epsilon=epsilon)
        assert (out.step, out.converged) == (reference.step, reference.converged)
        assert np.abs(out.matrix - reference.matrix).sum(axis=0).max() <= 1e-11
        return out

    @pytest.mark.parametrize("aspects", [1, 3, 5])
    def test_one_hot_operator(self, monkeypatch, aspects):
        rng = np.random.default_rng(90 + aspects)
        op = one_hot_operator(rng, aspects)
        start = AspectState(matrix=random_distribution(rng, op.num_nodes, aspects))
        assert not self.run_both(monkeypatch, op, start, max_steps=10, epsilon=1e-12).converged
        assert self.run_both(monkeypatch, op, start, max_steps=100, epsilon=1e-12).converged

    def test_random_instances(self, monkeypatch):
        rng = np.random.default_rng(13)
        converged = set()
        for _ in range(20):
            n, aspects, edges, impacts = random_instance(rng, max_aspects=5)
            op = build_transition(edges, impacts, n)
            start = AspectState(matrix=random_distribution(rng, n, aspects))
            converged.add(self.run_both(monkeypatch, op, start, max_steps=100, epsilon=1e-8).converged)
        assert converged == {True, False}


def pooled_instance(rng, aspects=4, empty=2):
    """One-hot impacts on a graph just large enough for the aspect pool, with
    dangling columns in every aspect; aspect `empty` gets no entry at all."""
    n = propagation.POOLED_NODES
    rows, cols = rng.integers(n, size=3 * n), rng.integers(n // 2, size=3 * n)
    keep = rows != cols
    edges = np.unique(np.stack([rows[keep], cols[keep]], axis=1), axis=0)
    impacts = np.zeros((len(edges), aspects))
    chosen = rng.choice([k for k in range(aspects) if k != empty], size=len(edges))
    impacts[np.arange(len(edges)), chosen] = rng.random(len(edges))
    return edges[rng.permutation(len(edges))], impacts, n


def aspect_threads(monkeypatch, call):
    """The thread that ran each aspect task of `call()`."""
    names, each = [], pool.each

    def recording(task, count, pooled):
        def named(k):
            names.append(threading.current_thread().name)
            return task(k)
        return each(named, count, pooled)

    with monkeypatch.context() as patch:
        patch.setattr(pool, "each", recording)
        call()
    return names


class TestAspectPool:
    """Operators of POOLED_NODES nodes or more run each aspect as a task on the
    worker pool; every result must match the calling-thread path byte for byte."""

    @pytest.fixture(scope="class")
    def instance(self):
        return pooled_instance(np.random.default_rng(70))

    @pytest.fixture(scope="class")
    def op(self, instance):
        return build_transition(*instance)

    def test_large_operators_run_on_the_pool(self, instance, op, monkeypatch):
        on_pool = pool._usable_cpus() > 1
        start = AspectState(matrix=random_distribution(np.random.default_rng(76), op.num_nodes, op.aspects))
        names = aspect_threads(monkeypatch, lambda: apply_projection(build_transition(*instance), start))
        assert len(names) == 2 * op.aspects
        assert all(name.startswith("aspectcite-pool") == on_pool for name in names), names
        caller = threading.current_thread().name

        def small():
            n = propagation.POOLED_NODES - 1
            op = build_transition([(0, 1), (2, 1)], [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]], n)
            return apply_projection(op, initialize_state(n, 4))

        assert aspect_threads(monkeypatch, small) == [caller] * 8
        one_aspect = [(0, 1), (2, 1)], [[1.0], [0.0]], propagation.POOLED_NODES
        assert aspect_threads(monkeypatch, lambda: build_transition(*one_aspect)) == [caller]

    def test_build_matches_the_calling_thread(self, instance, op, monkeypatch):
        monkeypatch.setattr(propagation, "POOLED_NODES", sys.maxsize)
        assert_same_operator(op, build_transition(*instance))
        assert len(op.matrices[2].rows) == 0 and all(len(mat.rows) for k, mat in enumerate(op.matrices) if k != 2)
        assert all(dangling_columns(op, k).any() for k in range(op.aspects))

    def test_step_bitwise_equal_to_per_aspect_loop(self, op):
        state = random_distribution(np.random.default_rng(71), op.num_nodes, op.aspects)
        for matrix in (state, np.asfortranarray(state)):
            current = AspectState(matrix=matrix)
            for _ in range(3):
                out = apply_projection(op, current)
                assert np.array_equal(out.matrix, apply_projection_per_aspect(op, current))
                assert out.residual == step_residual(current.matrix, out.matrix)
                assert out.matrix.T.flags.c_contiguous
                current = out

    @pytest.mark.parametrize("max_steps,epsilon,converged", [(20, 1e-12, False), (400, 1e-6, True)])
    def test_propagate_matches_the_calling_thread(self, op, monkeypatch, max_steps, epsilon, converged):
        start = AspectState(matrix=random_distribution(np.random.default_rng(72), op.num_nodes, op.aspects))
        out = propagate(op, start, max_steps=max_steps, epsilon=epsilon)
        with monkeypatch.context() as patch:
            patch.setattr(propagation, "POOLED_NODES", sys.maxsize)
            reference = propagate(op, start, max_steps=max_steps, epsilon=epsilon)
        assert out.converged is converged
        assert (out.step, out.residual, out.converged) == (reference.step, reference.residual, reference.converged)
        assert out.matrix.flags.c_contiguous and out.matrix.tobytes() == reference.matrix.tobytes()

    @pytest.mark.parametrize("damage", ["nan", "mis-summed"])
    def test_bad_state_raised_from_a_task(self, op, damage):
        matrix = random_distribution(np.random.default_rng(73), op.num_nodes, op.aspects)
        if damage == "nan":
            matrix[5, 3] = np.nan
        else:
            matrix[:, 1] *= 0.9
        with pytest.raises(ValueError, match="sum to 1"):
            apply_projection(op, AspectState(matrix=matrix))

    def test_concurrent_callers_share_the_pool(self, op):
        rng = np.random.default_rng(74)
        starts = [AspectState(matrix=random_distribution(rng, op.num_nodes, op.aspects)) for _ in range(6)]
        expected = [propagate(op, start, max_steps=4).matrix.tobytes() for start in starts]
        results = [None] * len(starts)

        def caller(i):
            results[i] = propagate(op, starts[i], max_steps=4).matrix.tobytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(starts))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == expected

    def test_forked_child_starts_a_pool_of_its_own(self, op):
        # the parent's pool has live workers; the child inherits none of them,
        # and once hung on the parent's pool for as long as it was let run
        start = AspectState(matrix=random_distribution(np.random.default_rng(75), op.num_nodes, op.aspects))
        expected = propagate(op, start, max_steps=3).matrix.tobytes()

        def child():
            assert propagate(op, start, max_steps=3).matrix.tobytes() == expected

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


class TestPhaseAgainstStackedReference:
    def test_train_sd_phase_byte_identical(self, monkeypatch):
        # ~2k nodes, skewed in-degree, never-cited nodes, edges in shuffled order
        rng = np.random.default_rng(12)
        n, m = 2000, 9000
        citers = rng.integers(n, size=m)
        cited = np.minimum(rng.zipf(1.6, size=m) - 1 + rng.integers(n // 10, size=m), n - 1)
        pairs = np.unique(np.stack([citers, cited], axis=1)[citers != cited], axis=0)
        graph = build_graph([(f"p{i}", f"p{j}") for i, j in pairs[rng.permutation(len(pairs))]])
        edges = graph.edge_array[rng.permutation(graph.num_edges)]
        text = rng.normal(size=(graph.num_nodes, 8))
        config = TrainConfig(aspects=4, struct_dim=5, seed=3, propagation_max_steps=20, propagation_epsilon=1e-14)
        params = ModelParams.initialize(Dims(aspects=4, text_dim=8, struct_dim=5), graph.num_nodes, substream(3, "init"))
        start = AspectState(matrix=random_distribution(rng, graph.num_nodes, 4))

        phases = [train_sd_phase(params, start, edges, config, text)]
        with monkeypatch.context() as patch:
            patch.setattr(training, "build_transition", lambda *args: build_stacked_projection(build_transition_coo(*args)))
            patch.setattr(propagation, "apply_projection", apply_stacked_projection)
            phases.append(train_sd_phase(params, start, edges, config, text))
        out, reference = phases
        assert out.step == reference.step == 20 and not out.converged
        assert (out.residual, out.converged) == (reference.residual, reference.converged)
        assert out.matrix.flags.c_contiguous and out.matrix.tobytes() == reference.matrix.tobytes()


class TestPropagateLayout:
    """propagate keeps the state aspect-major between steps; these pin what callers see."""

    @pytest.mark.parametrize("aspects", [1, 3, 5])
    def test_matches_c_ordered_reference_on_large_graph(self, aspects):
        rng = np.random.default_rng(60 + aspects)
        op = one_hot_operator(rng, aspects)
        start = AspectState(matrix=random_distribution(rng, op.num_nodes, aspects))
        # the residual is an L1 column distance, so it may move by at most
        # the two states' column gaps: 2e-12 absolute
        flags = set()
        for max_steps, epsilon in ((10, 1e-8), (400, 1e-11)):
            out = propagate(op, start, max_steps=max_steps, epsilon=epsilon)
            matrix, steps, residual, converged = propagate_c_ordered(op, start, max_steps, epsilon)
            assert (out.step, out.converged) == (steps, converged)
            assert abs(out.residual - residual) <= 2e-12
            assert np.abs(out.matrix - matrix).sum(axis=0).max() <= 1e-12
            flags.add(out.converged)
        assert flags == {True, False}

    def test_matches_c_ordered_reference_random_instances(self):
        rng = np.random.default_rng(8)
        converged = set()
        for _ in range(20):
            n, aspects, edges, impacts = random_instance(rng, max_aspects=5)
            op = build_transition(edges, impacts, n)
            start = AspectState(matrix=random_distribution(rng, n, aspects))
            max_steps = int(rng.integers(1, 300))
            out = propagate(op, start, max_steps=max_steps, epsilon=1e-10)
            matrix, steps, residual, flag = propagate_c_ordered(op, start, max_steps, 1e-10)
            assert (out.step, out.converged) == (steps, flag)
            assert abs(out.residual - residual) <= 2e-12
            assert np.abs(out.matrix - matrix).sum(axis=0).max() <= 1e-12
            converged.add(out.converged)
        assert converged == {True, False}

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("max_steps,expect_converged", [(0, False), (3, False), (2000, True)])
    def test_returns_c_contiguous_matrix_on_every_exit(self, order, max_steps, expect_converged):
        rng = np.random.default_rng(9)
        op = one_hot_operator(rng, 3, n=200, m=600)
        start = AspectState(matrix=np.asarray(random_distribution(rng, op.num_nodes, 3), order=order))
        out = propagate(op, start, max_steps=max_steps, epsilon=1e-12)
        assert out.converged is expect_converged
        assert out.matrix.flags.c_contiguous
        assert out.matrix.shape == start.matrix.shape

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_leaves_initial_matrix_unmodified(self, order):
        rng = np.random.default_rng(10)
        op = one_hot_operator(rng, 3, n=500, m=1500)
        matrix = np.asarray(random_distribution(rng, op.num_nodes, 3), order=order)
        snapshot = matrix.copy()
        for max_steps in (0, 1, 50):
            propagate(op, AspectState(matrix=matrix), max_steps=max_steps)
            assert np.array_equal(matrix, snapshot)
            assert matrix.flags.c_contiguous == (order == "C")


class TestValidate:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, bad):
        # NaN compares False both ways, so "x < 0 or x > 1" lets it through
        matrix = np.full((4, 2), 0.25)
        matrix[1, 1] = bad
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            AspectState(matrix=matrix).validate()


class TestInitializeState:
    def test_uniform(self):
        state = initialize_state(4, 2)
        assert np.allclose(state.matrix, 0.25)

    def test_single_node(self):
        assert initialize_state(1, 3).matrix.tolist() == [[1.0, 1.0, 1.0]]

    def test_exact_column_sums(self):
        state = initialize_state(7, 3)
        assert np.allclose(state.matrix.sum(axis=0), 1.0, atol=1e-12)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            initialize_state(0, 1)


def test_state_round_trip(tmp_path):
    state = propagate(
        build_transition([(0, 1), (1, 0)], np.array([[1.0], [2.0]]), 2),
        initialize_state(2, 1),
    )
    path = tmp_path / "state.json"
    save_state(state, path)
    loaded = load_state(path)
    assert np.array_equal(loaded.matrix, state.matrix)
    assert loaded.step == state.step and loaded.converged == state.converged


SPECIAL_VALUES = np.array([
    -0.0, 0.0, 5e-324, -5e-324, 1e-310, np.finfo(float).tiny,
    np.finfo(float).max, -np.finfo(float).max, 1.0 / 3.0, -2.5e-300,
])


def special_values(shape, seed=0):
    """A C-ordered float64 array of `shape` that cycles through SPECIAL_VALUES
    (signed zeros, subnormals, the extremes) between random doubles."""
    rng = np.random.default_rng(seed)
    size = int(np.prod(shape))
    values = np.empty(2 * len(SPECIAL_VALUES))
    values[0::2] = SPECIAL_VALUES
    values[1::2] = rng.normal(size=len(SPECIAL_VALUES))
    return np.resize(np.roll(values, seed), size).reshape(shape)


def v2_entry(array) -> dict:
    """A tensor as the earlier base64 format wrote it inline in the JSON."""
    array = np.asarray(array, dtype="<f8")
    return {"shape": list(array.shape), "data": base64.b64encode(array.tobytes()).decode("ascii")}


# name: (defect written into one tensor's header entry and sidecar bytes,
# returning its new bytes, pattern the loader's ValueError must match). The
# header is resealed afterwards, so each defect reaches the check it names.
TENSOR_CORRUPTIONS = {
    "eight_bytes_too_many": (lambda t, raw: raw + bytes(8), "holds .* bytes, shapes .* need"),
    "eight_bytes_too_few": (lambda t, raw: raw[:-8], "holds .* bytes, shapes .* need"),
    "negative_shape": (lambda t, raw: t.update(shape=[-d for d in t["shape"]]) or raw, "nonnegative ints"),
    "non_integer_shape": (lambda t, raw: t.update(shape=[float(d) for d in t["shape"]]) or raw, "nonnegative ints"),
    "zero_dimensional": (lambda t, raw: t.update(shape=[]) or bytes(8), "malformed"),
    # the data inline in the header, as the earlier list-of-floats format had it
    "list_data": (lambda t, raw: t.update(data=np.frombuffer(raw, "<f8").tolist()) or raw, "exactly the key 'shape'"),
}
# name: (defect written into one tensor's sidecar bytes, returning its new
# bytes or None to delete the sidecar, pattern); the header is left as it was.
SIDECAR_CORRUPTIONS = {
    "missing_sidecar": (lambda t, raw: None, "tensor sidecar {sidecar} not found; re-run train"),
    "flipped_byte": (lambda t, raw: raw[:3] + bytes([raw[3] ^ 0x40]) + raw[4:], "does not match .*; re-run train"),
}
FORMAT_CORRUPTIONS = {
    "missing_format": (lambda p: p.pop("format"), "format None, expected"),
    "unknown_format": (lambda p: p.update(format=p["format"] + "-future"), "-future', expected"),
}
ARTIFACT_CORRUPTIONS = sorted(TENSOR_CORRUPTIONS) + sorted(SIDECAR_CORRUPTIONS) + sorted(FORMAT_CORRUPTIONS)


def corrupt_artifact(path, how, entries=lambda payload: [payload["matrix"]], tensor=0):
    """Rewrite a saved checkpoint or state, header and sidecar, with one
    ARTIFACT_CORRUPTIONS defect and return the pattern its rejection must
    match. entries lists the header's tensor entries in sidecar order; a
    tensor-level defect goes into entries(payload)[tensor] and its bytes."""
    side = sidecar_path(path)
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    with open(side, "rb") as fh:
        raw = fh.read()
    if how in FORMAT_CORRUPTIONS:
        damage, message = FORMAT_CORRUPTIONS[how]
        damage(payload)
    else:
        chosen = entries(payload)
        ends = np.cumsum([0] + [8 * int(np.prod(e["shape"])) for e in chosen])
        start, end = ends[tensor], ends[tensor + 1]
        damage, message = {**TENSOR_CORRUPTIONS, **SIDECAR_CORRUPTIONS}[how]
        part = damage(chosen[tensor], raw[start:end])
        raw = None if part is None else raw[:start] + part + raw[end:]
        if how in TENSOR_CORRUPTIONS:  # record the new bytes, as a consistent writer would
            payload["sidecar"] = {"bytes": len(raw), "sha256": hashlib.sha256(raw).hexdigest()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    if raw is None:
        os.unlink(side)
    else:
        with open(side, "wb") as fh:
            fh.write(raw)
    return message.format(sidecar=re.escape(side))


def write_v1_state(state, path):
    """The earlier state format: no marker, the matrix as one flat list of floats."""
    payload = {
        "num_nodes": state.num_nodes,
        "aspects": state.aspects,
        "step": state.step,
        "residual": state.residual if np.isfinite(state.residual) else None,
        "converged": state.converged,
        "matrix": state.matrix.ravel().tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)


def write_v2_state(state, path):
    """The earlier single-file state format: the matrix inline as base64."""
    payload = {
        "format": "aspectcite-state-v2",
        "num_nodes": state.num_nodes,
        "aspects": state.aspects,
        "step": state.step,
        "residual": state.residual if np.isfinite(state.residual) else None,
        "converged": state.converged,
        "matrix": v2_entry(state.matrix),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)


# sha256 of the header and sidecar that joined_copy_artifact's writer wrote
# for TestStateFile.test_state_bytes_are_pinned
STATE_SHA256 = {
    "state.bin": "62a6ab9d028312595af897f93dc3de2e9900bd35d10f2441594ec0e24f2c4aed",
    "state.json": "1879347a1a751196e4c4823e6e8dbdb8063c6d4849867508845c0ccd04f77ce3",
}


def joined_copy_artifact(fmt, payload, tensors):
    """The (header, sidecar) bytes of the earlier writer, which joined every
    tensor's bytes into one copy before writing: the bytes write_artifact keeps."""
    raw = b"".join(np.asarray(t, dtype="<f8").tobytes(order="C") for t in tensors)
    header = {"format": fmt, **payload, "sidecar": {"bytes": len(raw), "sha256": hashlib.sha256(raw).hexdigest()}}
    return (json.dumps(header, sort_keys=True, indent=1) + "\n").encode(), raw


class TestStateFile:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (9, 1), (6, 4)])
    def test_round_trip_is_bitwise(self, tmp_path, shape):
        matrix = special_values(shape)
        save_state(AspectState(matrix=matrix, step=3, residual=2.5e-9, converged=False), tmp_path / "state.json")
        assert (tmp_path / "state.bin").read_bytes() == matrix.astype("<f8").tobytes()
        loaded = load_state(tmp_path / "state.json")
        assert loaded.matrix.shape == shape and loaded.matrix.tobytes() == matrix.tobytes()
        assert (loaded.step, loaded.residual, loaded.converged) == (3, 2.5e-9, False)

    def test_zero_size_and_scalar_tensors_round_trip(self, tmp_path):
        arrays = [np.zeros((0, 3)), np.array(-0.0), special_values((2, 3)), np.zeros(0)]
        path = tmp_path / "tensors.json"
        write_artifact(path, "test-v1", {"tensors": [tensor_entry(a) for a in arrays]}, arrays)
        payload = read_payload(path, "test-v1")
        for got, want in zip(read_tensors(path, payload, payload["tensors"]), arrays, strict=True):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_streamed_bytes_equal_the_joined_copy_writer(self, tmp_path):
        # strided, Fortran-ordered, float32, int, 0-d and empty tensors all take the wire conversion
        arrays = [
            special_values((3, 4)).T, np.asfortranarray(special_values((2, 5), seed=1)), special_values((6, 3))[::2],
            special_values((4,), seed=2).astype(np.float32), np.arange(6, dtype=np.int32).reshape(2, 3),
            np.array(-0.0), np.zeros((0, 3)),
        ]
        payload = {"tensors": [tensor_entry(a) for a in arrays]}
        write_artifact(tmp_path / "t.json", "test-v1", payload, arrays)
        header, raw = joined_copy_artifact("test-v1", payload, arrays)
        assert (tmp_path / "t.json").read_bytes() == header and (tmp_path / "t.bin").read_bytes() == raw

    def test_state_bytes_are_pinned(self, tmp_path):
        matrix = (np.arange(15.0).reshape(5, 3) - 7.0) / 11.0
        matrix[0, 0] = -0.0
        save_state(AspectState(matrix=matrix, step=12, residual=1.5e-7, converged=False), tmp_path / "state.json")
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        assert digests == STATE_SHA256

    def test_read_tensors_are_separate_writable_views(self, tmp_path):
        arrays = [special_values((3, 4)), special_values((5,), seed=1), np.array(2.5), special_values((2, 2), seed=2)]
        path = tmp_path / "t.json"
        write_artifact(path, "test-v1", {"tensors": [tensor_entry(a) for a in arrays]}, arrays)
        got = read_tensors(path, read_payload(path, "test-v1"), [tensor_entry(a) for a in arrays])
        for tensor in got:
            assert tensor.flags.writeable and tensor.flags.c_contiguous
            assert tensor.dtype == np.float64 and tensor.dtype.isnative
        for k, tensor in enumerate(got):
            tensor[...] = 7.0
            for other, want in zip(got[k + 1:], arrays[k + 1:]):
                assert other.tobytes() == want.tobytes()

    def test_save_load_save_gives_same_bytes(self, tmp_path):
        save_state(AspectState(matrix=special_values((5, 3), seed=1), step=7), tmp_path / "a.json")
        save_state(load_state(tmp_path / "a.json"), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_header_holds_no_file_name(self, tmp_path):
        # the header's bytes must not depend on where it is written, and
        # never name a temp file
        state = AspectState(matrix=special_values((5, 3), seed=2), step=4)
        (tmp_path / "elsewhere").mkdir()
        save_state(state, tmp_path / "state.json")
        save_state(state, tmp_path / "elsewhere" / "other.json")
        header = (tmp_path / "state.json").read_bytes()
        assert header == (tmp_path / "elsewhere" / "other.json").read_bytes()
        assert b"state" not in header.replace(b"aspectcite-state-v3", b"") and b".bin" not in header
        assert sorted(p.name for p in tmp_path.iterdir()) == ["elsewhere", "state.bin", "state.json"]

    def test_loaded_matrix_is_writable_native_and_c_contiguous(self, tmp_path):
        save_state(initialize_state(4, 3), tmp_path / "state.json")
        matrix = load_state(tmp_path / "state.json").matrix
        assert matrix.flags.writeable and matrix.flags.c_contiguous
        assert matrix.dtype == np.float64 and matrix.dtype.isnative
        matrix[0, 0] = 1.0

    @pytest.mark.parametrize("how", ARTIFACT_CORRUPTIONS)
    def test_corrupt_file_rejected(self, tmp_path, how):
        path = tmp_path / "state.json"
        save_state(initialize_state(4, 3), path)
        message = corrupt_artifact(path, how)
        with pytest.raises(ValueError, match=message):
            load_state(path)

    def test_header_with_another_runs_sidecar_rejected(self, tmp_path):
        # a crash between the sidecar's rename and the header's leaves this pair
        save_state(initialize_state(4, 3), tmp_path / "state.json")
        save_state(AspectState(matrix=special_values((4, 3), seed=5)), tmp_path / "other.json")
        os.replace(tmp_path / "other.bin", tmp_path / "state.bin")
        with pytest.raises(ValueError, match="does not match .*; re-run train"):
            load_state(tmp_path / "state.json")

    def test_v1_list_file_rejected_naming_the_format(self, tmp_path):
        path = tmp_path / "state.json"
        write_v1_state(initialize_state(4, 3), path)
        with pytest.raises(ValueError, match="aspectcite-state-v3"):
            load_state(path)

    def test_v2_base64_file_rejected_naming_the_format(self, tmp_path):
        path = tmp_path / "state.json"
        write_v2_state(initialize_state(4, 3), path)
        with pytest.raises(ValueError, match="format 'aspectcite-state-v2', expected 'aspectcite-state-v3'; re-run train"):
            load_state(path)

    def test_shape_must_match_the_envelope(self, tmp_path):
        path = tmp_path / "state.json"
        save_state(initialize_state(4, 3), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["matrix"]["shape"] = [3, 4]  # the same 12 entries, transposed
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match="does not match num_nodes and aspects"):
            load_state(path)

    def test_header_cannot_take_the_sidecar_suffix(self, tmp_path):
        with pytest.raises(ValueError, match="cannot end in .bin"):
            save_state(initialize_state(4, 3), tmp_path / "state.bin")
        assert list(tmp_path.iterdir()) == []
