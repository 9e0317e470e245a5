"""Alternating optimization of the two coupled systems.

The scoring system fits the learnable tensors to margin losses over sampled
triplets (source, cited, non-cited) while the influence states stay fixed;
the propagation system then recomputes per-edge masked impacts with the
updated tensors and re-propagates influence to its fixed point. The two
phases alternate a configurable number of times; the non-dynamic variant
skips propagation and keeps the uniform initial state throughout. Both
phases read the split's train pairs as one (k, 2) int64 array.

Batch updates sum per-triplet gradients (per-sample SGD, vectorized), so the
learning rate is per sampled triplet and independent of batch size. Reported
loss traces are per-triplet means.

All gradients are derived by hand (the chain is shallow) and verified
against central finite differences in the test suite with the aspect
selection frozen, matching the straight-through treatment: forward passes
use the hard Gumbel-max sample, backward passes hold it constant. Each
batch runs the forward once: its positive-pair impacts draw the sample and
its cached intermediates feed the backward.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .corpus import DatasetSplit
from .graph import CitationGraph
from .model import (
    Dims,
    ModelParams,
    distinct_nodes,
    impacts_from_representations,
    masked_impacts,
    representations_for,
    select_aspects,
)
from .propagation import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_STEPS,
    AspectState,
    build_transition,
    initialize_state,
    propagate,
)
from .seeding import substream

__all__ = [
    "TrainConfig",
    "Triplet",
    "TrainingAbort",
    "FitResult",
    "sample_triplets",
    "batch_loss_and_grads",
    "batch_loss",
    "sample_batch_alphas",
    "train_sy_phase",
    "train_sd_phase",
    "fit",
]


class TrainingAbort(RuntimeError):
    """Raised when the loss turns non-finite; carries diagnostics."""


@dataclass(frozen=True)
class TrainConfig:
    """Everything the alternating optimization needs, with desk-scale defaults."""

    aspects: int = 5
    struct_dim: int = 100
    margin_edge: float = 1.0
    margin_aspect: float = 1.0
    learning_rate: float = 0.05
    epochs_per_phase: int = 20
    alternations: int = 3
    batch_size: int = 512
    aspect_loss_weight: float = 1.0
    dynamic_propagation: bool = True
    propagation_epsilon: float = DEFAULT_EPSILON
    propagation_max_steps: int = DEFAULT_MAX_STEPS
    seed: int = 0

    def validate(self) -> None:
        if self.aspects < 1 or self.struct_dim < 1:
            raise ValueError("aspects and struct_dim must be positive")
        if self.margin_edge <= 0 or self.margin_aspect <= 0:
            raise ValueError("margins must be positive")
        if self.learning_rate < 0:
            raise ValueError("learning rate must be nonnegative")
        if self.epochs_per_phase < 1 or self.alternations < 1 or self.batch_size < 1:
            raise ValueError("epochs_per_phase, alternations, and batch_size must be >= 1")
        if self.aspect_loss_weight < 0:
            raise ValueError("aspect_loss_weight must be nonnegative")
        if self.propagation_epsilon <= 0 or self.propagation_max_steps < 0:
            raise ValueError("propagation_epsilon must be positive and propagation_max_steps nonnegative")

    def to_dict(self) -> dict:
        return asdict(self)


class Triplet(NamedTuple):
    source: int
    positive: int
    negative: int


class TripletBatch(list):
    """List of triplets plus the count of skipped exhausted sources."""

    skipped: int = 0


def sample_triplets(edges: np.ndarray, batch: int, rng: np.random.Generator, graph: CitationGraph):
    """Draw `batch` (source, positive, negative) triplets.

    Positives come uniformly (with replacement) from the (k, 2) train pairs
    `edges`; negatives are rejection-sampled uniformly over the source's
    non-neighbors. Sources with no non-neighbor are skipped (counted in the
    returned warning total, exposed via the .skipped attribute of the result).
    """
    if len(edges) == 0:
        raise ValueError("train edge set is empty")
    triplets: list[Triplet] = []
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
        triplets.append(Triplet(i, j, negative))
    result = TripletBatch(triplets)
    result.skipped = skipped
    return result


def _forward(params: ModelParams, state_matrix, text_vectors, triplets):
    """Scoring chain for the (source, positive) and (source, negative) pairs
    of each triplet, caching every intermediate the backward needs."""
    trip = np.asarray(triplets, dtype=np.int64).reshape(-1, 3)
    bi, bj, bk = trip[:, 0], trip[:, 1], trip[:, 2]
    nodes, (rows_i, rows_j, rows_k) = distinct_nodes(params.num_nodes, bi, bj, bk)
    reps, norms = representations_for(nodes, text_vectors, params)
    state = np.asarray(state_matrix)
    d_j = state[bj]
    d_k = state[bk]
    c_j, e_j, imp_j = impacts_from_representations(reps, rows_i, rows_j, d_j, params)
    c_k, e_k, imp_k = impacts_from_representations(reps, rows_i, rows_k, d_k, params)
    return {
        "bi": bi, "bj": bj, "bk": bk,
        "r_i": reps[rows_i], "r_j": reps[rows_j], "r_k": reps[rows_k],
        "norm_i": norms[rows_i], "norm_j": norms[rows_j], "norm_k": norms[rows_k],
        "d_j": d_j, "d_k": d_k,
        "c_j": c_j, "c_k": c_k,
        "e_j": e_j, "e_k": e_k,
        "imp_j": imp_j, "imp_k": imp_k,
        "f_j": c_j.sum(axis=1) + e_j.sum(axis=1),
        "f_k": c_k.sum(axis=1) + e_k.sum(axis=1),
    }


def sample_batch_alphas(impacts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Train-mode aspect selection: one Gumbel-max aspect index per impact row."""
    return select_aspects(impacts, rng)


def _hinge(fw: dict, chosen: np.ndarray, config: TrainConfig):
    """Summed margin loss of a forward and each triplet's hinge arguments.

    Per triplet: max(0, z_e) + weight * max(0, z_t), where z_e is the edge
    margin minus the link-score gap f_j - f_k and z_t the aspect margin minus
    the impact gap on the triplet's `chosen` aspect (drawn from the positive pair).
    """
    z_e = config.margin_edge - (fw["f_j"] - fw["f_k"])
    gap = (fw["imp_j"] - fw["imp_k"])[np.arange(len(chosen)), chosen]
    z_t = config.margin_aspect - gap
    loss = float((np.maximum(z_e, 0.0) + config.aspect_loss_weight * np.maximum(z_t, 0.0)).sum())
    return loss, z_e, z_t


def batch_loss(params, state_matrix, text_vectors, triplets, chosen, config: TrainConfig) -> float:
    """Summed triplet loss with the aspect selection held fixed (forward only)."""
    return _hinge(_forward(params, state_matrix, text_vectors, triplets), chosen, config)[0]


def batch_loss_and_grads(params, fw: dict, chosen, config: TrainConfig):
    """Summed triplet loss of the forward `fw` and its hand-derived gradients.

    Summing (rather than averaging) over the batch makes one update
    equivalent to per-triplet SGD at the configured learning rate; batching
    is purely a vectorization detail. The aspect selection `chosen` (one
    index per triplet, from the positive pair) is a constant of the backward pass.
    """
    loss, z_e, z_t = _hinge(fw, chosen, config)
    alphas = np.eye(fw["imp_j"].shape[1])[chosen]  # the one-hot of `chosen`, for the gradient matmuls

    active_e = (z_e > 0).astype(np.float64)
    active_t = (z_t > 0).astype(np.float64) * config.aspect_loss_weight

    g_f_j = -active_e
    g_f_k = active_e
    g_imp_j = -active_t[:, None] * alphas
    g_imp_k = active_t[:, None] * alphas

    grad_effect_w = fw["c_j"].T @ g_imp_j + fw["c_k"].T @ g_imp_k
    grad_similarity_w = fw["e_j"].T @ g_imp_j + fw["e_k"].T @ g_imp_k

    g_c_j = g_imp_j @ params.effect_weights.T + g_f_j[:, None]
    g_c_k = g_imp_k @ params.effect_weights.T + g_f_k[:, None]
    g_e_j = g_imp_j @ params.similarity_weights.T + g_f_j[:, None]
    g_e_k = g_imp_k @ params.similarity_weights.T + g_f_k[:, None]

    grad_state_to_effect = g_c_j.T @ fw["d_j"] + g_c_k.T @ fw["d_k"]

    g_r_i = g_e_j * fw["r_j"] + g_e_k * fw["r_k"]
    g_r_j = g_e_j * fw["r_i"]
    g_r_k = g_e_k * fw["r_i"]

    text_dim = params.dims.text_dim

    def through_normalization(g_r, r, norms):
        # Only the structural columns reach a tensor; `inner` still spans all.
        inner = (g_r * r).sum(axis=1, keepdims=True)
        g_r, r = g_r[:, text_dim:], r[:, text_dim:]
        return np.where(norms == 0.0, 0.0, (g_r - inner * r) / np.where(norms == 0.0, 1.0, norms))

    grad_emb = np.zeros_like(params.node_embeddings)
    np.add.at(grad_emb, fw["bi"], through_normalization(g_r_i, fw["r_i"], fw["norm_i"]))
    np.add.at(grad_emb, fw["bj"], through_normalization(g_r_j, fw["r_j"], fw["norm_j"]))
    np.add.at(grad_emb, fw["bk"], through_normalization(g_r_k, fw["r_k"], fw["norm_k"]))

    grads = {
        "state_to_effect": grad_state_to_effect,
        "effect_weights": grad_effect_w,
        "similarity_weights": grad_similarity_w,
        "node_embeddings": grad_emb,
    }
    return loss, grads


def _apply_sgd(params: ModelParams, grads: dict, learning_rate: float) -> None:
    for name, grad in grads.items():
        tensor = getattr(params, name)
        tensor -= learning_rate * grad


def train_sy_phase(
    params: ModelParams,
    state: AspectState,
    edges: np.ndarray,
    config: TrainConfig,
    graph: CitationGraph,
    text_vectors: np.ndarray,
    rng_triplets: np.random.Generator,
    rng_gumbel: np.random.Generator,
):
    """One scoring-system phase: SGD over triplets sampled from the (k, 2)
    train pairs `edges`, state held fixed.

    Returns (params, trace) where trace holds the per-epoch mean training
    loss, the loss on a fixed evaluation batch, and the skipped-source count.
    """
    config.validate()
    if len(edges) == 0:
        raise ValueError("no train edges available for this phase")
    state_matrix = state.matrix

    eval_rng = substream(config.seed, "eval-batch")
    eval_batch = sample_triplets(edges, min(config.batch_size, 4 * len(edges)), eval_rng, graph)
    eval_chosen = select_aspects(_forward(params, state_matrix, text_vectors, eval_batch)["imp_j"])

    batches_per_epoch = max(1, int(np.ceil(len(edges) / config.batch_size)))
    trace = {"train_loss": [], "eval_loss": [], "skipped_sources": 0}
    for _ in range(config.epochs_per_phase):
        epoch_losses = []
        for _ in range(batches_per_epoch):
            triplets = sample_triplets(edges, config.batch_size, rng_triplets, graph)
            trace["skipped_sources"] += triplets.skipped
            if not triplets:
                continue
            fw = _forward(params, state_matrix, text_vectors, triplets)
            chosen = sample_batch_alphas(fw["imp_j"], rng_gumbel)
            loss, grads = batch_loss_and_grads(params, fw, chosen, config)
            if not np.isfinite(loss):
                norms = {name: float(np.linalg.norm(getattr(params, name))) for name in ModelParams.TENSOR_FIELDS}
                raise TrainingAbort(f"non-finite loss {loss}; parameter norms {norms}; first triplet {triplets[0]}")
            if config.learning_rate > 0.0:
                _apply_sgd(params, grads, config.learning_rate)
            epoch_losses.append(loss / len(triplets))
        trace["train_loss"].append(float(np.mean(epoch_losses)) if epoch_losses else 0.0)
        trace["eval_loss"].append(
            batch_loss(params, state_matrix, text_vectors, eval_batch, eval_chosen, config) / max(1, len(eval_batch))
        )
    return params, trace


def train_sd_phase(
    params: ModelParams,
    state: AspectState,
    train_edges,
    config: TrainConfig,
    text_vectors: np.ndarray,
) -> AspectState:
    """One propagation-system phase: rebuild edge impacts and re-propagate.

    Aspect selection is deterministic (infer mode) so the phase is a pure
    function of (params, state, edges).
    """
    params.validate()
    edges = np.asarray(train_edges, dtype=np.int64).reshape(-1, 2)
    if len(edges) == 0:
        raise ValueError("no train edges available for propagation")
    from .model import impacts_for_pairs  # looked up per call, so a wrapper bound on the model module sees it

    _, impact_rows = impacts_for_pairs(edges, state.matrix, params, text_vectors, scores=False)
    masked = masked_impacts(impact_rows, select_aspects(impact_rows))
    op = build_transition(edges, masked, params.num_nodes)
    return propagate(op, state, max_steps=config.propagation_max_steps, epsilon=config.propagation_epsilon)


@dataclass
class FitResult:
    params: ModelParams
    state: AspectState
    report: dict


def fit(graph: CitationGraph, split: DatasetSplit, config: TrainConfig, text_vectors: np.ndarray) -> FitResult:
    """Run the full alternating schedule and assemble the training report.

    Dynamic variant: each alternation is a scoring phase followed by a
    propagation phase, both over `split.train_edges`. Non-dynamic: the same
    number of scoring phases against the uniform initial state, no
    propagation. An empty train part raises ValueError from the first
    scoring phase. The report keeps its phase traces in a one-element
    `stages` list.
    """
    config.validate()
    text_vectors = np.asarray(text_vectors, dtype=np.float64)
    if text_vectors.shape[0] != graph.num_nodes:
        raise ValueError(f"text matrix has {text_vectors.shape[0]} rows for {graph.num_nodes} nodes")

    dims = Dims(aspects=config.aspects, text_dim=text_vectors.shape[1], struct_dim=config.struct_dim)
    lineage = f"root-seed={config.seed}; streams=init,triplets,gumbel,eval-batch"
    params = ModelParams.initialize(dims, graph.num_nodes, substream(config.seed, "init"), seed_lineage=lineage)
    state = initialize_state(graph.num_nodes, config.aspects)

    rng_triplets = substream(config.seed, "triplets")
    rng_gumbel = substream(config.seed, "gumbel")

    train_edges = split.train_edges
    stage_report = {"num_train_edges": len(train_edges), "sy_phases": [], "sd_phases": []}
    started = time.perf_counter()
    for _ in range(config.alternations):
        params, trace = train_sy_phase(
            params, state, train_edges, config, graph, text_vectors, rng_triplets, rng_gumbel
        )
        stage_report["sy_phases"].append(trace)
        if config.dynamic_propagation:
            steps_before = state.step
            state = train_sd_phase(params, state, train_edges, config, text_vectors)
            stage_report["sd_phases"].append({
                "steps": state.step,
                "phase_steps": state.step - steps_before,
                "residual": state.residual,
                "converged": state.converged,
            })
    report = {
        "config": config.to_dict(),
        "variant": "dp" if config.dynamic_propagation else "ndp",
        "stages": [stage_report],
        "timing": {"fit_seconds": time.perf_counter() - started},
    }
    return FitResult(params=params, state=state, report=report)
