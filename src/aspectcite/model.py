"""Learnable parameters and the per-pair scoring chain.

For a candidate citation (i cites j) the chain is:
  r_x   fused representation: L2-normalized concat of text and structural embedding
  c_ij  citation effect of the cited node: state_to_effect @ d_j
  e_ij  similarity: elementwise product r_i * r_j
  D_ij  per-aspect impact: effect_weights^T c + similarity_weights^T e + bias
  alpha one-hot aspect choice (Gumbel-max sample in train mode, argmax in infer)
  Y_ij  masked nonnegative impact: max(alpha * D_ij, 0)
  F_ij  scalar link score: sum(c_ij) + sum(e_ij)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Dims",
    "ModelParams",
    "EdgeScore",
    "softmax",
    "node_representation",
    "citation_effect",
    "edge_similarity",
    "aspect_impact",
    "sample_aspect",
    "masked_impact",
    "link_score",
    "score_pair",
    "representations_for",
    "impacts_for_pairs",
    "scores_for_pairs",
    "save_checkpoint",
    "load_checkpoint",
]


@dataclass(frozen=True)
class Dims:
    """Model dimensions: aspect count and the two embedding widths."""

    aspects: int
    text_dim: int
    struct_dim: int

    def __post_init__(self):
        if min(self.aspects, self.text_dim, self.struct_dim) <= 0:
            raise ValueError(f"all dimensions must be positive, got {self}")

    @property
    def fused_dim(self) -> int:
        return self.text_dim + self.struct_dim


@dataclass
class ModelParams:
    """All learnable tensors.

    state_to_effect    (I, I)  maps a node's aspect state to its citation effect
    effect_weights     (I, I)  citation-effect contribution to aspect impact
    similarity_weights (L, I)  similarity contribution to aspect impact
    bias               (I,)    aspect-impact bias
    node_embeddings    (N, L_n) learned structural embedding table
    """

    dims: Dims
    state_to_effect: np.ndarray
    effect_weights: np.ndarray
    similarity_weights: np.ndarray
    bias: np.ndarray
    node_embeddings: np.ndarray
    seed_lineage: str = ""

    TENSOR_FIELDS = ("state_to_effect", "effect_weights", "similarity_weights", "bias", "node_embeddings")

    @classmethod
    def initialize(cls, dims: Dims, num_nodes: int, rng: np.random.Generator, seed_lineage: str = "") -> "ModelParams":
        """Uniform(-s, s) with s = 1/sqrt(fan_in) for the maps, zero bias,
        uniform(-0.5, 0.5)/L_n structural embeddings."""
        i, l = dims.aspects, dims.fused_dim
        s_i = 1.0 / np.sqrt(i)
        s_l = 1.0 / np.sqrt(l)
        return cls(
            dims=dims,
            state_to_effect=rng.uniform(-s_i, s_i, size=(i, i)),
            effect_weights=rng.uniform(-s_i, s_i, size=(i, i)),
            similarity_weights=rng.uniform(-s_l, s_l, size=(l, i)),
            bias=np.zeros(i),
            node_embeddings=rng.uniform(-0.5, 0.5, size=(num_nodes, dims.struct_dim)) / dims.struct_dim,
            seed_lineage=seed_lineage,
        )

    @property
    def num_nodes(self) -> int:
        return self.node_embeddings.shape[0]

    def validate(self) -> None:
        i, l = self.dims.aspects, self.dims.fused_dim
        shapes = {
            "state_to_effect": (i, i),
            "effect_weights": (i, i),
            "similarity_weights": (l, i),
            "bias": (i,),
            "node_embeddings": (self.num_nodes, self.dims.struct_dim),
        }
        for name, expected in shapes.items():
            arr = getattr(self, name)
            if arr.shape != expected:
                raise ValueError(f"{name} has shape {arr.shape}, expected {expected}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")

    def copy(self) -> "ModelParams":
        return ModelParams(
            dims=self.dims,
            state_to_effect=self.state_to_effect.copy(),
            effect_weights=self.effect_weights.copy(),
            similarity_weights=self.similarity_weights.copy(),
            bias=self.bias.copy(),
            node_embeddings=self.node_embeddings.copy(),
            seed_lineage=self.seed_lineage,
        )


@dataclass(frozen=True)
class EdgeScore:
    """Every intermediate of the scoring chain for one candidate pair."""

    c: np.ndarray
    e: np.ndarray
    d_pair: np.ndarray
    alpha: np.ndarray
    y_pair: np.ndarray
    f: float
    zero_representation: bool = False

    def validate(self) -> None:
        ones = np.flatnonzero(self.alpha == 1.0)
        if len(ones) != 1 or not np.all(np.isin(self.alpha, (0.0, 1.0))):
            raise ValueError("alpha must be one-hot")
        if np.any(self.y_pair < 0):
            raise ValueError("masked impact must be nonnegative")
        if np.count_nonzero(self.y_pair) > 1:
            raise ValueError("masked impact may have at most one nonzero entry")


def softmax(x: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=-1, keepdims=True)


def node_representation(i: int, text_vector: np.ndarray, params: ModelParams):
    """Fused node representation: L2-normalize(concat(text, structural)).

    An all-zero pre-normalization vector stays zero and is flagged instead of
    being divided by zero. Returns (r, zero_flag).
    """
    text_vector = np.asarray(text_vector, dtype=np.float64)
    if text_vector.shape != (params.dims.text_dim,):
        raise ValueError(f"text vector has shape {text_vector.shape}, expected ({params.dims.text_dim},)")
    fused = np.concatenate([text_vector, params.node_embeddings[i]])
    norm = np.linalg.norm(fused)
    if norm == 0.0:
        return fused, True
    return fused / norm, False


def citation_effect(j: int, state_matrix: np.ndarray, params: ModelParams) -> np.ndarray:
    """Citation effect of cited node j: state_to_effect @ d_j."""
    d_j = np.asarray(state_matrix)[j]
    if d_j.shape != (params.dims.aspects,):
        raise ValueError(f"aspect state row has shape {d_j.shape}, expected ({params.dims.aspects},)")
    return params.state_to_effect @ d_j


def edge_similarity(r_i: np.ndarray, r_j: np.ndarray) -> np.ndarray:
    """Elementwise (Hadamard) product of two fused representations."""
    r_i = np.asarray(r_i)
    r_j = np.asarray(r_j)
    if r_i.shape != r_j.shape:
        raise ValueError(f"representation shapes differ: {r_i.shape} vs {r_j.shape}")
    return r_i * r_j


def aspect_impact(c: np.ndarray, e: np.ndarray, params: ModelParams) -> np.ndarray:
    """Per-aspect impact vector: effect_weights^T c + similarity_weights^T e + bias."""
    c = np.asarray(c)
    e = np.asarray(e)
    if c.shape != (params.dims.aspects,):
        raise ValueError(f"citation effect has shape {c.shape}, expected ({params.dims.aspects},)")
    if e.shape != (params.dims.fused_dim,):
        raise ValueError(f"similarity has shape {e.shape}, expected ({params.dims.fused_dim},)")
    return params.effect_weights.T @ c + params.similarity_weights.T @ e + params.bias


def sample_aspect(d_pair: np.ndarray, mode: str, temperature: float = 1.0, rng: np.random.Generator | None = None):
    """Select one aspect from the impact vector.

    infer: deterministic argmax of softmax(d_pair), ties to the lowest index.
    train: Gumbel-max draw -- one_hot(argmax(g + log pi)) with g ~ Gumbel(0,1);
           also returns the tempered-softmax relaxation softmax((g + log pi)/T)
           used as the straight-through gradient surrogate.

    Returns (one_hot, relaxed); in infer mode relaxed is softmax(d_pair).
    """
    d_pair = np.asarray(d_pair, dtype=np.float64)
    if not np.all(np.isfinite(d_pair)):
        raise ValueError("aspect impact vector contains non-finite entries")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    pi = softmax(d_pair)
    if mode == "infer":
        hard = np.zeros_like(pi)
        hard[int(np.argmax(pi))] = 1.0
        return hard, pi
    if mode == "train":
        if rng is None:
            raise ValueError("train-mode sampling needs a random generator")
        u = rng.random(d_pair.shape)
        gumbel = -np.log(-np.log(u))
        perturbed = gumbel + np.log(pi)
        hard = np.zeros_like(pi)
        hard[int(np.argmax(perturbed))] = 1.0
        relaxed = softmax(perturbed / temperature)
        return hard, relaxed
    raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")


def masked_impact(alpha: np.ndarray, d_pair: np.ndarray) -> np.ndarray:
    """Nonnegative impact restricted to the selected aspect: max(alpha * d, 0)."""
    alpha = np.asarray(alpha)
    if len(np.flatnonzero(alpha == 1.0)) != 1 or not np.all(np.isin(alpha, (0.0, 1.0))):
        raise ValueError("alpha must be one-hot")
    return np.maximum(alpha * np.asarray(d_pair), 0.0)


def link_score(c: np.ndarray, e: np.ndarray) -> float:
    """Total-impact link score: sum of all elements of c and of e."""
    return float(np.sum(c) + np.sum(e))


def score_pair(
    i: int,
    j: int,
    state_matrix: np.ndarray,
    params: ModelParams,
    text_vectors: np.ndarray,
    mode: str = "infer",
    temperature: float = 1.0,
    rng: np.random.Generator | None = None,
) -> EdgeScore:
    """Full scoring bundle for the candidate citation i -> j."""
    if i == j:
        raise ValueError(f"cannot score a self-pair ({i}, {j})")
    r_i, zero_i = node_representation(i, text_vectors[i], params)
    r_j, zero_j = node_representation(j, text_vectors[j], params)
    c = citation_effect(j, state_matrix, params)
    e = edge_similarity(r_i, r_j)
    d_pair = aspect_impact(c, e, params)
    alpha, _ = sample_aspect(d_pair, mode=mode, temperature=temperature, rng=rng)
    y_pair = masked_impact(alpha, d_pair)
    return EdgeScore(
        c=c, e=e, d_pair=d_pair, alpha=alpha, y_pair=y_pair,
        f=link_score(c, e), zero_representation=zero_i or zero_j,
    )


def representations_for(nodes: np.ndarray, text_vectors: np.ndarray, params: ModelParams) -> np.ndarray:
    """Vectorized fused representations for a node index array (rows align)."""
    fused = np.concatenate([text_vectors[nodes], params.node_embeddings[nodes]], axis=1)
    norms = np.linalg.norm(fused, axis=1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    return fused / safe


def impacts_for_pairs(pairs: np.ndarray, state_matrix: np.ndarray, params: ModelParams, text_vectors: np.ndarray):
    """Vectorized (c, e, D) for an array of (i, j) pairs; rows align with input.

    Each distinct node's representation is computed once and gathered per
    pair. c stays a per-pair product: a BLAS matmul's last bit can depend on
    its row count, so computing it per node could change the result.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    src, dst = pairs[:, 0], pairs[:, 1]
    present = np.zeros(params.num_nodes, dtype=bool)
    present[src] = True
    present[dst] = True
    slot = np.cumsum(present) - 1  # slot[x] is node x's row in reps when present[x]
    reps = representations_for(np.flatnonzero(present), text_vectors, params)
    e = reps[slot[src]]
    e *= reps[slot[dst]]  # e = r_src * r_dst without keeping both gathers alive
    c = np.asarray(state_matrix)[dst] @ params.state_to_effect.T
    d = c @ params.effect_weights + e @ params.similarity_weights + params.bias
    return c, e, d


def scores_for_pairs(pairs, state_matrix, params, text_vectors, scorer: str = "total_impact") -> np.ndarray:
    """Vectorized link scores for (i, j) pairs.

    scorer "total_impact" is the F score; "masked_impact" is the alternative
    sum of the deterministic-aspect masked impact vector.
    """
    c, e, d = impacts_for_pairs(pairs, state_matrix, params, text_vectors)
    if scorer == "total_impact":
        return c.sum(axis=1) + e.sum(axis=1)
    if scorer == "masked_impact":
        selected = np.argmax(d, axis=1)
        chosen = d[np.arange(len(d)), selected]
        return np.maximum(chosen, 0.0)
    raise ValueError(f"unknown scorer {scorer!r}")


def save_checkpoint(params: ModelParams, path) -> None:
    """Write all tensors (row-major), dims, and the seed lineage as JSON."""
    payload = {
        "dims": {
            "aspects": params.dims.aspects,
            "text_dim": params.dims.text_dim,
            "struct_dim": params.dims.struct_dim,
        },
        "num_nodes": params.num_nodes,
        "seed_lineage": params.seed_lineage,
        "tensors": {
            name: {
                "shape": list(getattr(params, name).shape),
                "data": np.asarray(getattr(params, name), dtype=np.float64).ravel().tolist(),
            }
            for name in ModelParams.TENSOR_FIELDS
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_checkpoint(path) -> ModelParams:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    try:
        dims = Dims(**payload["dims"])
        tensors = {
            name: np.asarray(payload["tensors"][name]["data"], dtype=np.float64).reshape(
                payload["tensors"][name]["shape"]
            )
            for name in ModelParams.TENSOR_FIELDS
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed checkpoint {path}: {exc}") from exc
    params = ModelParams(dims=dims, seed_lineage=payload.get("seed_lineage", ""), **tensors)
    params.validate()
    return params
