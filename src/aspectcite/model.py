"""Learnable parameters and the one batched scoring chain.

For candidate citations (i cites j), one row per pair, the chain is:
  r_x   fused representation: L2-normalized concat of text and structural
        embedding, once per distinct node          (representations_for)
  c_ij  citation effect of the cited node: state_to_effect @ d_j
  e_ij  similarity: elementwise product r_i * r_j
  D_ij  per-aspect impact: effect_weights^T c + similarity_weights^T e
                                                   (impacts_from_representations)
  alpha chosen aspect, one index per pair: Gumbel-max draw in train mode,
        argmax in infer                            (select_aspects)
  Y_ij  masked nonnegative impact: max(D_ij, 0) at the chosen aspect, 0
        elsewhere                                  (masked_impacts)
  F_ij  scalar link score: sum(c_ij) + sum(e_ij)  (impacts_for_pairs)

`impacts_for_pairs` runs the chain in blocks, as tasks on the package's worker
pool (`pool.each`): first the representations, in blocks of BLOCK_ROWS
distinct nodes written into one array, then `impacts_from_representations`
on blocks of at least BLOCK_ROWS pairs, each writing its own rows of F and D.
No block's arithmetic depends on the thread that runs it or on the other
blocks, so the outputs are byte-identical to a loop on the calling thread,
which is where a call with one block of each kind runs. Every aspect choice
goes through `select_aspects`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import codec, pool

__all__ = [
    "Dims",
    "ModelParams",
    "softmax",
    "representations_for",
    "distinct_nodes",
    "impacts_from_representations",
    "impacts_for_pairs",
    "select_aspects",
    "masked_impacts",
    "sample_aspect",
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
    node_embeddings    (N, L_n) learned structural embedding table
    """

    dims: Dims
    state_to_effect: np.ndarray
    effect_weights: np.ndarray
    similarity_weights: np.ndarray
    node_embeddings: np.ndarray
    seed_lineage: str = ""

    TENSOR_FIELDS = ("state_to_effect", "effect_weights", "similarity_weights", "node_embeddings")

    @classmethod
    def initialize(cls, dims: Dims, num_nodes: int, rng: np.random.Generator, seed_lineage: str = "") -> "ModelParams":
        """Uniform(-s, s) with s = 1/sqrt(fan_in) for the maps,
        uniform(-0.5, 0.5)/L_n structural embeddings."""
        i, l = dims.aspects, dims.fused_dim
        s_i = 1.0 / np.sqrt(i)
        s_l = 1.0 / np.sqrt(l)
        return cls(
            dims=dims,
            state_to_effect=rng.uniform(-s_i, s_i, size=(i, i)),
            effect_weights=rng.uniform(-s_i, s_i, size=(i, i)),
            similarity_weights=rng.uniform(-s_l, s_l, size=(l, i)),
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
            "node_embeddings": (self.num_nodes, self.dims.struct_dim),
        }
        for name, expected in shapes.items():
            arr = getattr(self, name)
            if arr.shape != expected:
                raise ValueError(f"{name} has shape {arr.shape}, expected {expected}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")

    def copy(self) -> "ModelParams":
        tensors = {name: getattr(self, name).copy() for name in self.TENSOR_FIELDS}
        return ModelParams(dims=self.dims, seed_lineage=self.seed_lineage, **tensors)


def softmax(x: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=-1, keepdims=True)


def representations_for(nodes: np.ndarray, text_vectors: np.ndarray, params: ModelParams):
    """Fused representations L2-normalize(concat(text, structural)) for a node
    index array, rows aligned with `nodes`, and their (rows, 1) norms before
    normalization, which the backward pass divides by.

    An all-zero row stays zero instead of being divided by zero; its norm of 0
    flags it. Returns (r, norms).
    """
    if text_vectors.shape[1] != params.dims.text_dim:
        raise ValueError(f"text vectors have width {text_vectors.shape[1]}, expected {params.dims.text_dim}")
    text_dim = params.dims.text_dim
    fused = np.empty((len(nodes), params.dims.fused_dim))
    fused[:, :text_dim] = np.take(text_vectors, nodes, axis=0)
    fused[:, text_dim:] = np.take(params.node_embeddings, nodes, axis=0)
    norms = np.linalg.norm(fused, axis=1, keepdims=True)
    fused /= np.where(norms == 0.0, 1.0, norms)
    return fused, norms


def distinct_nodes(num_nodes: int, *node_arrays):
    """The sorted distinct nodes of `node_arrays`, and for each array the row
    of each of its entries in that node list.

    Lets a caller compute one representation per distinct node and gather it
    per pair; a presence mask over all nodes avoids sorting the entries.
    """
    present = np.zeros(num_nodes, dtype=bool)
    for nodes in node_arrays:
        present[nodes] = True
    slot = np.cumsum(present) - 1  # slot[x] is node x's row when present[x]
    return np.flatnonzero(present), [slot[nodes] for nodes in node_arrays]


def impacts_from_representations(reps: np.ndarray, src_rows, dst_rows, dst_states: np.ndarray, params: ModelParams):
    """(c, e, D) for pairs whose endpoints are rows `src_rows`, `dst_rows` of
    `reps` and whose cited nodes have aspect states `dst_states` (rows align).

    c = state_to_effect @ d_dst, e = r_src * r_dst and
    D = effect_weights^T c + similarity_weights^T e, one row per pair.
    c stays a per-pair product: a BLAS matmul's last bit can depend on its row
    count, so computing it per node could change the result.
    """
    # np.take copies whole rows: the same values as reps[rows], in less time
    e = np.take(reps, src_rows, axis=0)
    e *= np.take(reps, dst_rows, axis=0)  # e = r_src * r_dst without keeping both gathers alive
    c = dst_states @ params.state_to_effect.T
    d = c @ params.effect_weights + e @ params.similarity_weights
    return c, e, d


# Rows per block of `impacts_for_pairs`. A BLAS product's last bit can depend
# on its row count: on OpenBLAS a 1-row (gemv) or 85-row (small-matrix) block
# differs from the whole product, while blocks of >= 512 rows match it. So the
# last pair block takes the remainder and a call of < 2 * BLOCK_ROWS pairs is
# one block. A representation takes no BLAS product (each row's norm is a sum
# over that row alone), so the last block of distinct nodes may have one row.
BLOCK_ROWS = 4096


def impacts_for_pairs(
    pairs: np.ndarray, state_matrix: np.ndarray, params: ModelParams, text_vectors: np.ndarray, scores: bool = True
):
    """(F, D) for an array of (i, j) pairs of node indices in [0, num_nodes);
    rows align with the input.

    F = sum(c) + sum(e) is the link score, D the per-aspect impacts; with
    scores=False, F is not computed and comes back None. Each node's
    representation is computed once; c and e exist for one block at a time.
    The representation blocks and then the pair blocks run as tasks on the
    worker pool when there are two or more of them.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    num_nodes = params.num_nodes
    if len(pairs) and (pairs.min() < 0 or pairs.max() >= num_nodes):
        first = int(np.flatnonzero(((pairs < 0) | (pairs >= num_nodes)).any(axis=1))[0])
        raise ValueError(f"pair {first} {tuple(pairs[first].tolist())} has a node index outside [0, {num_nodes})")
    nodes, (src_rows, dst_rows) = distinct_nodes(num_nodes, pairs[:, 0], pairs[:, 1])
    reps = np.empty((len(nodes), params.dims.fused_dim))
    f, d = np.empty(len(pairs)) if scores else None, np.empty((len(pairs), params.dims.aspects))

    def represent(b):
        block = slice(BLOCK_ROWS * b, BLOCK_ROWS * (b + 1))
        reps[block] = representations_for(nodes[block], text_vectors, params)[0]

    pair_blocks = max(len(pairs) // BLOCK_ROWS, 1)

    def impact_block(b):
        block = slice(BLOCK_ROWS * b, BLOCK_ROWS * (b + 1) if b + 1 < pair_blocks else len(pairs))
        c, e, d[block] = impacts_from_representations(
            reps, src_rows[block], dst_rows[block], np.take(state_matrix, pairs[block, 1], axis=0), params)
        if scores:
            f[block] = c.sum(axis=1) + e.sum(axis=1)

    # at least one block, so an empty input still has its text width checked
    pool.each(represent, max(-(-len(nodes) // BLOCK_ROWS), 1), pooled=True)
    pool.each(impact_block, pair_blocks, pooled=True)
    return f, d


def select_aspects(impacts: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
    """The chosen aspect of each row of a (rows, I) impact matrix, a (rows,) int64 index.

    Without a generator: the argmax of each row, ties to the lowest index.
    With one: a Gumbel-max draw, the argmax of g + log softmax(d) with
    g = -log(-log(u)) and u = rng.random((rows, I)), so a row picks aspect a
    with probability softmax(d)[a].
    """
    scores = np.asarray(impacts, dtype=np.float64)
    if rng is not None:
        scores = -np.log(-np.log(rng.random(scores.shape))) + np.log(softmax(scores))
    return np.argmax(scores, axis=1)


def masked_impacts(impacts: np.ndarray, chosen: np.ndarray) -> np.ndarray:
    """Y = max(D, 0) at each row's `chosen` aspect index, 0 at every other aspect."""
    impacts = np.asarray(impacts, dtype=np.float64)
    rows = np.arange(len(impacts))
    masked = np.zeros_like(impacts)
    masked[rows, chosen] = np.maximum(impacts[rows, chosen], 0.0)
    return masked


def sample_aspect(d_pair: np.ndarray, mode: str, rng: np.random.Generator | None = None):
    """Select one aspect from one impact vector: `select_aspects` on one row.

    infer: argmax of d_pair, ties to the lowest index.
    train: Gumbel-max draw one_hot(argmax(g + log pi)), g ~ Gumbel(0, 1).

    Returns (one_hot, softmax(d_pair)).
    """
    d_pair = np.asarray(d_pair, dtype=np.float64)
    if not np.all(np.isfinite(d_pair)):
        raise ValueError("aspect impact vector contains non-finite entries")
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    if mode == "train" and rng is None:
        raise ValueError("train-mode sampling needs a random generator")
    hard = np.eye(len(d_pair))[select_aspects(d_pair[None, :], rng if mode == "train" else None)[0]]
    return hard, softmax(d_pair)


def scores_for_pairs(pairs, state_matrix, params, text_vectors) -> np.ndarray:
    """Vectorized F link scores, sum(c) + sum(e), for (i, j) pairs."""
    return impacts_for_pairs(pairs, state_matrix, params, text_vectors)[0]


CHECKPOINT_FORMAT = "aspectcite-checkpoint-v4"


def save_checkpoint(params: ModelParams, path) -> None:
    """Write dims, the seed lineage and every tensor as a CHECKPOINT_FORMAT header at path.

    The tensors go, in TENSOR_FIELDS order, into the `codec` sidecar beside
    path (checkpoint.json -> checkpoint.bin); both files are written
    atomically, sidecar first. load_checkpoint returns the tensors bit for bit.
    """
    tensors = [getattr(params, name) for name in ModelParams.TENSOR_FIELDS]
    codec.write_artifact(path, CHECKPOINT_FORMAT, {
        "dims": {
            "aspects": params.dims.aspects,
            "text_dim": params.dims.text_dim,
            "struct_dim": params.dims.struct_dim,
        },
        "num_nodes": params.num_nodes,
        "seed_lineage": params.seed_lineage,
        "tensors": {name: codec.tensor_entry(t) for name, t in zip(ModelParams.TENSOR_FIELDS, tensors)},
    }, tensors)


def load_checkpoint(path) -> ModelParams:
    """Read a save_checkpoint header and its sidecar, and validate the parameters.

    Raises ValueError for any other format (the earlier base64 and
    list-of-floats checkpoints included: re-run train), a malformed tensor
    entry, a missing sidecar or one that does not match its header, or
    parameters that fail ModelParams.validate.
    """
    payload = codec.read_payload(path, CHECKPOINT_FORMAT)
    try:
        dims = Dims(**payload["dims"])
        entries = [payload["tensors"][name] for name in ModelParams.TENSOR_FIELDS]
        tensors = dict(zip(ModelParams.TENSOR_FIELDS, codec.read_tensors(path, payload, entries)))
        params = ModelParams(dims=dims, seed_lineage=payload.get("seed_lineage", ""), **tensors)
        params.validate()  # IndexError: a 0-d node_embeddings has no num_nodes
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed checkpoint {path}: {exc}") from exc
    return params
