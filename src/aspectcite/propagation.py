"""Per-aspect influence propagation over the citation graph.

Each aspect's influence mass is a probability distribution over nodes,
evolved by a column-stochastic operator

    P_k = beta * ones(N, N) + nu * (X_k + Z_k),   beta = 0.05 / N,  nu = 1 - beta * N

where X_k column-normalizes the learned per-aspect edge impacts (mass flows
from a cited node to its citers) and Z_k spreads the mass of dangling columns
uniformly. nu = 1 - beta*N is the unique choice that keeps every column of
P_k summing to 1. The operator is applied without ever materializing the
dense matrix, and without finding the dangling columns: the teleport and
dangling terms both spread mass uniformly, and together they hand out
exactly the mass that nu * X_k does not keep. So a step computes
y = nu * X_k x and adds (sum(x) - sum(y)) / N to every node, as the
PageRank power step of Kamvar et al. (WWW 2003, Algorithm 1) does.

All aspects step together. build_projection lists the nonzeros of the
block-diagonal (I*N, I*N) operator diag(nu*X_1, ..., nu*X_I) once, as a
row-sorted edge list (row k*N + i, column k*N + j, weight); masked impacts
are one-hot per edge, so it holds at most M entries. A step is then one
weighted bincount over the aspect-major flat state, plus one pass that adds
each aspect's unkept mass. bincount adds each row's products one by one in
input order, starting from 0.0, and each row's entries sit in ascending
column order, so the kept mass is exactly the floating-point sums of a CSR
matrix-vector product with each nu*X_k on its own.

Between steps the state stays aspect-major: apply_projection returns the
(N, I) transposed view of its C-ordered (I, N) result, so the next step
flattens it without a copy and its column sums are contiguous reductions.
propagate restores C order once, on the state it returns, so callers and
saved states always see a C-ordered (N, I) matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import codec

__all__ = [
    "AspectState",
    "CSRArrays",
    "TransitionTensor",
    "ProjectionOperator",
    "initialize_state",
    "build_transition",
    "build_projection",
    "apply_projection",
    "propagate",
    "save_state",
    "load_state",
]

DEFAULT_EPSILON = 1e-8
DEFAULT_MAX_STEPS = 100


@dataclass(frozen=True)
class AspectState:
    """Per-node, per-aspect influence mass; every column is a distribution."""

    matrix: np.ndarray = field(repr=False)
    step: int = 0
    residual: float = float("inf")
    converged: bool = True

    @property
    def num_nodes(self) -> int:
        return self.matrix.shape[0]

    @property
    def aspects(self) -> int:
        return self.matrix.shape[1]

    def validate(self, tolerance: float = 1e-9) -> None:
        # written so that NaN fails: every comparison with NaN is False
        if not np.all((self.matrix >= 0) & (self.matrix <= 1)):
            raise ValueError("aspect state entries must lie in [0, 1]")
        sums = self.matrix.sum(axis=0)
        if not np.all(np.abs(sums - 1.0) <= tolerance):
            raise ValueError(f"aspect state columns must sum to 1, got {sums}")


def initialize_state(num_nodes: int, aspects: int) -> AspectState:
    """Uniform 1/N mass per node in every aspect column."""
    if num_nodes < 1 or aspects < 1:
        raise ValueError("need at least one node and one aspect")
    return AspectState(matrix=np.full((num_nodes, aspects), 1.0 / num_nodes))


class CSRArrays(NamedTuple):
    """One aspect's (N, N) transition matrix in compressed sparse row form:
    row i's entries are indices[indptr[i]:indptr[i + 1]] (ascending columns)
    with weights data[indptr[i]:indptr[i + 1]]; indptr and indices are int64."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


@dataclass(frozen=True)
class TransitionTensor:
    """Per-aspect sparse transition matrices with column-wise normalization.

    matrices[k] holds the CSR arrays of X_k, where X_k[i, j] is the share of
    cited node j's aspect-k influence flowing to citer i. Columns with no
    positive impact (including every never-cited node) are dangling: they
    hold no entries, and every other column sums to 1.
    """

    matrices: tuple  # of CSRArrays, one per aspect
    num_nodes: int
    aspects: int


def build_transition(edges, impacts: np.ndarray, num_nodes: int) -> TransitionTensor:
    """Column-normalize per-edge impact vectors into per-aspect matrices.

    edges: sequence of distinct (citer i, cited j) pairs; impacts: (M, I)
    array of the finite, nonnegative masked impacts, rows aligned with edges.
    Only positive impacts enter a matrix; each column mass is their sum in
    edge order.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    impacts = np.atleast_2d(np.asarray(impacts, dtype=np.float64))
    if impacts.shape[0] != len(edges):
        raise ValueError(f"{len(edges)} edges but {impacts.shape[0]} impact rows")
    if not np.isfinite(impacts).all():
        raise ValueError("edge impacts must be finite")
    if np.any(impacts < 0):
        raise ValueError("edge impacts must be nonnegative")

    aspects = impacts.shape[1]
    matrices = []
    for k in range(aspects):
        nz = np.flatnonzero(impacts[:, k] > 0.0)
        weight, rows, cols = impacts[nz, k], edges[nz, 0], edges[nz, 1]
        column_mass = np.bincount(cols, weights=weight, minlength=num_nodes)
        order = np.argsort(rows * num_nodes + cols)  # edges are distinct, so this is (row, column) order
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=num_nodes))))
        matrices.append(CSRArrays(indptr=indptr, indices=cols[order], data=(weight / column_mass[cols])[order]))
    return TransitionTensor(matrices=tuple(matrices), num_nodes=num_nodes, aspects=aspects)


@dataclass(frozen=True)
class ProjectionOperator:
    """The implicit column-stochastic propagation operator for all aspects.

    rows, cols and data list the nonzeros of the block-diagonal operator
    with nu*X_k as block k, sorted by row and, within a row, by column.
    """

    tensor: TransitionTensor
    beta: float
    nu: float
    rows: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)
    data: np.ndarray = field(repr=False)

    @property
    def num_nodes(self) -> int:
        return self.tensor.num_nodes

    @property
    def aspects(self) -> int:
        return self.tensor.aspects


def build_projection(tensor: TransitionTensor) -> ProjectionOperator:
    n = tensor.num_nodes
    beta = 0.05 / n
    nu = 1.0 - beta * n
    mats = tensor.matrices
    rows = np.concatenate([np.repeat(np.arange(k * n, (k + 1) * n), np.diff(mat.indptr)) for k, mat in enumerate(mats)])
    cols = np.concatenate([mat.indices + k * n for k, mat in enumerate(mats)])
    data = nu * np.concatenate([mat.data for mat in mats])
    return ProjectionOperator(tensor=tensor, beta=beta, nu=nu, rows=rows, cols=cols, data=data)


def apply_projection(op: ProjectionOperator, state: AspectState) -> AspectState:
    """One propagation step; column distributions stay column distributions."""
    matrix = state.matrix
    if matrix.shape != (op.num_nodes, op.aspects):
        raise ValueError(f"state shape {matrix.shape} does not match operator ({op.num_nodes}, {op.aspects})")
    n = op.num_nodes
    flat = matrix.T.ravel()  # aspect-major: element k*N + j is matrix[j, k]; a view for our own outputs
    # each column summed on its own, pairwise: the step hands on exactly this
    # mass, and an axis-0 sum of a C-ordered state runs sequentially (2e-12
    # off for the uniform state at N = 10^5)
    column_sums = flat.reshape(op.aspects, n).sum(axis=1)
    if not np.all(np.abs(column_sums - 1.0) <= 1e-6):  # NaN fails too
        raise ValueError(f"input state columns must sum to 1 (got {column_sums})")
    out = np.bincount(op.rows, weights=op.data * flat.take(op.cols), minlength=op.aspects * n)
    out = out.astype(np.float64, copy=False).reshape(op.aspects, n)  # an empty bincount is int64: no positive impact
    out += ((column_sums - out.sum(axis=1)) / n)[:, None]  # teleport and dangling mass: what nu*X_k did not keep
    return AspectState(matrix=out.T, step=state.step + 1, residual=state.residual, converged=state.converged)


def propagate(
    op: ProjectionOperator,
    initial: AspectState,
    max_steps: int = DEFAULT_MAX_STEPS,
    epsilon: float = DEFAULT_EPSILON,
) -> AspectState:
    """Power-iterate to the stationary per-aspect distributions.

    Stops when the max per-aspect L1 change drops below epsilon; if max_steps
    is exhausted first, the last iterate comes back flagged unconverged.
    The fixed point is unique (the operator is strictly positive entrywise)
    and each step shrinks every column's L1 distance to it by a factor nu,
    so whatever the starting state, each column of the result lies within
    nu/(1-nu) * residual of it: 19x the residual at nu = 0.95.
    max_steps=0 returns the initial state, unconverged with an infinite
    residual. The returned matrix is always C-ordered.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be nonnegative")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")

    current = initial
    residual = float("inf")
    change = np.empty((op.aspects, op.num_nodes))
    for _ in range(max_steps):
        nxt = apply_projection(op, current)
        np.subtract(nxt.matrix.T, current.matrix.T, out=change)
        residual = float(np.abs(change, out=change).sum(axis=1).max())
        current = nxt
        if residual < epsilon:
            break
    return replace(current, matrix=np.ascontiguousarray(current.matrix), residual=residual, converged=residual < epsilon)


STATE_FORMAT = "aspectcite-state-v3"


def save_state(state: AspectState, path) -> None:
    """Write the state as a STATE_FORMAT header at path.

    The matrix goes into the `codec` sidecar beside path (state.json ->
    state.bin); both files are written atomically, sidecar first. load_state
    returns the matrix bit for bit.
    """
    codec.write_artifact(path, STATE_FORMAT, {
        "num_nodes": state.num_nodes,
        "aspects": state.aspects,
        "step": state.step,
        "residual": state.residual if np.isfinite(state.residual) else None,
        "converged": state.converged,
        "matrix": codec.tensor_entry(state.matrix),
    }, [state.matrix])


def load_state(path) -> AspectState:
    """Read a save_state header and its sidecar.

    Raises ValueError for any other format (the earlier base64 and
    list-of-floats states included: re-run train), a malformed matrix entry,
    or a missing sidecar or one that does not match its header. Column
    stochasticity is not checked here; callers that need it call validate().
    """
    payload = codec.read_payload(path, STATE_FORMAT)
    try:
        (matrix,) = codec.read_tensors(path, payload, [payload["matrix"]])
        if matrix.shape != (payload["num_nodes"], payload["aspects"]):
            raise ValueError(f"matrix shape {matrix.shape} does not match num_nodes and aspects")
        residual = payload["residual"]
        return AspectState(
            matrix=matrix,
            step=int(payload["step"]),
            residual=float("inf") if residual is None else float(residual),
            converged=bool(payload["converged"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed state file {path}: {exc}") from exc
