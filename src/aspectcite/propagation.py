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

build_transition makes the operator in one call: for each aspect it lists
the nonzeros of nu*X_k once, in compressed sparse row order, with each
entry's row beside its column and weight. Masked impacts are one-hot per
edge, so the aspects hold at most M entries between them. Aspect k's step
reads only state column k and writes only output column k: one weighted
bincount over the entries' rows, one pass that adds the mass nu*X_k did not
keep, and one pass for the step's L1 change in that column. bincount adds
each row's products one by one in input order, starting from 0.0, and each
row's entries sit in ascending column order, so the kept mass is exactly
the floating-point sums of a CSR matrix-vector product with nu*X_k. The
column sum and the L1 change are pairwise sums over one contiguous aspect
row.

Every sum is thus taken within one aspect, so the aspects can run as
separate tasks with the arithmetic unchanged: the states and residuals are
byte-identical to a one-thread loop over the aspects. build_transition and
apply_projection each run one task per aspect through `pool.each`, so a
propagation step is one round trip to the package's worker pool (the `pool`
module says when it runs tasks on the calling thread instead). An operator
with fewer than POOLED_NODES nodes runs its tasks on the calling thread.
That size was measured on a 2-vCPU VM with 100 capped steps on random
one-hot operators of 5N edges: for 2, 3, 5 and 8 aspects the pooled step
broke even at N between 40,000 and 80,000 and won at 80,000 (N*I from
80,000 to 640,000, so the node count, not N*I, predicts it), and at Cora's
N = 2708 it took 4.5 to 7 times as long as the calling thread.

Between steps the state stays aspect-major: apply_projection returns the
(N, I) transposed view of its C-ordered (I, N) result, so the next step
reads each aspect's column without a copy and sums it contiguously.
propagate restores C order once, on the state it returns, so callers and
saved states always see a C-ordered (N, I) matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import codec, pool

__all__ = [
    "AspectState",
    "AspectMatrix",
    "ProjectionOperator",
    "initialize_state",
    "build_transition",
    "apply_projection",
    "propagate",
    "save_state",
    "load_state",
]

DEFAULT_EPSILON = 1e-8
DEFAULT_MAX_STEPS = 100

# Operators with fewer nodes run their aspects on the calling thread; the
# module docstring gives the measurement that set it.
POOLED_NODES = 60_000


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


class AspectMatrix(NamedTuple):
    """Aspect k's block nu*X_k in compressed sparse row form: row i's entries
    are indices[indptr[i]:indptr[i + 1]] (ascending columns) with weights
    data[indptr[i]:indptr[i + 1]], and rows[e] is entry e's row. indptr,
    indices and rows are int64."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    rows: np.ndarray


@dataclass(frozen=True)
class ProjectionOperator:
    """The implicit column-stochastic propagation operator for all aspects.

    matrices[k] holds nu*X_k, the kept part of aspect k's step, where
    X_k[i, j] is the share of cited node j's aspect-k influence flowing to
    citer i. Columns with no positive impact (including every never-cited
    node) are dangling: they hold no entries, and every other column of X_k
    sums to 1.
    """

    num_nodes: int
    beta: float
    nu: float
    matrices: tuple = field(repr=False)  # of AspectMatrix, one per aspect

    @property
    def aspects(self) -> int:
        return len(self.matrices)


def build_transition(edges, impacts: np.ndarray, num_nodes: int) -> ProjectionOperator:
    """Column-normalize per-edge impact vectors into the propagation operator.

    edges: sequence of distinct (citer i, cited j) pairs of node indices in
    [0, num_nodes); impacts: (M, I) array of the finite, nonnegative masked
    impacts, rows aligned with edges. Only positive impacts enter a matrix;
    each column mass is their sum in edge order.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    impacts = np.atleast_2d(np.asarray(impacts, dtype=np.float64))
    if impacts.shape[0] != len(edges):
        raise ValueError(f"{len(edges)} edges but {impacts.shape[0]} impact rows")
    if len(edges) and (edges.min() < 0 or edges.max() >= num_nodes):
        first = int(np.flatnonzero(((edges < 0) | (edges >= num_nodes)).any(axis=1))[0])
        raise ValueError(f"edge {first} {tuple(edges[first].tolist())} has a node index outside [0, {num_nodes})")
    if not np.isfinite(impacts).all():
        raise ValueError("edge impacts must be finite")
    if np.any(impacts < 0):
        raise ValueError("edge impacts must be nonnegative")
    beta = 0.05 / num_nodes
    nu = 1.0 - beta * num_nodes

    def aspect_matrix(k):
        nz = np.flatnonzero(impacts[:, k] > 0.0)
        weight, rows, cols = impacts[nz, k], edges[nz, 0], edges[nz, 1]
        column_mass = np.bincount(cols, weights=weight, minlength=num_nodes)
        order = np.argsort(rows * num_nodes + cols)  # edges are distinct, so this is (row, column) order
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=num_nodes))))
        data = nu * (weight / column_mass[cols])[order]
        return AspectMatrix(indptr=indptr, indices=cols[order], data=data, rows=rows[order])

    matrices = pool.each(aspect_matrix, impacts.shape[1], pooled=num_nodes >= POOLED_NODES)
    return ProjectionOperator(num_nodes=num_nodes, beta=beta, nu=nu, matrices=tuple(matrices))


def apply_projection(op: ProjectionOperator, state: AspectState) -> AspectState:
    """One propagation step; column distributions stay column distributions.

    The result's residual is the step's max per-aspect L1 change; its
    converged flag is the input's, which propagate sets on the state it returns.
    """
    matrix = state.matrix
    if matrix.shape != (op.num_nodes, op.aspects):
        raise ValueError(f"state shape {matrix.shape} does not match operator ({op.num_nodes}, {op.aspects})")
    n = op.num_nodes
    out = np.empty((op.aspects, n))  # aspect-major: the step returns its (N, I) transposed view

    def step_aspect(k):
        column = np.ascontiguousarray(matrix[:, k])  # a view for our own outputs
        # summed on its own, pairwise: the step hands on exactly this mass, and
        # a sequential sum down a C-ordered state's column is 2e-12 off for the
        # uniform state at N = 10^5
        column_sum = column.sum()
        if not abs(column_sum - 1.0) <= 1e-6:  # NaN fails too
            raise ValueError(f"input state columns must sum to 1 (got {column_sum} in aspect {k})")
        mat = op.matrices[k]
        kept = np.bincount(mat.rows, weights=mat.data * column.take(mat.indices), minlength=n)
        kept = kept.astype(np.float64, copy=False)  # an empty bincount is int64: no positive impact
        np.add(kept, (column_sum - kept.sum()) / n, out=out[k])  # teleport and dangling mass: what nu*X_k did not keep
        change = np.subtract(out[k], column, out=kept)
        return np.abs(change, out=change).sum()

    changes = pool.each(step_aspect, op.aspects, pooled=n >= POOLED_NODES)
    return AspectState(matrix=out.T, step=state.step + 1, residual=float(np.max(changes)), converged=state.converged)


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
    The initial state's residual is never read, so a warm start takes at
    least one step; max_steps=0 returns the initial state, unconverged with
    an infinite residual. The returned matrix is always C-ordered.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be nonnegative")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")

    current = initial
    residual = float("inf")
    for _ in range(max_steps):
        current = apply_projection(op, current)
        residual = current.residual
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
