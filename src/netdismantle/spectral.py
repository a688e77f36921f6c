"""Node-weighted spectral bisection of one connected component.

Edge uv is weighted b_uv = w_u + w_v, the price paid if either endpoint
of a cut edge is deleted, and L = D - B is the Laplacian of those
weights.  Minimizing the weighted cut over balanced signs relaxes to the
eigenvector of the second-smallest eigenvalue of L.  That vector is
approximated matrix-free: with the Gershgorin shift c = 2 max_u d_u the
operator cI - L is positive semidefinite and its dominant eigenvector is
the constant vector, so subtracting the mean every step deflates it and
plain power iteration converges to the eigenvector we want.  Each step
works in buffers allocated once per run and makes one call to scipy's
CSR matvec kernel, on B + diag(scale).  That gives the bits x - mean(x),
scale * x + B x and a division by the norm would.  On a component whose
row lengths change often, as on heavy-tailed graphs, the kernel visits
the rows sorted by length, into a second buffer that is gathered back
into local order before the norm; every row keeps its entries, so every
sum sees the same operands in the same order and the bits do not move.

A fixed iteration budget stands in for a convergence test on purpose:
runs are then deterministic functions of (graph, costs, seed, budget),
and the budget knob trades time for cut quality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec

from .costs import CostVector
from .errors import ComponentTooSmallError, DegenerateSpectrumError, InvalidCostError
from .graph import Subgraph, _gather_rows, _index_dtype
from .rng import initial_vector, retry_seed

# norms below this are treated as a collapse to zero
_UNDERFLOW = 1e-200
# OpenBLAS threads a dot product above this length, and its result then
# depends on the thread count
_DOT_CHUNK = 10_000
# the matvec's inner loop ends at each row's length, so a row whose length
# differs from the one before costs a branch miss; the step rows are sorted
# by length once this many rows differ.  Per power step on preferential-
# attachment graphs (degree costs, one BLAS thread) sorting and gathering
# back cost 25% more at 1.3k changes and 19-33% less from 3.3k on.  On
# the components of 2.2k-2.7k changes that the benchmark's regular and
# preferential-attachment inputs bisect, it ties or costs up to 23% more
_SORT_ROWS_MIN_CHANGES = 4_096
# B's entries are built this many at a time, so their temporaries stay small
_ENTRY_BLOCK = 4_096


class _UnderflowCollapse(Exception):
    pass


@dataclass(frozen=True)
class WeightedLaplacianOperator:
    """Matrix-free cI - L over one component, in local coordinates.

    nodes holds the sorted global ids; position i of any vector refers to
    nodes[i].  step holds the CSR (indptr, indices, data) of B +
    diag(scale), with scale = c - weighted degree, which applies the whole
    operator in one matvec, O(edges in component): each row holds B's
    entries in the subgraph's order, then its diagonal.  Its rows are in
    local order when order is None; otherwise they are stably sorted by
    length, columns still in local ids, and local row i is step row
    order[i].
    """

    nodes: np.ndarray
    step: tuple[np.ndarray, np.ndarray, np.ndarray]
    order: np.ndarray | None  # step row of each local row; None when they agree

    @property
    def size(self) -> int:
        return len(self.nodes)

    @property
    def b(self) -> sp.csr_matrix:
        """B, rebuilt from step on every read: each local row's step row
        without its diagonal slot.  The power step never reads it."""
        indptr, indices, data = self.step
        rows = np.arange(self.size) if self.order is None else self.order
        b_indptr, src = _gather_rows(indptr, rows, np.diff(indptr)[rows] - 1, indptr.dtype)
        return sp.csr_matrix((data[src], indices[src], b_indptr), shape=(self.size, self.size))


def build_operator(view: Subgraph, costs: CostVector) -> WeightedLaplacianOperator:
    """Assemble the shifted weighted Laplacian of one component."""
    nodes = view.nodes
    k = len(nodes)
    if k < 2:
        raise ComponentTooSmallError("component too small to bisect (need >= 2 nodes)")
    w = costs.w[nodes]
    if (w < 0).any():
        raise InvalidCostError("negative cost inside component")
    if not (w > 0).any():
        raise InvalidCostError("component has all-zero costs, edge weights vanish")
    lengths = np.diff(view.indptr) + 1
    rows, order = np.arange(k), None
    if np.count_nonzero(lengths[1:] != lengths[:-1]) >= _SORT_ROWS_MIN_CHANGES:
        rows = np.argsort(lengths, kind="stable")
        order = np.empty(k, dtype=np.int64)
        order[rows] = np.arange(k)
    # step row j is local row rows[j]: its entries of B in order, then a
    # diagonal slot, which first reads the entry after its row (clipped at
    # the end) and is overwritten.  Indices as scipy would store them
    index = _index_dtype(len(view.indices) + k)
    indptr, src = _gather_rows(view.indptr, rows, lengths[rows], index)
    np.minimum(src, len(view.indices) - 1, out=src)
    indices = view.indices[src].astype(index, copy=False)
    # B's entries, w_u + w_v, a block at a time from the row and column
    # of each, so no array of them in the subgraph's order is ever held
    ends = view.rows
    data = np.empty(len(src))
    for lo in range(0, len(src), _ENTRY_BLOCK):
        hi = lo + _ENTRY_BLOCK
        np.add(w[ends[src[lo:hi]]], w[indices[lo:hi]], out=data[lo:hi])
    del src
    # each row's entries of B summed as scipy's csr_matrix.sum(axis=1)
    # sums them, a row without any to zero; the diagonal is c minus that
    diagonal = indptr[1:] - 1
    bounds = np.empty(2 * k, dtype=np.intp)  # reduceat would copy others to intp
    bounds[0::2], bounds[1::2] = indptr[:-1], diagonal
    degree = np.add.reduceat(data, bounds)[::2]
    del bounds
    degree[lengths[rows] == 1] = 0.0
    indices[diagonal], data[diagonal] = rows, 2.0 * float(degree.max()) - degree
    return WeightedLaplacianOperator(nodes, (indptr, indices, data), order)


def iteration_budget(n: int, multiplier: int = 1) -> int:
    """Power-iteration count for a component of n nodes.

    The base budget grows as 30 ln(n) sqrt(ln(n)), rounded up; multiplier
    scales it for higher-precision runs.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if multiplier < 1:
        raise ValueError("multiplier must be at least 1")
    ln = math.log(n)
    base = math.ceil(30.0 * ln * math.sqrt(ln))
    return max(1, multiplier * base)


def _sumsq(x: np.ndarray) -> float:
    """x.dot(x), independent of the BLAS thread count: vectors longer
    than one chunk sum their chunks' dots exactly rounded with fsum."""
    if len(x) <= _DOT_CHUNK:
        return float(x.dot(x))
    chunks = (x[i:i + _DOT_CHUNK] for i in range(0, len(x), _DOT_CHUNK))
    return math.fsum(float(c.dot(c)) for c in chunks)


def _power_iterate(op: WeightedLaplacianOperator, x0: np.ndarray, iterations: int) -> np.ndarray:
    indptr, indices, data = op.step
    order = op.order
    k = op.size
    x = x0.copy()
    y = np.empty(k)
    yp = y if order is None else np.empty(k)  # the kernel's output, in step row order
    for _ in range(iterations):
        # a deflated unit vector is exactly zero or far above _UNDERFLOW;
        # costs are finite, so zero comes back as zero and fails below
        np.subtract(x, np.add.reduce(x) / k, out=x)
        yp.fill(0.0)  # the kernel adds into its output
        csr_matvec(k, k, indptr, indices, data, x, yp)
        if order is not None:
            np.take(yp, order, out=y, mode="clip")
        norm = math.sqrt(_sumsq(y))
        if norm < _UNDERFLOW:
            raise _UnderflowCollapse
        np.divide(y, norm, out=x)
    # one final deflation so the result is exactly zero mean, unit norm
    x = x - x.mean()
    norm = math.sqrt(_sumsq(x))
    if norm < _UNDERFLOW:
        raise _UnderflowCollapse
    return x / norm


def approx_fiedler(op: WeightedLaplacianOperator, seed: int, iterations: int) -> np.ndarray:
    """Power iteration with mean deflation from a seeded start vector:
    the approximate second eigenvector, unit norm and zero mean.

    If the iterate collapses below machine range the run is retried once
    from a reseeded start; a second collapse means the shifted operator
    genuinely annihilates the zero-mean subspace and is an error.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    try:
        return _power_iterate(op, initial_vector(seed, op.size), iterations)
    except _UnderflowCollapse:
        try:
            return _power_iterate(op, initial_vector(retry_seed(seed), op.size), iterations)
        except _UnderflowCollapse:
            raise DegenerateSpectrumError(
                f"degenerate spectrum: power iteration collapsed twice on a "
                f"{op.size}-node component"
            ) from None


@dataclass(frozen=True)
class Partition:
    """Two-way split of one component; in_m[i] tells whether nodes[i] is
    in group M, the side slated to lose its cut endpoints."""

    nodes: np.ndarray
    in_m: np.ndarray

    @property
    def size_m(self) -> int:
        return int(self.in_m.sum())

    @property
    def size_mbar(self) -> int:
        return len(self.nodes) - self.size_m


def sign_partition(values: np.ndarray, nodes: np.ndarray) -> Partition:
    """Split nodes by the sign of their eigenvector values, with fallbacks
    that keep both sides nonempty: negative entries form M; if that is
    trivial, entries below the median form M; if still trivial, M is just
    the first node."""
    in_m = values < 0.0
    if in_m.any() and not in_m.all():
        return Partition(nodes=nodes, in_m=in_m)
    median = float(np.median(values))
    in_m = values < median
    if in_m.any() and not in_m.all():
        return Partition(nodes=nodes, in_m=in_m)
    in_m = np.zeros(len(values), dtype=bool)
    in_m[0] = True
    return Partition(nodes=nodes, in_m=in_m)


def fine_tune_partition(
    view: Subgraph,
    partition: Partition,
    flip_log: list[int] | None = None,
) -> Partition:
    """Greedy sign flips that strictly shrink the cut.

    A node moves to the other group when every one of its neighbors in
    the component sits in the other group (so it has at least one) and
    its own group would not be emptied.  Nodes are scanned in ascending
    id against the updated labels until a full scan flips nothing.  Each
    flip turns all of the node's cut edges into internal ones and creates
    none, so the cut shrinks monotonically and the loop terminates.

    flip_log, when given, receives the flipped node ids in flip order.
    """
    labels = partition.in_m.astype(np.int8)
    size = [int(partition.size_mbar), int(partition.size_m)]  # size[lab]

    # a flip only ever gives neighbors a same-labeled partner, so nodes
    # with a same-labeled neighbor now are out for good and the
    # candidate set can be computed once
    rows = view.rows
    same_count = np.bincount(rows[labels[view.indices] == labels[rows]], minlength=view.size)
    pending = np.flatnonzero((np.diff(view.indptr) >= 1) & (same_count == 0)).tolist()

    changed = True
    while changed and pending:
        changed = False
        still_pending: list[int] = []
        for v in pending:
            nbrs = view.indices[view.indptr[v] : view.indptr[v + 1]]
            lab = labels[v]
            if (labels[nbrs] != lab).all():
                if size[lab] > 1:
                    labels[v] = 1 - lab
                    size[lab] -= 1
                    size[1 - lab] += 1
                    changed = True
                    if flip_log is not None:
                        flip_log.append(int(view.nodes[v]))
                else:
                    # group-size guard, may free up on a later scan
                    still_pending.append(v)
            # a same-labeled neighbor appeared: disqualified permanently
        pending = still_pending
    return Partition(nodes=partition.nodes, in_m=labels == 1)

