"""Factored projected gradient descent for max-norm constrained least squares.

The estimator minimizes the empirical quadratic loss over matrices with
elementwise max <= alpha and factor row norms^2 <= radius, working on the
factor pair (U, V) directly.  fit_pgd is the factored projected-gradient
method of Lee, Recht, Salakhutdinov, Srebro & Tropp (NeurIPS 2010): a
simultaneous gradient step on both factors, then a global rescale restoring
the elementwise bound, then row-wise Euclidean projection onto the radius
ball.

The loss is exact on the draws' cells: with each cell's draw count, mean
value and the within-cell sum of squares ss_within, it is
(sum counts * (prediction - mean)^2 + ss_within) / n.  Draws are taken with
replacement, so n may reach or pass d1 * d2.  fit_pgd picks one of two
layouts by the density of the m distinct observed cells, through the
module constant GRID_CELLS_PER_OBSERVED = 4.  Since m <= n, the same
constant decides how the draws reach their layout (see _fit_layout): when
d1 * d2 > 4 n they are sorted to their cells, and otherwise counted onto
the grid.

- d1 * d2 > 4 m, the cells: the observations collapse onto their m unique
  cells, kept in row-major order with a row's cells contiguous (see
  _dedupe_observations), sorted there or compacted from the counted grid.
  A PGD iteration evaluates the loss at each trial point in one pass over
  blocks of at most sampling.DRAW_CHUNK cells that end at row boundaries,
  cut where the cells are found (see _cell_blocks).  Each block gathers
  V's columns at its cells into one k x b buffer that every block reuses;
  U's value at the cells is np.repeat of its observed rows.  The same
  pass scales the gathered columns by the gradient weights and sums each
  row's segment into G @ V, so every trial, accepted or not, computes
  G @ V.  The accepted trial's weights and U's repeated columns, binned by
  cell column, give G.T @ U.  An iteration takes O((m + d1 + d2) k) time
  and holds O(m + (d1 + d2) k) memory plus one block: the kernels build no
  k x m and no d1 x d2 array.
- d1 * d2 <= 4 m, the grid: the draw counts and the cell means (0 where no
  draw fell) are d1 x d2 arrays, and every trial fills two more allocated
  once per fit, P = U @ V.T - means and G = counts * P.  The draws are
  streamed onto the grid sampling.DRAW_CHUNK at a time (see _grid_arrays),
  so building it holds no n-length array.  The gradient products are
  G @ V and G.T @ U.  All three products are einsum calls, which sum in a
  fixed order, so the bits do not depend on the BLAS thread count.  An iteration takes O(d1 d2 k) time and holds those four d1 x d2
  arrays, 32 d1 d2 <= 128 m bytes.

The elementwise max of U @ V.T is taken exactly by scanning the rows of U
in decreasing norm and stopping once the Cauchy-Schwarz bound
|u_i . v_j| <= |u_i| max_j |v_j| of the next row cannot beat the running
max.  Usually a small share of the rows is scanned; in the worst case
(every row of U at the same norm, as when all sit on the radius) it covers
all d1 rows, d1 d2 k flops plus an O(d1 log d1) sort.  The max holds at
most one block of PRODUCT_BLOCK_CELLS cells.
SolveResult stores no d1 x d2 array: each read of `completed` builds a
fresh dense product, which lives as long as the caller keeps it.

The fit is deterministic given (observations, constraints, config).
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _rng, sampling
from .core import ConstraintSet, Factorization, ValidationError, _dot, check_matrix
from .sampling import ObservationSet

DEFAULT_TAU = 0.1
DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITERS = 5000
MAX_HALVINGS = 20

# Slack for the constraint checks reported on returned iterates.
FEASIBILITY_SLACK = 1e-9

# Cells per row block of U @ V.T, 2 MB of float64, both when taking its
# elementwise max and when harness scores a fit.  A row longer than this is
# one block.
PRODUCT_BLOCK_CELLS = 1 << 18

# fit_pgd runs the grid kernels when d1 * d2 <= GRID_CELLS_PER_OBSERVED * m,
# for m observed cells, and the cell kernels otherwise.  As m <= n, it also
# counts the draws onto the grid when d1 * d2 <= GRID_CELLS_PER_OBSERVED * n,
# and sorts them to their cells otherwise.  Timing each layout's
# loss and gradient products on one core at d = 400 and 1000, the grid
# kernels win above an observed-cell density m / (d1 d2) of about 0.25-0.4
# at k = 3, 0.2-0.3 at k = 7 and 0.15-0.25 at k = 32.
GRID_CELLS_PER_OBSERVED = 4


# Nothing in the package raises this; bench/workloads.py still catches it.
class DivergenceError(RuntimeError):
    """Objective became non-finite (step size too large for the instance)."""


@dataclass(frozen=True)
class SolverConfig:
    k: int
    tau: float = DEFAULT_TAU
    max_iters: int = DEFAULT_MAX_ITERS
    tol: float = DEFAULT_TOL
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError(f"factor width k must be >= 1, got {self.k}")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValidationError(f"tau must be positive, got {self.tau}")
        if self.max_iters < 1:
            raise ValidationError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValidationError(f"tol must be positive, got {self.tol}")


@dataclass(frozen=True)
class SolveResult:
    """A fit's factors, objective per iteration and feasibility checks.

    The completion is kept as its factors.  `completed` multiplies them
    out on every read, so a caller that needs it more than once binds it.
    """

    factorization: Factorization
    objective_trace: tuple
    iterations_run: int
    feasible_rows: bool
    feasible_linf: bool

    @property
    def completed(self) -> np.ndarray:
        """A new d1 x d2 array U @ V.T, owned by the caller; nothing is cached."""
        return self.factorization.product()


def default_factor_width(d1: int, d2: int) -> int:
    """A fixed cap on the factor width: min(d1, d2, 32)."""
    return min(d1, d2, 32)


def empirical_loss_and_grad(F: Factorization, obs: ObservationSet):
    """Empirical quadratic loss and its gradient w.r.t. the product matrix.

    loss = (1/n) sum_t (y_t - (U V^T)_{i_t j_t})^2.  The gradient is a dense
    d1 x d2 array, nonzero only at observed cells; repeated draws of a cell
    accumulate with multiplicity.  This is the dense reference: the solver
    computes the same loss and gradient products from the collapsed draws and
    never builds this array.
    """
    if (F.d1, F.d2) != (obs.d1, obs.d2):
        raise ValidationError(
            f"factorization shape ({F.d1}, {F.d2}) does not match "
            f"observations ({obs.d1}, {obs.d2})"
        )
    rows, cols = obs.indices[:, 0], obs.indices[:, 1]
    resid = np.einsum("ij,ij->i", F.U[rows], F.V[cols]) - obs.values
    loss = float(resid @ resid) / obs.n
    grad = np.bincount(rows * obs.d2 + cols, weights=(2.0 / obs.n) * resid,
                       minlength=obs.d1 * obs.d2).reshape(obs.d1, obs.d2)
    return loss, grad


class _Cells(NamedTuple):
    """Observations collapsed onto their unique cells, in row-major order.

    A row's cells are contiguous, so a row factor at every cell is
    np.repeat(u[row_ids], row_counts): no per-cell row index is kept.
    `blocks` cuts them for the cell kernels (see _cell_blocks).
    """

    cols: np.ndarray  # int64: the column of each cell
    row_ids: np.ndarray  # int64: the observed rows, ascending
    row_starts: np.ndarray  # int64: index of each observed row's first cell
    row_counts: np.ndarray  # int64: cells in each observed row
    counts: np.ndarray  # float64: draws of the cell
    means: np.ndarray  # float64: mean observed value of the cell
    ss_within: float  # sum over all draws of (y_t - mean of its cell)^2
    n: int  # total draws
    d2: int  # columns of the grid
    blocks: tuple  # (first row, end row, first cell, end cell) per block


def _dedupe_observations(obs: ObservationSet) -> _Cells:
    """Unique observed cells with their draw counts and mean values.

    With r = prediction - mean at each cell, the empirical loss is exactly
    (sum counts * r^2 + ss_within) / n.  fit_pgd takes these cells when
    d1 * d2 > GRID_CELLS_PER_OBSERVED * n (see _fit_layout), where they are
    always sorted; PartialMatrix.from_observations takes them for any n.

    Every cell's sum adds its values in draw order, starting from 0.0, and
    ss_within sums the deviations in draw order, whichever way the cells
    are found:

    - when the grid has at most n cells, by counting: _grid_arrays streams
      the draws' flat cell indices row * d2 + col and accumulates every
      cell's count and mean, the arrays a grid fit keeps as they are.  The
      observed cells are the nonzero counts, already in row-major order.
      It holds two grid-length arrays and two buffers of DRAW_CHUNK draws,
      no n-length array.
    - otherwise by sorting: an in-place sort of the packed int64 key
      cell * n + draw, or, where d1 * d2 * n would overflow it, a stable
      sort by (row, column).  A bincount over each draw's cell number then
      sums the values in draw order.  It holds about three n-length arrays.

    Unlike fit_pgd, the dedupe counts only when d1 * d2 <= n: it keeps no
    grid arrays afterwards, so it gains nothing from building them.
    """
    grid = int(obs.d1) * int(obs.d2)
    # Overflows: the means' are reported here, ss_within's by fit_pgd.
    with np.errstate(over="ignore"):
        if grid <= obs.n:
            return _count_cells(obs, *_grid_arrays(obs, grid))
        return _sort_cells(obs, grid)


def _cells(obs: ObservationSet, cell_rows, cols, counts, means, ss_within) -> _Cells:
    """_Cells from each observed cell's row and column, in row-major order,
    and its count and mean."""
    row_starts = np.flatnonzero(np.diff(cell_rows, prepend=-1))
    return _Cells(cols=cols, row_ids=cell_rows[row_starts], row_starts=row_starts,
                  row_counts=np.diff(row_starts, append=cols.size), counts=counts,
                  means=means, ss_within=ss_within, n=obs.n, d2=obs.d2,
                  blocks=_cell_blocks(row_starts, cols.size))


def _count_cells(obs: ObservationSet, counts, means, ss_within) -> _Cells:
    """_dedupe_observations' cells from _grid_arrays, compacted to the observed cells."""
    cols = np.flatnonzero(counts)
    counts = counts[cols]
    means = means[cols]
    cell_rows = np.empty_like(cols)
    np.divmod(cols, obs.d2, out=(cell_rows, cols))
    return _cells(obs, cell_rows, cols, counts, means, ss_within)


def _grid_arrays(obs: ObservationSet, grid: int):
    """Every cell's draw count and mean value (0 where no draw fell), as two
    flat float64 grid-length arrays in row-major order, and ss_within.

    The draws are streamed sampling.DRAW_CHUNK at a time: each chunk's flat
    cell indices row * d2 + col go into one reused buffer, and np.add.at
    adds the chunk into the counts and the sums, in draw order from 0.0 as
    np.bincount does.  Beside the two grid-length arrays it returns, it
    holds that buffer and _within_cell_ss' deviation buffer, no n-length
    array.
    """
    counts, means = np.zeros(grid), np.zeros(grid)
    key = np.empty(min(sampling.DRAW_CHUNK, obs.n), dtype=np.int64)

    def cells_at(s):
        k = key[:s.stop - s.start]
        np.multiply(obs.indices[s, 0], obs.d2, out=k)
        k += obs.indices[s, 1]
        return k

    for s in _draw_slices(obs.n):
        k = cells_at(s)
        np.add.at(counts, k, 1.0)
        np.add.at(means, k, obs.values[s])
    np.divide(means, counts, out=means, where=counts > 0)
    _check_means(means)
    return counts, means, _within_cell_ss(obs.values, means, cells_at)


def _sort_cells(obs: ObservationSet, grid: int) -> _Cells:
    """_dedupe_observations' cells from one sort of the draws, for grid > n."""
    n = obs.n
    rows, cols = obs.indices.T
    new = np.empty(n, dtype=bool)  # new[s]: the draw at sorted position s starts a cell
    new[0] = True
    if grid * n < 2 ** 63:
        key = rows * obs.d2
        key += cols
        key *= n
        key += np.arange(n)
        key.sort()
        draws = np.empty(n, dtype=np.int64)
        np.divmod(key, n, out=(key, draws))  # key now holds the sorted cells
        np.not_equal(key[1:], key[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        cell_cols = key[starts]
        cell_rows = np.empty_like(cell_cols)
        np.divmod(cell_cols, obs.d2, out=(cell_rows, cell_cols))
        ids = key  # reused: the sorted cells are read
        del key
    else:
        draws = np.lexsort((cols, rows))
        r, c = rows[draws], cols[draws]
        np.not_equal(r[1:], r[:-1], out=new[1:])
        new[1:] |= c[1:] != c[:-1]
        del r, c
        starts = np.flatnonzero(new)
        first = draws[starts]
        cell_rows, cell_cols = rows[first], cols[first]
        del first
        ids = np.empty(n, dtype=np.int64)
    # ids[s]: the cell of the draw at sorted position s, numbered 0..m-1.
    # Cast first: a cumsum of the bools into int64 would cast them into a temporary.
    ids[:] = new
    del new
    ids[0] = 0
    np.cumsum(ids, out=ids)
    counts = np.empty(starts.size)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1] = n - starts[-1]
    del starts
    inverse = np.empty(n, dtype=np.int64)  # the cell of each draw, in draw order
    inverse[draws] = ids
    del ids, draws
    means = np.bincount(inverse, weights=obs.values)
    means /= counts
    _check_means(means)
    return _cells(obs, cell_rows, cell_cols, counts, means,
                  _within_cell_ss(obs.values, means, inverse.__getitem__))


def _check_means(means):
    if not np.isfinite(means).all():
        raise ValidationError("the mean of an observed cell is not finite; "
                              "the observed values are too large in magnitude")


def _draw_slices(n: int):
    """Slices of sampling.DRAW_CHUNK draws, in order, covering draws 0 .. n - 1."""
    step = sampling.DRAW_CHUNK
    return (slice(t, min(t + step, n)) for t in range(0, n, step))


def _within_cell_ss(values, means, cells_at):
    """sum_t (values[t] - means[cell of t])^2, where cells_at(s) gives the
    cells of the draws in the slice s.

    The deviations are taken a chunk of draws at a time in one reused
    buffer; each chunk is reduced by _dot and the chunks are summed in draw
    order.  einsum reduces a long vector in blocks of its buffer size, 8192
    elements, so at DRAW_CHUNK = 8192 these are the bits of one _dot over
    all n deviations.
    """
    buf = np.empty(min(sampling.DRAW_CHUNK, values.size))
    ss = 0.0
    for s in _draw_slices(values.size):
        # "clip" writes straight into the buffer, where "raise" would stage
        # the gather in a temporary; every cell is in range.
        dev = np.take(means, cells_at(s), out=buf[:s.stop - s.start], mode="clip")
        np.subtract(values[s], dev, out=dev)
        ss += _dot(dev, dev)
    return ss


def _cell_blocks(row_starts, m: int) -> tuple:
    """m cells, whose rows start at row_starts, cut into blocks of at most
    sampling.DRAW_CHUNK cells that end at row boundaries, as (first row,
    end row, first cell, end cell) per block, rows indexing row_starts.  A
    row longer than a block is a block of its own."""
    ends = np.append(row_starts, m)
    blocks, lo = [], 0
    while lo < row_starts.size:
        hi = int(ends.searchsorted(ends[lo] + sampling.DRAW_CHUNK, side="right")) - 1
        hi = max(hi, lo + 1)
        blocks.append((lo, hi, int(ends[lo]), int(ends[hi])))
        lo = hi
    return tuple(blocks)


def _cell_loss(cells: _Cells, U, V):
    """Empirical loss, the gradient weights w = (2/n) * count * r at each cell,
    and G @ V for the gradient G equal to w at the cells, 0 elsewhere.

    One pass over the cells' blocks (see _cell_blocks).  Each block gathers
    V's columns at its cells into one k x b buffer reused by every block,
    repeats U's rows, and writes its residuals r and count * r into two
    m-arrays; the gathered columns, scaled by the block's weights, give its
    rows of G @ V as segment sums.  No k x m array exists: a call holds
    O(m + d k) plus one block.  The loss is one sum over the m-arrays, and
    each row's sum lies in one block, so the bits are those of one pass
    over all the cells.
    """
    m, k = cells.cols.size, U.shape[1]
    size = max(c1 - c0 for _, _, c0, c1 in cells.blocks)
    buf, wb = np.empty(k * size), np.empty(size)
    # take would copy a strided V.T to contiguous at every block.
    Ur, Vt = U[cells.row_ids].T, np.ascontiguousarray(V.T)
    r, cr = np.empty(m), np.empty(m)
    GVt = np.empty((k, cells.row_ids.size))  # G @ V at the observed rows, transposed
    scale = 2.0 / cells.n
    for lo, hi, c0, c1 in cells.blocks:
        b, row_counts = c1 - c0, cells.row_counts[lo:hi]
        # "clip" writes straight into the buffer; every column is in range.
        Vb = np.take(Vt, cells.cols[c0:c1], axis=1, out=buf[:k * b].reshape(k, b), mode="clip")
        rb = np.multiply(np.repeat(Ur[0, lo:hi], row_counts), Vb[0], out=r[c0:c1])
        rb -= cells.means[c0:c1]  # p_0 - mean: the same bits as -mean + p_0
        for u, v in zip(Ur[1:, lo:hi], Vb[1:]):
            rb += _repeat_times(u, row_counts, v)
        crb = np.multiply(cells.counts[c0:c1], rb, out=cr[c0:c1])
        Vb *= np.multiply(crb, scale, out=wb[:b])
        np.add.reduceat(Vb, cells.row_starts[lo:hi] - c0, axis=1, out=GVt[:, lo:hi])
    loss = (_dot(cr, r) + cells.ss_within) / cells.n
    cr *= scale
    GV = np.zeros_like(U)
    GV[cells.row_ids] = GVt.T
    return loss, cr, GV


def _cell_grad_products(cells: _Cells, w, U, GV):
    """G @ V and G.T @ U for the gradient G equal to w at the cells, 0 elsewhere.

    G @ V comes from _cell_loss as it is.  G.T @ U bins U's repeated columns
    over the unsorted cell columns, one bincount per column over all the
    cells, which is cheaper than sorting the cells by column once more per
    fit.
    """
    GtU = np.column_stack([np.bincount(cells.cols, weights=_repeat_times(u, cells.row_counts, w),
                                       minlength=cells.d2) for u in U[cells.row_ids].T])
    return GV, GtU


def _repeat_times(u, row_counts, x):
    """x times u's entry for each cell's row: one fresh array, multiplied in place."""
    p = np.repeat(u, row_counts)
    p *= x
    return p


class _Grid(NamedTuple):
    """The draws on the whole d1 x d2 grid, with the two buffers a trial fills."""

    counts: np.ndarray  # float64 d1 x d2: draws of each cell
    means: np.ndarray  # float64 d1 x d2: mean observed value of each cell, 0 where no draw fell
    ss_within: float  # sum over all draws of (y_t - mean of its cell)^2
    n: int  # total draws
    P: np.ndarray  # d1 x d2 buffer: the trial's U @ V.T - means
    G: np.ndarray  # d1 x d2 buffer: counts * P


def _fit_layout(obs: ObservationSet):
    """The draws in the layout fit_pgd iterates on, with that layout's loss
    and gradient-product kernels: the grid (_Grid) when
    d1 * d2 <= GRID_CELLS_PER_OBSERVED * m for m observed cells, else the
    cells (_Cells).

    Since m <= n, the grid can only be kept when d1 * d2 <= 4 n.  Past that
    the draws are sorted to their cells by _dedupe_observations, and those
    cells are sparse.  Otherwise they are counted onto the grid by
    _grid_arrays, and the counts are kept as they are or, when fewer than a
    quarter of the cells are observed, compacted to the cells by
    _count_cells.  Counting and sorting give every cell mean and ss_within
    the same bits.  Counted, the layout holds no n-length array: two
    grid-length arrays, at most 64 n bytes, and two buffers of DRAW_CHUNK
    draws, then the grid's two buffers P and G if it is kept.
    """
    grid = int(obs.d1) * int(obs.d2)
    if grid > GRID_CELLS_PER_OBSERVED * obs.n:
        return _dedupe_observations(obs), _cell_loss, _cell_grad_products
    counts, means, ss_within = _grid_arrays(obs, grid)
    if grid > GRID_CELLS_PER_OBSERVED * np.count_nonzero(counts):
        return _count_cells(obs, counts, means, ss_within), _cell_loss, _cell_grad_products
    shape = (obs.d1, obs.d2)
    return (_Grid(counts=counts.reshape(shape), means=means.reshape(shape), ss_within=ss_within,
                  n=obs.n, P=np.empty(shape), G=np.empty(shape)),
            _grid_loss, _grid_grad_products)


# The grid kernels call einsum without `optimize`: `@`, np.dot and an
# optimized einsum go to BLAS, whose rounding depends on its thread count.
# einsum reads the factors transposed, k x d, contiguous: with strided
# factors it runs about 3x slower.

def _grid_loss(grid: _Grid, U, V):
    """Empirical loss at (U, V), G = counts * (U @ V.T - means) and V.T.

    The grid's twin of _cell_loss, with G in place of the weights (the
    gradient is (2/n) G) and V.T, contiguous, in place of V's gathered
    columns.  P and G are the grid's buffers, overwritten by every call.
    """
    Vt = np.ascontiguousarray(V.T)
    P = np.einsum("ki,kj->ij", np.ascontiguousarray(U.T), Vt, out=grid.P)
    P -= grid.means
    G = np.multiply(grid.counts, P, out=grid.G)
    loss = (_dot(G.ravel(), P.ravel()) + grid.ss_within) / grid.n
    return loss, G, Vt


def _grid_grad_products(grid: _Grid, G, U, Vt):
    """G @ V and G.T @ U for the gradient (2/n) G, from _grid_loss's G and V.T."""
    scale = 2.0 / grid.n
    GV = np.einsum("ij,kj->ki", G, Vt).T
    GV *= scale
    GtU = np.einsum("ij,ki->kj", G, np.ascontiguousarray(U.T)).T
    GtU *= scale
    return GV, GtU


def project_factor_rows(U, radius: float) -> np.ndarray:
    """Rescale every row whose squared l2 norm exceeds `radius` to exactly radius.

    This is the row-wise Euclidean projection onto {u : |u|_2^2 <= radius}.
    """
    if not radius > 0:
        raise ValidationError(f"radius must be positive, got {radius}")
    return _project_rows_inplace(check_matrix(U, "factor").copy(), radius)


def _project_rows_inplace(A, radius):
    # Non-finite rows pass through untouched; fit_pgd rejects the step by its loss.
    sq = np.einsum("ij,ij->i", A, A)
    over = sq > radius
    if over.any():
        A[over] *= np.sqrt(radius / sq[over])[:, None]
    return A


def linf_rescale(F: Factorization, alpha: float) -> Factorization:
    """Shrink both factors so the product's elementwise max is exactly alpha.

    A no-op when the product already satisfies the bound (including the
    all-zero product).  Both factors get the same scalar factor, so the
    product scales by alpha / current_max.
    """
    if not alpha > 0:
        raise ValidationError(f"alpha must be positive, got {alpha}")
    U, V = _linf_rescale_arrays(F.U, F.V, alpha)
    if U is F.U:
        return F
    return Factorization(U=U, V=V)


def _max_abs_product(U, V) -> float:
    """max |U @ V.T|, exactly, scanning only the rows of U that can attain it.

    Rows of U are taken in decreasing norm, in blocks that start at one row
    and double up to about PRODUCT_BLOCK_CELLS cells.  The scan stops when
    the next row's bound |u_i| max_j |v_j| cannot exceed the running max.
    NaN propagates as it does through np.abs(U @ V.T).max().
    """
    d1, k = U.shape
    a, b = _row_norms_in_range(U), _row_norms_in_range(V)
    if a is None or b is None:
        order, bound = np.arange(d1), None  # full scan
    else:
        order = np.argsort(-a, kind="stable")
        # Slack: each computed row norm can fall short of the true one by
        # about (k/2 + 1) eps, the two products forming the bound round
        # once each, and a BLAS dot product of length k can exceed
        # |u| |v| by k eps in any summation order, with or without FMA.
        # That is (2k + 4) eps to first order.  Twice that also covers the
        # higher orders and the subnormal terms, each of which errs by at
        # most 2^-75 of a nonzero bound within _row_norms_in_range's range.
        bound = a[order] * (b.max() * (1 + 4 * (k + 2) * np.finfo(np.float64).eps))
    cap = max(1, PRODUCT_BLOCK_CELLS // V.shape[0])
    # One buffer for every block: blocks of changing size, each freshly
    # allocated, fault in new pages on every call.
    buf = np.empty((min(cap, d1), V.shape[0]))
    m = 0.0
    i, step = 0, 1
    while i < d1 and (bound is None or bound[i] > m):
        rows = order[i:i + step]
        blk = np.matmul(U[rows], V.T, out=buf[:rows.size])
        m = np.max((m, blk.max(), -blk.min()))
        i, step = i + step, min(2 * step, cap)
    return float(m)


def _row_norms_in_range(A):
    """Euclidean row norms of A, or None unless every row is zero or has its
    largest magnitude in [2^-500, 2^500].

    In that range no squared norm, norm product or dot product of two rows
    overflows, and no squared norm underflows, so the pruning bound holds.
    Non-finite rows fall outside it.
    """
    amax = np.abs(A).max(axis=1)
    if not np.all((amax == 0) | ((amax >= 2.0 ** -500) & (amax <= 2.0 ** 500))):
        return None
    return np.sqrt(np.einsum("ij,ij->i", A, A))


def _linf_rescale_arrays(U, V, alpha):
    m = _max_abs_product(U, V)
    if m <= alpha:
        return U, V
    s = np.sqrt(alpha) / np.sqrt(m)
    return U * s, V * s


def init_factors(d1: int, d2: int, k: int, constraints: ConstraintSet,
                 seed: int) -> Factorization:
    """Seeded random start: i.i.d. normal entries with sd sqrt(sqrt(R)/k),
    then one rescale/projection pass so the start is feasible."""
    rng = _rng.stream_rng(seed, _rng.INIT)
    sd = np.sqrt(np.sqrt(constraints.radius) / k)
    U = rng.normal(scale=sd, size=(d1, k))
    V = rng.normal(scale=sd, size=(d2, k))
    U, V = _linf_rescale_arrays(U, V, constraints.alpha)
    # U and V are fresh, finite draws, so they are projected in place.
    return Factorization(U=_project_rows_inplace(U, constraints.radius),
                         V=_project_rows_inplace(V, constraints.radius))


def fit_pgd(obs: ObservationSet, constraints: ConstraintSet, cfg: SolverConfig) -> SolveResult:
    """Projected gradient descent on the factor pair.

    Each iteration: simultaneous step (U - tau*G@V, V - tau*G.T@U) from the
    pre-step factors, global elementwise rescale, then row projection of both
    factors.  The step is halved (at most MAX_HALVINGS times) whenever the
    objective would increase or turn non-finite; if no step helps, the
    iterate is kept and the solve stops.  The accepted trial's gradient
    weights and its part of the products (G @ V on the cells, V.T on the
    grid) give the next gradient products.

    The layout is chosen once, by the density of the m distinct observed
    cells (see the module docstring and _fit_layout).  When
    d1 * d2 > GRID_CELLS_PER_OBSERVED * m, the cells: an iteration takes
    O((m + d1 + d2) k) time and holds O(m + (d1 + d2) k) memory plus one
    block of V's columns gathered at up to sampling.DRAW_CHUNK cells.
    Otherwise the grid: an iteration takes O(d1 d2 k) time and holds four
    d1 x d2 arrays, at most 128 m bytes.  Beside the draws, a fit holds no
    n-length array when d1 * d2 <= GRID_CELLS_PER_OBSERVED * n: the draws
    are counted onto the grid through two buffers of sampling.DRAW_CHUNK
    draws.  Past that they are sorted, which holds about three n-length
    arrays while the cells are built.

    Raises ValidationError when the loss at the start is not finite, as when
    the observed values are so large that their squares overflow.
    """
    if cfg.k > obs.d1 + obs.d2:
        raise ValidationError(f"k={cfg.k} exceeds d1 + d2 = {obs.d1 + obs.d2}")
    alpha, radius = constraints.alpha, constraints.radius
    F0 = init_factors(obs.d1, obs.d2, cfg.k, constraints, cfg.seed)
    U, V = F0.U, F0.V
    iterations = 0
    with np.errstate(over="ignore", invalid="ignore"):
        draws, loss_at, grad_products = _fit_layout(obs)
        # part: G @ V from the cell kernels, V.T from the grid's.
        loss, w, part = loss_at(draws, U, V)
        if not np.isfinite(loss):
            raise ValidationError("the empirical loss at the start is not finite; "
                                  "the observed values are too large in magnitude")
        trace = [loss]
        for it in range(1, cfg.max_iters + 1):
            GV, GtU = grad_products(draws, w, U, part)
            # Dropped before each trial, so one trial's weights are alive.
            del w, part
            tau = cfg.tau
            for _ in range(MAX_HALVINGS + 1):
                Un = U - tau * GV
                Vn = V - tau * GtU
                Un, Vn = _linf_rescale_arrays(Un, Vn, alpha)
                Un = _project_rows_inplace(Un, radius)
                Vn = _project_rows_inplace(Vn, radius)
                new_loss, w, part = loss_at(draws, Un, Vn)
                # False for NaN and inf, so every accepted loss is finite.
                if new_loss <= loss * (1 + 1e-12):
                    break
                del w, part
                tau *= 0.5
            else:
                break  # no admissible step; current iterate is the answer
            U, V = Un, Vn
            prev, loss = loss, new_loss
            trace.append(loss)
            iterations = it
            if abs(loss - prev) <= cfg.tol * max(prev, 1e-12):
                break
    w = part = None  # the last trial's weights, unread after the loop
    F = Factorization(U=U, V=V)
    max_sq = max((F.U * F.U).sum(axis=1).max(), (F.V * F.V).sum(axis=1).max())
    return SolveResult(
        factorization=F,
        objective_trace=tuple(trace),
        iterations_run=iterations,
        feasible_rows=bool(max_sq <= radius + FEASIBILITY_SLACK),
        feasible_linf=bool(_max_abs_product(F.U, F.V) <= alpha + FEASIBILITY_SLACK),
    )
