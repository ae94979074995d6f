"""Factored projected gradient descent for max-norm constrained least squares.

The estimator minimizes the empirical quadratic loss over matrices with
elementwise max <= alpha and factor row norms^2 <= radius, working on the
factor pair (U, V) directly.  fit_pgd is the factored projected-gradient
method of Lee, Recht, Salakhutdinov, Srebro & Tropp (NeurIPS 2010): a
simultaneous gradient step on both factors, then a global rescale restoring
the elementwise bound, then row-wise Euclidean projection onto the radius
ball.

It first collapses the observations onto their m unique cells (draw count,
mean value and within-cell sum of squares), which keeps the loss exact
while every pass touches each observed cell once.  No d1 x d2 array is
built while solving: a PGD iteration gathers the prediction at the observed
cells, forms the gradient products G @ V and G.T @ U as per-column segment
sums, and takes the elementwise max of U @ V.T exactly by scanning the rows
of U in decreasing norm and stopping once the Cauchy-Schwarz bound
|u_i . v_j| <= |u_i| max_j |v_j| of the next row cannot beat the running
max.  Usually a small share of the rows is scanned; in the worst case
(every row of U at the same norm, as when all sit on the radius) it covers all
d1 rows, d1 d2 k flops plus an O(d1 log d1) sort.  Otherwise an iteration's
time and memory are O((m + d1 + d2) k); the max holds at most one block of
LINF_BLOCK_CELLS cells.
SolveResult.completed builds the dense product only when it is read.

The fit is deterministic given (observations, constraints, config).
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _rng
from .core import ConstraintSet, Factorization, ValidationError, check_matrix
from .sampling import ObservationSet

DEFAULT_TAU = 0.1
DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITERS = 5000
MAX_HALVINGS = 20

# Slack for the constraint checks reported on returned iterates.
FEASIBILITY_SLACK = 1e-9

# Cells per row block of U @ V.T when taking its elementwise max.
LINF_BLOCK_CELLS = 1 << 20


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
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise ValidationError(f"tau must be positive, got {self.tau}")
        if self.max_iters < 1:
            raise ValidationError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValidationError(f"tol must be positive, got {self.tol}")


@dataclass(frozen=True)
class SolveResult:
    factorization: Factorization
    objective_trace: tuple
    iterations_run: int
    feasible_rows: bool
    feasible_linf: bool

    @cached_property
    def completed(self) -> np.ndarray:
        """The completed matrix U @ V.T, built on first access and read-only."""
        M = self.factorization.product()
        M.flags.writeable = False
        return M


def default_factor_width(d1: int, d2: int) -> int:
    """A fixed cap on the factor width: min(d1, d2, 32)."""
    return min(d1, d2, 32)


def empirical_loss_and_grad(F: Factorization, obs: ObservationSet):
    """Empirical quadratic loss and its gradient w.r.t. the product matrix.

    loss = (1/n) sum_t (y_t - (U V^T)_{i_t j_t})^2.  The gradient is a dense
    d1 x d2 array, nonzero only at observed cells; repeated draws of a cell
    accumulate with multiplicity.  This is the dense reference: the solver
    computes the same loss and gradient products cell by cell and never builds
    this array.
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
    """Observations collapsed onto their unique cells, in row-major order."""

    rows: np.ndarray  # int64
    cols: np.ndarray  # int64
    row_starts: np.ndarray  # int64: index of each observed row's first cell
    counts: np.ndarray  # float64: draws of the cell
    means: np.ndarray  # float64: mean observed value of the cell
    ss_within: float  # sum over all draws of (y_t - mean of its cell)^2
    n: int  # total draws


def _dedupe_observations(obs: ObservationSet) -> _Cells:
    """Unique observed cells with their draw counts and mean values.

    With r = prediction - mean at each cell, the empirical loss is exactly
    (sum counts * r^2 + ss_within) / n.
    """
    flat = obs.indices[:, 0] * obs.d2 + obs.indices[:, 1]
    uniq, inverse, counts = np.unique(flat, return_inverse=True, return_counts=True)
    # Overflows: the means' are reported here, ss_within's by fit_pgd.
    with np.errstate(over="ignore"):
        means = np.bincount(inverse, weights=obs.values) / counts
        if not np.isfinite(means).all():
            raise ValidationError("the mean of an observed cell is not finite; "
                                  "the observed values are too large in magnitude")
        dev = obs.values - means[inverse]
        ss_within = float(dev @ dev)
    rows, cols = np.divmod(uniq, obs.d2)
    row_starts = np.flatnonzero(np.diff(rows, prepend=-1))
    return _Cells(rows=rows, cols=cols, row_starts=row_starts,
                  counts=counts.astype(np.float64), means=means,
                  ss_within=ss_within, n=obs.n)


def _cell_loss(cells: _Cells, U, V):
    """Empirical loss and the gradient weights (2/n) * count * r at each cell.

    The prediction is gathered one factor column at a time.
    """
    r = -cells.means
    for u, v in zip(U.T.copy(), V.T.copy()):
        r += u[cells.rows] * v[cells.cols]
    cr = cells.counts * r
    loss = (float(cr @ r) + cells.ss_within) / cells.n
    return loss, (2.0 / cells.n) * cr


def _cell_grad_products(cells: _Cells, w, U, V):
    """G @ V and G.T @ U for the gradient G equal to w at the cells, 0 elsewhere.

    G @ V sums each observed row's contiguous segment of cells; rows with no
    cell stay 0.  G.T @ U bins over the unsorted columns, which is cheaper
    than sorting the cells by column once more per fit.
    """
    GV = np.zeros_like(U)
    GV[cells.rows[cells.row_starts]] = np.column_stack(
        [np.add.reduceat(w * np.take(v, cells.cols), cells.row_starts) for v in V.T.copy()])
    GtU = np.column_stack([np.bincount(cells.cols, weights=w * u[cells.rows],
                                       minlength=V.shape[0]) for u in U.T.copy()])
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
    and double up to about LINF_BLOCK_CELLS cells.  The scan stops when the
    next row's bound |u_i| max_j |v_j| cannot exceed the running max.  NaN
    propagates as it does through np.abs(U @ V.T).max().
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
    cap = max(1, LINF_BLOCK_CELLS // V.shape[0])
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
    U = project_factor_rows(U, constraints.radius)
    V = project_factor_rows(V, constraints.radius)
    return Factorization(U=U, V=V)


def fit_pgd(obs: ObservationSet, constraints: ConstraintSet, cfg: SolverConfig) -> SolveResult:
    """Projected gradient descent on the factor pair.

    Each iteration: simultaneous step (U - tau*G@V, V - tau*G.T@U) from the
    pre-step factors, global elementwise rescale, then row projection of both
    factors.  The step is halved (at most MAX_HALVINGS times) whenever the
    objective would increase or turn non-finite; if no step helps, the
    iterate is kept and the solve stops.  The accepted trial's cell residuals
    give the next gradient.

    Raises ValidationError when the loss at the start is not finite, as when
    the observed values are so large that their squares overflow.
    """
    if cfg.k > obs.d1 + obs.d2:
        raise ValidationError(f"k={cfg.k} exceeds d1 + d2 = {obs.d1 + obs.d2}")
    alpha, radius = constraints.alpha, constraints.radius
    cells = _dedupe_observations(obs)
    F0 = init_factors(obs.d1, obs.d2, cfg.k, constraints, cfg.seed)
    U, V = F0.U, F0.V
    iterations = 0
    with np.errstate(over="ignore", invalid="ignore"):
        loss, w = _cell_loss(cells, U, V)
        if not np.isfinite(loss):
            raise ValidationError("the empirical loss at the start is not finite; "
                                  "the observed values are too large in magnitude")
        trace = [loss]
        for it in range(1, cfg.max_iters + 1):
            GV, GtU = _cell_grad_products(cells, w, U, V)
            tau = cfg.tau
            accepted = None
            for _ in range(MAX_HALVINGS + 1):
                Un = U - tau * GV
                Vn = V - tau * GtU
                Un, Vn = _linf_rescale_arrays(Un, Vn, alpha)
                Un = _project_rows_inplace(Un, radius)
                Vn = _project_rows_inplace(Vn, radius)
                new_loss, new_w = _cell_loss(cells, Un, Vn)
                # False for NaN and inf, so every accepted loss is finite.
                if new_loss <= loss * (1 + 1e-12):
                    accepted = (Un, Vn, new_loss, new_w)
                    break
                tau *= 0.5
            if accepted is None:
                break  # no admissible step; current iterate is the answer
            U, V, new_loss, w = accepted
            prev, loss = loss, new_loss
            trace.append(loss)
            iterations = it
            if abs(loss - prev) <= cfg.tol * max(prev, 1e-12):
                break
    F = Factorization(U=U, V=V)
    max_sq = max((F.U * F.U).sum(axis=1).max(), (F.V * F.V).sum(axis=1).max())
    return SolveResult(
        factorization=F,
        objective_trace=tuple(trace),
        iterations_run=iterations,
        feasible_rows=bool(max_sq <= radius + FEASIBILITY_SLACK),
        feasible_linf=bool(_max_abs_product(F.U, F.V) <= alpha + FEASIBILITY_SLACK),
    )
