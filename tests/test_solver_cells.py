"""The cell and grid PGD kernels against the dense and per-column references, and their memory."""

import tracemalloc
import weakref
from collections import defaultdict
from contextlib import ExitStack
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from maxnorm_completion import (
    ConstraintSet,
    Factorization,
    ObservationSet,
    SolverConfig,
    core,
    fit_pgd,
    sampling,
    solver,
)
from maxnorm_completion.model_select import PartialMatrix
from maxnorm_completion.solver import empirical_loss_and_grad, init_factors


def _duplicate_heavy_instance(seed, d1, d2, n, pool):
    """n draws from at most `pool` distinct cells, so most cells repeat."""
    rng = np.random.default_rng(seed)
    cells = np.column_stack([rng.integers(0, d1, pool), rng.integers(0, d2, pool)])
    idx = cells[rng.integers(0, pool, n)]
    return rng, ObservationSet(d1=d1, d2=d2, indices=idx, values=rng.normal(size=n))


def _abs_gradient(F, obs):
    """(2/n) sum_t (|U_i| . |V_j| + |y_t|) at each cell: the gradient's sums
    with every term made nonnegative, the scale of their rounding error."""
    rows, cols = obs.indices[:, 0], obs.indices[:, 1]
    terms = np.abs(F.U[rows] * F.V[cols]).sum(axis=1) + np.abs(obs.values)
    return np.bincount(rows * obs.d2 + cols, weights=(2.0 / obs.n) * terms,
                       minlength=obs.d1 * obs.d2).reshape(obs.d1, obs.d2)


def _assert_close(actual, expected, scale, rel=1e-12):
    """Each entry within `rel` of its own `scale`, the sum of its terms'
    magnitudes: a rounded sum that cancels is only accurate to that."""
    err = np.abs(actual - expected)
    assert (err <= rel * scale).all(), (err / scale).max()


shapes = dict(seed=st.integers(0, 2**32 - 1), d1=st.integers(1, 8), d2=st.integers(1, 8),
              n=st.integers(1, 80), pool=st.integers(1, 12))


def _assert_blocks_tile(cells, block):
    """The cells' blocks cover them in order, each ends at a row boundary,
    and each holds at most `block` cells unless it is a single row."""
    ends = np.append(cells.row_starts, cells.cols.size).tolist()
    starts = [(lo, c0) for lo, _, c0, _ in cells.blocks]
    assert starts[0] == (0, 0)
    assert [(hi, c1) for _, hi, _, c1 in cells.blocks] == starts[1:] + [(len(ends) - 1, ends[-1])]
    assert all(lo < hi and c0 == ends[lo] and c1 == ends[hi] for lo, hi, c0, c1 in cells.blocks)
    assert all(c1 - c0 <= block or hi == lo + 1 for lo, hi, c0, c1 in cells.blocks)


def _kernels(kind, obs):
    """The draws and the loss and gradient-product kernels fit_pgd runs for
    `kind`, whatever the density of the observed cells."""
    with patch.object(solver, "GRID_CELLS_PER_OBSERVED", np.inf if kind == "grid" else 0):
        draws, loss_at, grad_products = solver._fit_layout(obs)
    assert isinstance(draws, solver._Grid if kind == "grid" else solver._Cells)
    return draws, loss_at, grad_products


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["cells", "grid"]), k=st.integers(1, 4), **shapes)
# G @ V: terms of 0.03 cancel to -2.7e-6.
@example(kind="cells", seed=2375, d1=1, d2=3, n=58, pool=12, k=1)
# n >= d1 * d2 with cells never drawn, on one row, on one column, and with k > min(d1, d2).
@example(kind="grid", seed=2375, d1=1, d2=3, n=58, pool=2, k=1)
@example(kind="grid", seed=7, d1=1, d2=8, n=40, pool=3, k=4)
@example(kind="grid", seed=8, d1=6, d2=1, n=30, pool=2, k=3)
@example(kind="grid", seed=9, d1=3, d2=4, n=80, pool=5, k=4)
def test_cell_loss_and_gradient_products_match_dense_reference(kind, seed, d1, d2, n, pool, k):
    # Both kernels hold for any density; fit_pgd runs the grid's where d1 * d2 <= 4 m.
    rng, obs = _duplicate_heavy_instance(seed, d1, d2, n, pool)
    F = Factorization(U=rng.normal(size=(d1, k)), V=rng.normal(size=(d2, k)))
    loss, grad = empirical_loss_and_grad(F, obs)
    draws, loss_at, grad_products = _kernels(kind, obs)
    kernel_loss, w, Vc = loss_at(draws, F.U, F.V)
    GV, GtU = grad_products(draws, w, F.U, Vc)
    assert kernel_loss == pytest.approx(loss, rel=1e-12)
    G_abs = _abs_gradient(F, obs)
    _assert_close(GV, grad @ F.V, G_abs @ np.abs(F.V))
    _assert_close(GtU, grad.T @ F.U, G_abs.T @ np.abs(F.U))


def test_overflowing_grid_trial_is_rejected():
    # Cell means of 1e100: the first step of 1e300 times a gradient of about
    # 1e100 overflows, the rescale makes the factors NaN and the loss is not
    # finite.  Every halving overflows too, so fit_pgd keeps its start.
    d1, d2, k = 3, 4, 2
    rng = np.random.default_rng(4)
    idx = np.column_stack([rng.integers(0, d1, 20), rng.integers(0, 2, 20)])  # columns 2, 3 undrawn
    obs = ObservationSet(d1=d1, d2=d2, indices=idx, values=1e100 * (1 + rng.random(20)))
    constraints = ConstraintSet(alpha=1.0, radius=2.0)
    grid_loss, losses = solver._grid_loss, []

    def recorded(*args):
        out = grid_loss(*args)
        losses.append(out[0])
        return out

    with patch.object(solver, "_grid_loss", side_effect=recorded):
        result = fit_pgd(obs, constraints, SolverConfig(k=k, tau=1e300, max_iters=2, seed=0))
    start = init_factors(d1, d2, k, constraints, seed=0)
    assert np.isfinite(losses[0])
    assert len(losses) == 1 + solver.MAX_HALVINGS + 1
    assert not np.isfinite(losses[1:]).any()
    assert result.iterations_run == 0 and result.objective_trace == (losses[0],)
    assert np.array_equal(result.factorization.U, start.U)
    assert np.array_equal(result.factorization.V, start.V)


def _per_column_gather_reference(obs, cells, U, V):
    """Loss, weights and gradient products with both factors gathered at the
    cells one column at a time, each column twice, over all the cells at
    once: the formulas the kernels replaced, kept as the reference for their
    bits.  The counts, means and ss_within are those of `cells`."""
    keys = sorted(set(map(tuple, obs.indices.tolist())))
    rows, cols = np.array(keys).T
    row_starts = np.flatnonzero(np.diff(rows, prepend=-1))
    r = -cells.means
    for u, v in zip(U.T.copy(), V.T.copy()):
        r += u[rows] * v[cols]
    cr = cells.counts * r
    loss = (core._dot(cr, r) + cells.ss_within) / cells.n
    w = (2.0 / cells.n) * cr
    GV = np.zeros_like(U)
    GV[rows[row_starts]] = np.column_stack(
        [np.add.reduceat(w * np.take(v, cols), row_starts) for v in V.T.copy()])
    GtU = np.column_stack([np.bincount(cols, weights=w * u[rows], minlength=V.shape[0])
                           for u in U.T.copy()])
    return loss, w, GV, GtU


@st.composite
def _draws(draw):
    """Duplicate-heavy draws on up to 6 rows of up to 300 columns: rows hold no
    cell, one cell, or more than the 128 at which numpy's pairwise sum splits."""
    return _duplicate_heavy_instance(draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 6)),
                                     draw(st.integers(1, 300)), draw(st.integers(1, 600)),
                                     draw(st.integers(1, 400)))[1]


_SPARSE_ROWS = ObservationSet(  # rows 0, 2 and 4 hold no cell, row 1 one; row 3 repeats a cell
    d1=5, d2=4, indices=np.array([[3, 3], [1, 2], [3, 0], [3, 3]]),
    values=np.array([0.5, -1.0, 2.0, 0.25]))
_LONG_ROW = ObservationSet(  # one row of 300 cells, drawn in reverse column order
    d1=2, d2=300, indices=np.column_stack([np.ones(300, dtype=np.int64), np.arange(300)[::-1]]),
    values=np.linspace(-1.0, 1.0, 300))


@settings(max_examples=200, deadline=None)
@given(obs=_draws(), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       block=st.sampled_from([1, 3, 64, sampling.DRAW_CHUNK]))
@example(obs=_SPARSE_ROWS, k=1, seed=0, block=sampling.DRAW_CHUNK)
@example(obs=_SPARSE_ROWS, k=2, seed=0, block=1)
@example(obs=_LONG_ROW, k=3, seed=1, block=sampling.DRAW_CHUNK)
@example(obs=_LONG_ROW, k=3, seed=1, block=64)  # one row longer than a block
def test_cell_kernels_equal_per_column_gather_reference_bit_for_bit(obs, k, seed, block):
    # The instances hold at most 1800 cells, so only the patched block sizes
    # cut them into several blocks, which end at many rows.
    rng = np.random.default_rng(seed)
    U, V = rng.normal(size=(obs.d1, k)), rng.normal(size=(obs.d2, k))
    with patch.object(sampling, "DRAW_CHUNK", block):
        cells, loss_at, grad_products = _kernels("cells", obs)
    _assert_blocks_tile(cells, block)
    loss, w, GV, GtU = _per_column_gather_reference(obs, cells, U, V)
    cell_loss, cell_w, cell_GV = loss_at(cells, U, V)
    got_GV, cell_GtU = grad_products(cells, cell_w, U, cell_GV)
    assert got_GV is cell_GV
    assert cell_loss.hex() == loss.hex()
    for got, want in ((cell_w, w), (cell_GV, GV), (cell_GtU, GtU)):
        assert got.shape == want.shape
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 4), **shapes)
def test_first_trace_entry_is_dense_loss_at_start(seed, d1, d2, n, pool, k):
    _, obs = _duplicate_heavy_instance(seed, d1, d2, n, pool)
    constraints = ConstraintSet(alpha=1.0, radius=2.0)
    k = min(k, d1 + d2)
    start = init_factors(d1, d2, k, constraints, seed=seed % 1000)
    expected, _ = empirical_loss_and_grad(start, obs)
    pgd = fit_pgd(obs, constraints, SolverConfig(k=k, max_iters=1, seed=seed % 1000))
    assert pgd.objective_trace[0] == pytest.approx(expected, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(block=st.sampled_from([1, 3, sampling.DRAW_CHUNK]), **shapes)
@example(seed=34194848, d1=1, d2=2, n=56, pool=1,  # the draws nearly cancel: mean 1.27e-6
         block=sampling.DRAW_CHUNK)
def test_dedupe_matches_per_cell_reference(seed, d1, d2, n, pool, block):
    _, obs = _duplicate_heavy_instance(seed, d1, d2, n, pool)
    draws = defaultdict(list)
    for (i, j), y in zip(obs.indices.tolist(), obs.values):
        draws[i, j].append(y)
    keys = sorted(draws)
    with patch.object(sampling, "DRAW_CHUNK", block):
        cells = solver._dedupe_observations(obs)
    _assert_blocks_tile(cells, block)
    row_ids, row_counts = np.unique([i for i, _ in keys], return_counts=True)
    assert cells.row_ids.tolist() == row_ids.tolist()
    assert cells.row_counts.tolist() == row_counts.tolist()
    assert cells.cols.tolist() == [j for _, j in keys]
    assert cells.counts.tolist() == [len(draws[c]) for c in keys]
    # A mean's rounding error scales with its cell's sum(|y|) / count, not with the mean.
    scale = np.array([np.abs(draws[c]).sum() / len(draws[c]) for c in keys])
    assert (np.abs(cells.means - [np.mean(draws[c]) for c in keys]) <= 1e-12 * scale).all()
    ss = sum(float(((np.array(v) - np.mean(v)) ** 2).sum()) for v in draws.values())
    assert cells.ss_within == pytest.approx(ss, rel=1e-12, abs=1e-12)
    assert cells.n == obs.n


def _draw_order_reference(obs, chunk):
    """Sorted cells, their counts and means, and ss_within, one draw at a time.

    Each cell's sum adds its values in draw order, starting from 0.0, and
    ss_within reduces each `chunk` of deviations with the solver's reduction
    and adds the chunks in draw order.  The deviations are returned too.
    """
    sums, counts = {}, {}
    draws = list(zip(map(tuple, obs.indices.tolist()), obs.values.tolist()))
    for cell, y in draws:
        sums[cell] = sums.get(cell, 0.0) + y
        counts[cell] = counts.get(cell, 0) + 1
    means = {cell: sums[cell] / counts[cell] for cell in sums}
    dev = np.array([y - means[cell] for cell, y in draws])
    ss = 0.0
    for t in range(0, dev.size, chunk):
        ss += core._dot(dev[t:t + chunk], dev[t:t + chunk])
    cells = sorted(sums)
    return cells, [counts[c] for c in cells], [means[c] for c in cells], ss, dev


@st.composite
def _repeated_draws(draw):
    """Up to 60 draws from at most 6 cells of a small grid or of a 2**32 x 2**32 one."""
    if draw(st.booleans()):
        d1 = d2 = 2 ** 32  # d1 * d2 * n overflows the packed sort key
    else:
        d1, d2 = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    pool = draw(st.lists(st.tuples(st.integers(0, d1 - 1), st.integers(0, d2 - 1)),
                         min_size=1, max_size=6))
    n = draw(st.integers(1, 60))
    idx = [draw(st.sampled_from(pool)) for _ in range(n)]
    values = draw(st.lists(st.floats(-1e100, 1e100), min_size=n, max_size=n))
    return ObservationSet(d1=d1, d2=d2, indices=np.array(idx), values=np.array(values))


_ORDER_MATTERS = ObservationSet(  # (1e16 + 1) - 1e16 is 0; (1e16 - 1e16) + 1 is 1
    d1=3, d2=3, indices=np.array([[2, 1], [0, 0], [2, 1], [2, 1], [0, 0], [1, 2]]),
    values=np.array([1e16, 0.5, 1.0, -1e16, 3.0, -2.0]))


# The same draws on either side of the switch from sorting to counting:
# the grid has n + 1 cells (sorted) or n (counted).  As in _ORDER_MATTERS,
# cell (1, 2) sums to 0 in draw order and to 1 in another.
_BELOW_THE_SWITCH, _AT_THE_SWITCH = (ObservationSet(
    d1=2, d2=3, indices=np.array([[1, 2], [0, 0], [1, 2], [1, 2], [0, 1], [1, 0]][:n]),
    values=np.array([1e16, 0.5, 1.0, -1e16, 3.0, -2.0][:n])) for n in (5, 6))


@settings(max_examples=200, deadline=None)
@given(obs=_repeated_draws())
@example(obs=_ORDER_MATTERS)
@example(obs=_BELOW_THE_SWITCH)
@example(obs=_AT_THE_SWITCH)
def test_dedupe_equals_draw_order_reference_bit_for_bit(obs):
    # Chunks of 4 draws: both the counted and the sorted draws cross chunk boundaries.
    chunk = 4
    cells_ref, counts_ref, means_ref, ss_ref, _ = _draw_order_reference(obs, chunk)
    with patch.object(solver, "_count_cells", wraps=solver._count_cells) as counted, \
            patch.object(solver, "_sort_cells", wraps=solver._sort_cells) as sorted_, \
            patch.object(sampling, "DRAW_CHUNK", chunk):
        cells = solver._dedupe_observations(obs)
    assert counted.call_count == (obs.d1 * obs.d2 <= obs.n)
    assert sorted_.call_count == (obs.d1 * obs.d2 > obs.n)
    _assert_equals_reference(cells, obs, cells_ref, counts_ref, means_ref, ss_ref)


def test_counted_dedupe_over_default_chunks_equals_draw_order_reference():
    # Three whole chunks and part of a fourth, counted: 3600 cells <= n.
    n = 3 * sampling.DRAW_CHUNK + 5
    rng = np.random.default_rng(8)
    obs = ObservationSet(d1=60, d2=60, values=rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, n),
                         indices=np.column_stack([rng.integers(0, 60, n), rng.integers(0, 60, n)]))
    cells_ref, counts_ref, means_ref, ss_ref, dev = _draw_order_reference(obs,
                                                                          sampling.DRAW_CHUNK)
    with patch.object(solver, "_count_cells", wraps=solver._count_cells) as counted:
        cells = solver._dedupe_observations(obs)
    counted.assert_called_once()
    _assert_equals_reference(cells, obs, cells_ref, counts_ref, means_ref, ss_ref)
    # One reduction over every deviation has the bits of the chunked one.
    assert cells.ss_within.hex() == core._dot(dev, dev).hex()


def _assert_equals_reference(cells, obs, cells_ref, counts_ref, means_ref, ss_ref):
    rows = np.repeat(cells.row_ids, cells.row_counts)
    assert list(zip(rows.tolist(), cells.cols.tolist())) == cells_ref
    assert cells.counts.tolist() == counts_ref
    assert cells.means.view(np.int64).tolist() == np.array(means_ref).view(np.int64).tolist()
    assert cells.ss_within.hex() == ss_ref.hex()
    rows_ref = [i for i, _ in cells_ref]
    assert cells.row_ids.tolist() == sorted(set(rows_ref))
    assert cells.row_starts.tolist() == [rows_ref.index(i) for i in sorted(set(rows_ref))]
    assert cells.d2 == obs.d2


@st.composite
def _partial_matrices(draw):
    """Distinct cells in row-major order on a grid of up to 8 x 8, values
    including -0.0."""
    d1, d2 = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    flat = sorted(draw(st.sets(st.integers(0, d1 * d2 - 1), min_size=1)))
    values = draw(st.lists(st.sampled_from([-0.0, 0.0]) | st.floats(-1e300, 1e300),
                           min_size=len(flat), max_size=len(flat)))
    return PartialMatrix(d1=d1, d2=d2, indices=np.column_stack(np.divmod(flat, d2)),
                         values=values)


def _same_bits(a, b):
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a.hex() == b.hex() if isinstance(a, float) else a == b


@settings(max_examples=200, deadline=None)
@given(P=_partial_matrices())
@example(P=PartialMatrix(d1=1, d2=5, indices=[[0, 1], [0, 3], [0, 4]], values=[-0.0, 2.0, -3.5]))
@example(P=PartialMatrix(d1=5, d2=1, indices=[[0, 0], [2, 0], [3, 0]], values=[1.5, -0.0, -0.0]))
def test_partial_matrix_cells_equal_sorted_cells_bit_for_bit(P):
    # The reversed cells are out of order (but for a single cell), so the
    # reference is sorted.
    reversed_cells = ObservationSet(d1=P.d1, d2=P.d2, indices=P.indices[::-1],
                                    values=P.values[::-1])
    want = solver._sort_cells(reversed_cells, P.d1 * P.d2)
    with patch.object(solver, "_distinct_cells", wraps=solver._distinct_cells) as distinct:
        got = solver._dedupe_observations(P)
    assert all(_same_bits(a, b) for a, b in zip(got, want))
    assert distinct.call_count == (P.d1 * P.d2 > P.n)


def test_sorted_distinct_observations_are_taken_as_their_cells():
    # Not only a PartialMatrix: any draws whose cells ascend strictly in
    # row-major order are their own cells, with the bits of a sort.
    d, m = 400, 50_000
    rng = np.random.default_rng(2)
    flat = np.sort(rng.choice(d * d, m, replace=False))
    obs = ObservationSet(d1=d, d2=d, indices=np.column_stack(np.divmod(flat, d)),
                         values=rng.normal(size=m))
    order = rng.permutation(m)
    shuffled = ObservationSet(d1=d, d2=d, indices=obs.indices[order], values=obs.values[order])
    with patch.object(solver, "_distinct_cells", wraps=solver._distinct_cells) as distinct:
        got = solver._dedupe_observations(obs)
        distinct.assert_called_once()
        want = solver._dedupe_observations(shuffled)
        distinct.assert_called_once()
    assert all(_same_bits(a, b) for a, b in zip(got, want))


def test_dedupe_on_a_grid_too_large_for_the_packed_key():
    top = 2 ** 32 - 1  # row * d2 + col alone overflows int64 here
    obs = ObservationSet(d1=2 ** 32, d2=2 ** 32,
                         indices=np.array([[top, 5], [0, top], [top, 5], [top, 4], [0, top]]),
                         values=np.array([1.0, 2.0, 4.0, 8.0, 16.0]))
    with patch.object(np, "lexsort", wraps=np.lexsort) as stable_sort:
        cells = solver._dedupe_observations(obs)
    stable_sort.assert_called_once()
    assert cells.row_ids.tolist() == [0, top] and cells.cols.tolist() == [top, 4, 5]
    assert cells.counts.tolist() == [2.0, 1.0, 2.0]
    assert cells.means.tolist() == [9.0, 8.0, 2.5]
    assert cells.row_starts.tolist() == [0, 1] and cells.row_counts.tolist() == [1, 2]
    assert cells.ss_within == 49.0 + 49.0 + 2.25 + 2.25


def test_counted_dedupe_holds_no_more_than_its_input():
    # n = 4 d1 d2: sorting these draws holds about 1.33x the input's bytes;
    # counting holds two grid-length arrays and two chunk buffers, about 0.1x.
    d1, d2 = 200, 150
    n = 4 * d1 * d2
    rng = np.random.default_rng(1)
    obs = ObservationSet(d1=d1, d2=d2, values=rng.normal(size=n),
                         indices=np.column_stack([rng.integers(0, d1, n), rng.integers(0, d2, n)]))
    tracemalloc.start()
    try:
        cells = solver._dedupe_observations(obs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cells.counts.sum() == n
    assert peak <= 1.2 * (obs.indices.nbytes + obs.values.nbytes)


def test_counted_fit_layout_holds_no_draw_length_array():
    # 40 draws per cell: the grid layout, from counted draws.  It holds its
    # four d1 x d2 arrays and two chunk buffers, 128 kB.
    d1, d2, n = 100, 100, 400_000
    rng = np.random.default_rng(4)
    obs = ObservationSet(d1=d1, d2=d2, values=rng.normal(size=n),
                         indices=np.column_stack([rng.integers(0, d1, n), rng.integers(0, d2, n)]))
    tracemalloc.start()
    try:
        draws, _, _ = solver._fit_layout(obs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(draws, solver._Grid) and draws.counts.sum() == n
    assert peak <= 4 * 8 * d1 * d2 + (1 << 20)


def _dyadic(rng, shape):
    # Multiples of 1/8 with small numerators: every product and sum of a few
    # of them is exact, so the blocked max must equal the dense one bit for
    # bit whatever order BLAS sums in.
    return rng.integers(-64, 65, size=shape) / 8.0


@pytest.mark.parametrize("d1, d2, block_cells", [
    (10, 4, 12),  # blocks of 3 rows; d1 is not a multiple of 3
    (5, 20, 12),  # d2 exceeds one block: one-row blocks
    (1000, 1500, None),  # the default block size
])
def test_blocked_max_equals_dense_max(monkeypatch, d1, d2, block_cells):
    if block_cells is not None:
        monkeypatch.setattr(solver, "PRODUCT_BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(d1 * d2)
    U, V = _dyadic(rng, (d1, 3)), _dyadic(rng, (d2, 3))
    U[-1] = 100.0  # the extreme sits in the last, partial block
    assert solver._max_abs_product(U, V) == np.abs(U @ V.T).max()


def test_blocked_max_of_negative_extreme(monkeypatch):
    monkeypatch.setattr(solver, "PRODUCT_BLOCK_CELLS", 2)
    U = np.array([[1.0], [-3.0], [0.5]])
    V = np.array([[2.0], [1.0]])
    assert (U @ V.T).max() == 2.0
    assert solver._max_abs_product(U, V) == 6.0


def test_blocked_max_propagates_nan(monkeypatch):
    monkeypatch.setattr(solver, "PRODUCT_BLOCK_CELLS", 2)
    U = np.array([[1.0], [np.nan], [0.5]])
    assert np.isnan(solver._max_abs_product(U, np.ones((2, 1))))


def _assert_max_matches_dense(U, V):
    np.testing.assert_equal(solver._max_abs_product(U, V), np.abs(U @ V.T).max())


@pytest.mark.parametrize("block_cells", [None, 4])
def test_pruned_max_scans_past_orthogonal_large_rows(monkeypatch, block_cells):
    if block_cells is not None:
        monkeypatch.setattr(solver, "PRODUCT_BLOCK_CELLS", block_cells)
    V = np.array([[1.0, 0.0], [0.5, 0.0], [-0.25, 0.0]])
    U = np.zeros((12, 2))
    U[:11, 1] = np.arange(11) + 64.0  # large rows, orthogonal to every row of V
    U[11] = [0.25, 0.0]  # the smallest nonzero row holds the max
    assert solver._max_abs_product(U, V) == 0.25
    _assert_max_matches_dense(U, V)


def test_pruned_max_keeps_row_whose_bound_is_the_max():
    # Row 1 is parallel to the longest v, so its bound |u| |v| = 3 is its
    # max.  Rounded, sqrt(3) * sqrt(3) = 3 - 2^-51, which is exactly what
    # row 0 (the larger norm, scanned first) attains: without the rounding
    # slack the scan would stop before row 1.
    V = np.array([[1.0, 1.0, 1.0], [0.5, 0.0, 0.0]])
    U = np.array([[1.5 - 2.0 ** -51, 1.5, 0.0], [1.0, 1.0, 1.0], [0.5, 0.5, 0.0]])
    assert np.sqrt(3.0) * np.sqrt(3.0) == 3 - 2.0 ** -51
    assert solver._max_abs_product(U, V) == 3.0
    _assert_max_matches_dense(U, V)


@pytest.mark.parametrize("U, V", [
    (np.zeros((3, 2)), np.zeros((4, 2))),
    (np.zeros((3, 2)), np.ones((4, 2))),
    (np.array([[0.5, -2.0]]), np.array([[1.0, 3.0], [-4.0, 0.25]])),
])
def test_pruned_max_of_zero_factors_and_single_row(U, V):
    _assert_max_matches_dense(U, V)


def test_pruned_max_of_row_whose_squared_norm_underflows():
    # The squares of 2^-540 underflow to 0, so the computed row norm is 0
    # although the row attains 2^-40 against V: such rows get the full scan.
    U = np.array([[2.0 ** -540, 0.0], [0.0, 0.0]])
    V = np.array([[2.0 ** 500, 0.0], [0.0, 1.0]])
    assert solver._max_abs_product(U, V) == 2.0 ** -40
    _assert_max_matches_dense(U, V)


@pytest.mark.parametrize("U, V", [
    (np.array([[1.0, 0.0], [np.inf, 0.0], [0.5, 0.5]]), np.array([[1.0, 0.0], [-2.0, 0.0]])),
    (np.array([[1.0, 0.0], [0.5, 0.5]]), np.array([[1.0, 0.0], [np.nan, 0.0], [0.5, 0.5]])),
])
def test_pruned_max_of_non_finite_factors(U, V):
    assert not np.isfinite(solver._max_abs_product(U, V))
    _assert_max_matches_dense(U, V)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d1=st.integers(1, 40), d2=st.integers(1, 10),
       k=st.integers(1, 4), block_rows=st.sampled_from([None, 1, 3]))
def test_pruned_max_equals_dense_max(seed, d1, d2, k, block_rows):
    rng = np.random.default_rng(seed)
    # Each row is dyadic times its own power of two, 2^-20 to 2^20: the row
    # norms spread over twelve orders of magnitude while every dot product
    # stays exact.
    U = _dyadic(rng, (d1, k)) * 2.0 ** rng.integers(-20, 21, size=(d1, 1))
    V = _dyadic(rng, (d2, k)) * 2.0 ** rng.integers(-20, 21, size=(d2, 1))
    block_cells = solver.PRODUCT_BLOCK_CELLS if block_rows is None else block_rows * d2
    with patch.object(solver, "PRODUCT_BLOCK_CELLS", block_cells):
        _assert_max_matches_dense(U, V)


def test_completed_is_a_fresh_product_on_every_read():
    rng = np.random.default_rng(5)
    idx = np.column_stack([rng.integers(0, 6, 30), rng.integers(0, 5, 30)])
    obs = ObservationSet(d1=6, d2=5, indices=idx, values=rng.normal(size=30))
    res = fit_pgd(obs, ConstraintSet(alpha=1.0, radius=1.5), SolverConfig(k=2, max_iters=20))
    M = res.completed
    assert "completed" not in vars(res)  # the result stores no d1 x d2 array
    assert np.array_equal(M, res.factorization.product())
    assert res.completed is not M
    alive = weakref.ref(M)
    del M
    assert alive() is None  # nothing but the caller held it


def test_fit_pgd_allocates_no_dense_grid_array():
    d, n = 2000, 20_000
    rng = np.random.default_rng(7)
    idx = np.column_stack([rng.integers(0, d, n), rng.integers(0, d, n)])
    obs = ObservationSet(d1=d, d2=d, indices=idx, values=rng.normal(size=n))
    tracemalloc.start()
    try:
        fit_pgd(obs, ConstraintSet(alpha=1.0, radius=2.0),
                SolverConfig(k=3, max_iters=3, seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < d * d * np.dtype(np.float64).itemsize


def _cells_once(d, step=1):
    """One draw of every step-th cell of a d x d grid, in row-major order."""
    rng = np.random.default_rng(3)
    rows, cols = np.divmod(np.arange(0, d * d, step), d)
    return ObservationSet(d1=d, d2=d, indices=np.column_stack([rows, cols]),
                          values=rng.normal(size=rows.size))


def _peak_of_rejecting_fit(obs, k, loss_name):
    """The tracemalloc peak of an overshooting fit whose loss kernel is `loss_name`."""
    kernel, calls = getattr(solver, loss_name), []

    def counted(*args):  # a Mock would hold every trial's factors in its call list
        calls.append(None)
        return kernel(*args)

    with patch.object(solver, loss_name, counted):
        tracemalloc.start()
        try:
            # tau = 1e5 overshoots: the first trials of an iteration are rejected.
            result = fit_pgd(obs, ConstraintSet(alpha=1.0, radius=2.0),
                             SolverConfig(k=k, tau=1e5, max_iters=3, seed=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert result.iterations_run == 3
    assert len(calls) > result.iterations_run + 1  # some trial was rejected
    return peak


def test_fit_pgd_holds_one_set_of_gathered_columns():
    # Every fifth cell of a 400 x 400 grid observed once: m = d1 d2 / 5, below
    # the grid's density of 1/4, so the cell kernels run.  With k = 32 a set
    # of V's columns gathered at all m cells would be k x m, 8 MB.  The cell
    # kernels gather one block of DRAW_CHUNK cells at a time into one buffer,
    # k x 8192, a quarter of a set; the cells' three m-arrays and a trial's
    # three more are 6/32 of a set, and about eight factor-sized arrays, d k
    # each, 1/10.  The elementwise max's block is freed before a trial.  A
    # whole gathered set, or a fresh gather per block while the last block is
    # alive, would pass 0.75 sets; one reused block stays under it.
    d, k = 400, 32
    obs = _cells_once(d, step=5)
    one_set = k * obs.n * np.dtype(np.float64).itemsize
    assert _peak_of_rejecting_fit(obs, k, "_cell_loss") < 0.75 * one_set


def test_grid_fit_reuses_its_buffers():
    # Every cell observed once: n = d1 d2, so the grid kernels run.  The fit
    # holds four d1 x d2 arrays (counts, means and the buffers P and G), the
    # elementwise max's block and factor-sized arrays: 6.4 grid arrays.  One
    # k x m set of gathered columns would be 32, and a fresh d1 x d2 array
    # per trial (as U @ V.T - means) reads 7.5.
    d, k = 200, 32
    grid_array = d * d * np.dtype(np.float64).itemsize
    assert _peak_of_rejecting_fit(_cells_once(d), k, "_grid_loss") < 7 * grid_array


@pytest.mark.parametrize("n, counted", [(11, False), (12, True), (13, True)])
def test_fit_pgd_runs_the_grid_kernels_once_n_reaches_the_grid(n, counted):
    # n draws at random on a 3 x 4 grid observe at least a quarter of its
    # cells, so the grid kernels run on either side of n = d1 d2.  Once n
    # reaches the grid the draws are counted straight onto it; below it they
    # are sorted to their cells and scattered onto the grid.
    rng = np.random.default_rng(n)
    idx = np.column_stack([rng.integers(0, 3, n), rng.integers(0, 4, n)])
    assert 12 <= 4 * np.unique(idx[:, 0] * 4 + idx[:, 1]).size
    obs = ObservationSet(d1=3, d2=4, indices=idx, values=rng.normal(size=n))
    spies = {name: patch.object(solver, name, wraps=getattr(solver, name)) for name in (
        "_cell_loss", "_cell_grad_products", "_grid_loss", "_grid_grad_products",
        "_count_cells", "_sort_cells", "_scatter")}
    with ExitStack() as stack:
        calls = {name: stack.enter_context(spy) for name, spy in spies.items()}
        result = fit_pgd(obs, ConstraintSet(alpha=1.0, radius=2.0),
                         SolverConfig(k=2, max_iters=3, seed=0))
    assert result.iterations_run >= 1
    assert all(calls[name].call_count > 0 for name in ("_grid_loss", "_grid_grad_products"))
    assert all(calls[name].call_count == 0 for name in ("_cell_loss", "_cell_grad_products"))
    assert calls["_count_cells"].call_count == 0
    assert calls["_sort_cells"].call_count == (not counted)
    assert calls["_scatter"].call_count == (not counted)


@pytest.mark.parametrize("n, m, grid", [
    (3, 3, False),  # distinct cells, sorted: m < d1 d2 / 4
    (4, 4, True),  # distinct cells, sorted and scattered: m = d1 d2 / 4
    (16, 3, False),  # n = d1 d2, counted and compacted to the cells
    (16, 4, True),  # n = d1 d2, counted: the grid arrays as they are
    (10, 5, True),  # n < d1 d2 with repeats, sorted and scattered
])
def test_fit_pgd_runs_the_grid_kernels_once_a_quarter_of_the_cells_are_observed(n, m, grid):
    # On a 4 x 4 grid the grid kernels run exactly when d1 d2 <= 4 m.
    rng = np.random.default_rng(n + m)
    cells = rng.choice(16, size=m, replace=False)
    flat = rng.permutation(np.concatenate([cells, rng.choice(cells, size=n - m)]))
    obs = ObservationSet(d1=4, d2=4, indices=np.column_stack(np.divmod(flat, 4)),
                         values=rng.normal(size=n))
    spies = {name: patch.object(solver, name, wraps=getattr(solver, name)) for name in (
        "_cell_loss", "_cell_grad_products", "_grid_loss", "_grid_grad_products",
        "_count_cells", "_sort_cells", "_scatter")}
    with ExitStack() as stack:
        calls = {name: stack.enter_context(spy) for name, spy in spies.items()}
        result = fit_pgd(obs, ConstraintSet(alpha=1.0, radius=2.0),
                         SolverConfig(k=2, max_iters=3, seed=0))
    assert result.iterations_run >= 1
    ran, idle = ("_grid_loss", "_grid_grad_products"), ("_cell_loss", "_cell_grad_products")
    if not grid:
        ran, idle = idle, ran
    assert all(calls[name].call_count > 0 for name in ran)
    assert all(calls[name].call_count == 0 for name in idle)
    counted = n >= 16
    assert calls["_sort_cells"].call_count == (not counted)
    assert calls["_count_cells"].call_count == (counted and not grid)  # the compaction
    assert calls["_scatter"].call_count == (not counted and grid)
