"""The cell-level PGD iteration against the dense reference, and its memory bound."""

import tracemalloc
from collections import defaultdict
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from maxnorm_completion import (
    ConstraintSet,
    Factorization,
    ObservationSet,
    SolverConfig,
    empirical_loss_and_grad,
    fit_pgd,
    init_factors,
    solver,
)


def _duplicate_heavy_instance(seed, d1, d2, n, pool):
    """n draws from at most `pool` distinct cells, so most cells repeat."""
    rng = np.random.default_rng(seed)
    cells = np.column_stack([rng.integers(0, d1, pool), rng.integers(0, d2, pool)])
    idx = cells[rng.integers(0, pool, n)]
    return rng, ObservationSet(d1=d1, d2=d2, indices=idx, values=rng.normal(size=n))


def _assert_close(actual, expected, rel=1e-12):
    """Equal to `rel` relative to the largest magnitude in `expected`."""
    expected = np.asarray(expected)
    np.testing.assert_allclose(actual, expected, rtol=rel,
                               atol=rel * float(np.abs(expected).max()))


shapes = dict(seed=st.integers(0, 2**32 - 1), d1=st.integers(1, 8), d2=st.integers(1, 8),
              n=st.integers(1, 80), pool=st.integers(1, 12))


@settings(max_examples=150, deadline=None)
@given(k=st.integers(1, 4), **shapes)
def test_cell_loss_and_gradient_products_match_dense_reference(seed, d1, d2, n, pool, k):
    rng, obs = _duplicate_heavy_instance(seed, d1, d2, n, pool)
    F = Factorization(U=rng.normal(size=(d1, k)), V=rng.normal(size=(d2, k)))
    loss, grad = empirical_loss_and_grad(F, obs)
    cells = solver._dedupe_observations(obs)
    cell_loss, w = solver._cell_loss(cells, F.U, F.V)
    GV, GtU = solver._cell_grad_products(cells, w, F.U, F.V)
    assert cell_loss == pytest.approx(loss, rel=1e-12)
    _assert_close(GV, grad @ F.V)
    _assert_close(GtU, grad.T @ F.U)


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
@given(**shapes)
@example(seed=34194848, d1=1, d2=2, n=56, pool=1)  # the draws nearly cancel: mean 1.27e-6
def test_dedupe_matches_per_cell_reference(seed, d1, d2, n, pool):
    _, obs = _duplicate_heavy_instance(seed, d1, d2, n, pool)
    draws = defaultdict(list)
    for (i, j), y in zip(obs.indices.tolist(), obs.values):
        draws[i, j].append(y)
    keys = sorted(draws)
    cells = solver._dedupe_observations(obs)
    assert cells.rows.tolist() == [i for i, _ in keys]
    assert cells.cols.tolist() == [j for _, j in keys]
    assert cells.counts.tolist() == [len(draws[c]) for c in keys]
    # A mean's rounding error scales with its cell's sum(|y|) / count, not with the mean.
    scale = np.array([np.abs(draws[c]).sum() / len(draws[c]) for c in keys])
    assert (np.abs(cells.means - [np.mean(draws[c]) for c in keys]) <= 1e-12 * scale).all()
    ss = sum(float(((np.array(v) - np.mean(v)) ** 2).sum()) for v in draws.values())
    assert cells.ss_within == pytest.approx(ss, rel=1e-12, abs=1e-12)
    assert cells.n == obs.n


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
        monkeypatch.setattr(solver, "LINF_BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(d1 * d2)
    U, V = _dyadic(rng, (d1, 3)), _dyadic(rng, (d2, 3))
    U[-1] = 100.0  # the extreme sits in the last, partial block
    assert solver._max_abs_product(U, V) == np.abs(U @ V.T).max()


def test_blocked_max_of_negative_extreme(monkeypatch):
    monkeypatch.setattr(solver, "LINF_BLOCK_CELLS", 2)
    U = np.array([[1.0], [-3.0], [0.5]])
    V = np.array([[2.0], [1.0]])
    assert (U @ V.T).max() == 2.0
    assert solver._max_abs_product(U, V) == 6.0


def test_blocked_max_propagates_nan(monkeypatch):
    monkeypatch.setattr(solver, "LINF_BLOCK_CELLS", 2)
    U = np.array([[1.0], [np.nan], [0.5]])
    assert np.isnan(solver._max_abs_product(U, np.ones((2, 1))))


def _assert_max_matches_dense(U, V):
    np.testing.assert_equal(solver._max_abs_product(U, V), np.abs(U @ V.T).max())


@pytest.mark.parametrize("block_cells", [None, 4])
def test_pruned_max_scans_past_orthogonal_large_rows(monkeypatch, block_cells):
    if block_cells is not None:
        monkeypatch.setattr(solver, "LINF_BLOCK_CELLS", block_cells)
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
    block_cells = solver.LINF_BLOCK_CELLS if block_rows is None else block_rows * d2
    with patch.object(solver, "LINF_BLOCK_CELLS", block_cells):
        _assert_max_matches_dense(U, V)


def test_completed_is_lazy_read_only_and_cached():
    rng = np.random.default_rng(5)
    idx = np.column_stack([rng.integers(0, 6, 30), rng.integers(0, 5, 30)])
    obs = ObservationSet(d1=6, d2=5, indices=idx, values=rng.normal(size=30))
    res = fit_pgd(obs, ConstraintSet(alpha=1.0, radius=1.5), SolverConfig(k=2, max_iters=20))
    assert "completed" not in vars(res)  # not built by the solve itself
    M = res.completed
    assert not M.flags.writeable
    assert np.array_equal(M, res.factorization.product())
    assert res.completed is M
    with pytest.raises(ValueError):
        M[0, 0] = 0.0


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
