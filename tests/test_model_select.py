import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from maxnorm_completion import (
    ObservationSet,
    PartialMatrix,
    RankEstimate,
    RankSearchConfig,
    SolverConfig,
    ValidationError,
    estimate_rank,
)
from maxnorm_completion import model_select, solver
from maxnorm_completion.model_select import (
    column_mean_init,
    load_rank_report,
    profile_distance,
    save_rank_report,
    spectral_magnitude,
)


def _solver_template(max_iters=4000, tau=2.0, tol=1e-10):
    return SolverConfig(k=2, tau=tau, max_iters=max_iters, tol=tol, seed=0)


def _partial(values, mask=None):
    """The PartialMatrix observing `values` where `mask` holds (everywhere by default)."""
    mask = np.ones(np.shape(values), dtype=bool) if mask is None else np.asarray(mask)
    return PartialMatrix(d1=mask.shape[0], d2=mask.shape[1], indices=np.argwhere(mask),
                         values=np.asarray(values, dtype=np.float64)[mask])


def test_column_mean_init_identity_on_full_observation():
    rng = np.random.default_rng(1)
    M = rng.normal(size=(5, 4))
    assert np.array_equal(column_mean_init(_partial(M)), M)


def test_column_mean_init_fills_with_column_mean():
    values = np.array([[2.0, 1.0], [4.0, 1.0], [0.0, 1.0]])
    mask = np.array([[True, True], [True, True], [False, True]])
    out = column_mean_init(_partial(values, mask))
    assert out[2, 0] == pytest.approx(3.0, rel=1e-15)
    # observed cells are copied bit-for-bit
    assert np.array_equal(out[mask], values[mask])


def test_column_mean_init_empty_column_uses_global_mean():
    values = np.array([[2.0, 0.0], [4.0, 0.0]])
    mask = np.array([[True, False], [True, False]])
    out = column_mean_init(_partial(values, mask))
    assert np.allclose(out[:, 1], 3.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("cells", [
    {(0, 0): 1e308, (1, 0): 1e308, (2, 0): 5e307, (3, 1): -1e200},  # a column's sum
    {(0, 0): 1e308, (1, 1): 1e308},  # the global mean that fills the empty columns
])
def test_column_mean_init_rejects_overflowing_means(cells):
    values = np.zeros((4, 4))
    for cell, y in cells.items():
        values[cell] = y
    P = _partial(values, values != 0)
    with pytest.raises(ValidationError, match="too large"):
        column_mean_init(P)


def test_spectral_magnitude_constant_column():
    M = np.full((8, 3), -2.5)
    F = spectral_magnitude(M)
    assert F.shape == (8, 3)
    assert np.allclose(F[0], 8 * 2.5, rtol=1e-12)
    assert np.allclose(F[1:], 0.0, atol=1e-9)


def test_spectral_magnitude_zero_matrix():
    assert np.array_equal(spectral_magnitude(np.zeros((4, 2))), np.zeros((4, 2)))


def test_spectral_magnitude_parseval():
    rng = np.random.default_rng(5)
    M = rng.normal(size=(16, 6))
    F = spectral_magnitude(M)
    lhs = (F ** 2).sum(axis=0)
    rhs = 16 * (M ** 2).sum(axis=0)
    assert np.allclose(lhs, rhs, rtol=1e-9)


def test_spectral_magnitude_invariant_to_cyclic_shift():
    rng = np.random.default_rng(7)
    col = rng.normal(size=(12, 1))
    shifted = np.roll(col, 5, axis=0)
    assert np.allclose(spectral_magnitude(col), spectral_magnitude(shifted), rtol=1e-9)


def test_from_observations_averages_duplicates():
    obs = ObservationSet(d1=2, d2=2,
                         indices=np.array([[0, 0], [0, 0], [1, 1]]),
                         values=np.array([1.0, 3.0, 5.0]))
    P = PartialMatrix.from_observations(obs)
    assert P.indices.tolist() == [[0, 0], [1, 1]]
    assert P.values.tolist() == [2.0, 5.0]


@st.composite
def _duplicate_heavy_observations(draw):
    """Draws from a few cells of a d1 x d2 grid, some columns empty, -0.0 among the values."""
    d1, d2 = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    cols = draw(st.lists(st.integers(0, d2 - 1), min_size=1, unique=True))  # observed columns
    pool = draw(st.lists(st.tuples(st.integers(0, d1 - 1), st.sampled_from(cols)),
                         min_size=1, max_size=6))
    idx = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    values = draw(st.lists(st.one_of(st.just(-0.0), st.floats(-1e300, 1e300)),
                           min_size=len(idx), max_size=len(idx)))
    return ObservationSet(d1=d1, d2=d2, indices=np.array(idx), values=np.array(values))


def _dense_column_mean_init(obs):
    """The column-mean fill on a dense mask and value grid, as the dense reference."""
    cells = solver._dedupe_observations(obs)
    rows = np.repeat(cells.row_ids, cells.row_counts)
    mask = np.zeros((obs.d1, obs.d2), dtype=bool)
    mask[rows, cells.cols] = True
    values = np.zeros((obs.d1, obs.d2))
    values[rows, cells.cols] = cells.means
    counts = mask.sum(axis=0)
    col_means = np.where(counts > 0, values.sum(axis=0) / np.maximum(counts, 1),
                         values[mask].mean())
    return np.where(mask, values, col_means[None, :])


# d2 = 1, 8 of 9 rows observed: numpy sums the lone column pairwise to
# 1 + 7e-16, a sequential sum (np.bincount's) to 1.0, and row 8 gets the mean.
_ONE_COLUMN = ObservationSet(d1=9, d2=1, indices=np.column_stack([np.arange(8), np.zeros(8)]),
                             values=[1.0] + [1e-16] * 7)


@settings(deadline=None, max_examples=200)
@given(obs=_duplicate_heavy_observations())
@example(obs=_ONE_COLUMN)
# The global mean -5e-324 / 2 rounds to -0.0, which fills the empty column.
@example(obs=ObservationSet(d1=1, d2=3, indices=[[0, 0], [0, 1]], values=[-5e-324, 0.0]))
def test_column_mean_init_is_bit_identical_to_dense_reference(obs):
    out = column_mean_init(PartialMatrix.from_observations(obs))
    assert np.array_equal(out.view(np.int64), _dense_column_mean_init(obs).view(np.int64))


@settings(deadline=None, max_examples=200)
@given(obs=_duplicate_heavy_observations())
@example(obs=_ONE_COLUMN)
@example(obs=ObservationSet(d1=1, d2=1, indices=[[0, 0], [0, 0]], values=[-0.0, -5e-324]))
def test_from_observations_lists_cells_in_argwhere_order_and_is_idempotent(obs):
    P = PartialMatrix.from_observations(obs)
    mask = np.zeros((obs.d1, obs.d2), dtype=bool)
    mask[obs.indices[:, 0], obs.indices[:, 1]] = True
    assert np.array_equal(P.indices, np.argwhere(mask))
    assert not (P.indices.flags.writeable or P.values.flags.writeable)
    # The validating constructor accepts what from_observations kept unchecked.
    checked = PartialMatrix(d1=P.d1, d2=P.d2, indices=P.indices, values=P.values)
    assert checked.indices.tobytes() == P.indices.tobytes()
    assert checked.values.tobytes() == P.values.tobytes()
    again = PartialMatrix.from_observations(P)
    assert np.array_equal(again.indices, P.indices)
    # Equal values; a mean of -0.0 comes back as +0.0, as np.bincount sums from +0.0.
    assert np.array_equal(again.values, P.values)


@pytest.mark.parametrize("indices, values", [
    ([[0, 1], [0, 1]], [1.0, 2.0]),  # a repeated cell
    ([[1, 0], [0, 1]], [1.0, 2.0]),  # out of row-major order
    ([[0, 1], [0, 0]], [1.0, 2.0]),  # out of order within a row
    (np.zeros((0, 2), dtype=np.int64), []),  # no cells
])
def test_partial_matrix_rejects_repeated_unordered_or_no_cells(indices, values):
    with pytest.raises(ValidationError):
        PartialMatrix(d1=2, d2=2, indices=indices, values=values)


def test_partial_matrix_on_a_grid_too_large_for_a_flat_index():
    top = 2 ** 32 - 1  # row * d2 + col overflows int64 here
    grid = dict(d1=2 ** 32, d2=2 ** 32)
    P = PartialMatrix(**grid, indices=[[0, 5], [top, 4]], values=[1.0, 2.0])
    assert P.indices.tolist() == [[0, 5], [top, 4]]
    for indices in ([[top, 4], [top, 4]],  # a repeated cell
                    [[top, 4], [0, 5]],  # out of row-major order
                    [[top, 5], [top, 4]]):  # out of order within a row
        with pytest.raises(ValidationError):
            PartialMatrix(**grid, indices=indices, values=[1.0, 2.0])
    obs = ObservationSet(**grid, indices=[[top, 4], [0, 5], [top, 4]], values=[1.0, 2.0, 4.0])
    P = PartialMatrix.from_observations(obs)
    assert P.indices.tolist() == [[0, 5], [top, 4]]
    assert P.values.tolist() == [2.0, 2.5]


def test_estimate_rank_full_rank_one_matrix():
    rng = np.random.default_rng(11)
    M0 = np.outer(rng.uniform(0.5, 1.0, 8), rng.uniform(0.5, 1.0, 8))
    M0 /= np.abs(M0).max()
    P = _partial(M0)
    cfg = RankSearchConfig(alpha0=1.0, r_max=4, solver=_solver_template())
    est = estimate_rank(P, cfg)
    rel = np.linalg.norm(est.chosen - M0) / np.linalg.norm(M0)
    assert rel < 1e-3
    assert [r for r, _ in est.errors] == [2, 3, 4]
    assert all(e >= 0.0 for _, e in est.errors)
    # the chosen completion's profile distance is the error reported for r_star
    assert (profile_distance(spectral_magnitude(column_mean_init(P)),
                             spectral_magnitude(est.chosen))
            == dict(est.errors)[est.r_star])


def test_estimate_rank_singleton_search():
    rng = np.random.default_rng(13)
    M0 = np.outer(rng.uniform(0.5, 1.0, 6), rng.uniform(0.5, 1.0, 6))
    P = _partial(M0)
    cfg = RankSearchConfig(alpha0=float(np.abs(M0).max()), r_max=2,
                           solver=_solver_template(max_iters=500))
    est = estimate_rank(P, cfg)
    assert est.r_star == 2
    assert len(est.errors) == 1


def test_estimate_rank_r_max_capped_by_dims():
    P = _partial(np.ones((3, 3)))
    cfg = RankSearchConfig(alpha0=1.0, r_max=5, solver=_solver_template())
    with pytest.raises(ValidationError):
        estimate_rank(P, cfg)


def test_rank_search_config_validation():
    with pytest.raises(ValidationError):
        RankSearchConfig(alpha0=0.0, r_max=3, solver=_solver_template())
    with pytest.raises(ValidationError):
        RankSearchConfig(alpha0=1.0, r_max=1, solver=_solver_template())


def test_estimate_rank_fits_each_rank_through_model_select_fit(monkeypatch):
    # Benchmarks count the search's fits by patching model_select.fit.
    rng = np.random.default_rng(23)
    M0 = np.outer(rng.uniform(0.5, 1.0, 6), rng.uniform(0.5, 1.0, 6))
    M0 /= np.abs(M0).max()
    P = _partial(M0)
    cfg = RankSearchConfig(alpha0=0.5, r_max=4, solver=_solver_template(max_iters=300))
    inner, calls = model_select.fit, []

    def fit(obs, constraints, solver_cfg):
        calls.append((constraints.alpha, constraints.radius, solver_cfg))
        return inner(obs, constraints, solver_cfg)

    monkeypatch.setattr(model_select, "fit", fit)
    est = estimate_rank(P, cfg)
    assert calls == [(0.5, 0.5 * np.sqrt(r), replace(cfg.solver, k=r + 1)) for r in (2, 3, 4)]
    assert [r for r, _ in est.errors] == [2, 3, 4]


def test_estimate_rank_frees_each_fit_before_the_next(monkeypatch):
    # A candidate's result holds its cached d1 x d2 completion: it must be
    # gone before the next candidate's fit starts.
    rng = np.random.default_rng(23)
    P = _partial(np.outer(rng.uniform(0.5, 1.0, 6), rng.uniform(0.5, 1.0, 6)))
    cfg = RankSearchConfig(alpha0=1.0, r_max=4, solver=_solver_template(max_iters=50))
    inner, results, alive = model_select.fit, [], []

    def fit(obs, constraints, solver_cfg):
        alive.append([ref() is not None for ref in results])
        result = inner(obs, constraints, solver_cfg)
        results.append(weakref.ref(result))
        return result

    monkeypatch.setattr(model_select, "fit", fit)
    estimate_rank(P, cfg)
    assert alive == [[], [False], [False, False]]


def test_rank_report_round_trip(tmp_path):
    rng = np.random.default_rng(19)
    M0 = np.outer(rng.uniform(0.5, 1.0, 6), rng.uniform(0.5, 1.0, 6))
    P = _partial(M0)
    cfg = RankSearchConfig(alpha0=float(np.abs(M0).max()), r_max=3,
                           solver=_solver_template(max_iters=300))
    est = estimate_rank(P, cfg)
    path = tmp_path / "rank.report"
    save_rank_report(path, est)
    lines = [f"{r},{e:.17g}" for r, e in est.errors] + [str(est.r_star), "%d,%d" % est.chosen.shape]
    lines += [",".join(f"{x:.17g}" for x in row) for row in est.chosen.tolist()]
    assert path.read_text() == "\n".join(lines) + "\n"
    errors, r_star, completion = load_rank_report(path)
    assert r_star == est.r_star
    assert [r for r, _ in errors] == [r for r, _ in est.errors]
    for (_, a), (_, b) in zip(errors, est.errors):
        assert a == b  # 17 significant digits round-trip
    assert np.array_equal(completion, est.chosen)


def _load_report_text(tmp_path, text: str):
    path = tmp_path / "rank.report"
    path.write_text(text, encoding="ascii")
    return load_rank_report(path)


def test_parse_rank_report_rejects_missing_rank_line(tmp_path):
    with pytest.raises(ValidationError):
        _load_report_text(tmp_path, "2,0.5\n3,0.4\n")
    dense = "1,1\n5\n"
    for text, what in [("2,abc\n2\n" + dense, "rank report error"),  # not a number
                       ("2.5,0.5\n2\n" + dense, "rank report error"),  # r is an integer
                       ("2,0.5 # note\n2\n" + dense, "rank report error"),
                       ("2,0.5,1\n2\n" + dense, "rank report error"),  # too wide
                       ("2\n" + dense, "rank report error"),  # no error rows
                       ("2,0.5\nx\n" + dense, "chosen-rank"),
                       ("2,0.5\n3,0.4\n7\n" + dense, "chosen-rank"),  # a rank no row lists
                       ("2,0.5\n2,0.4\n2\n" + dense, "increasing order"),  # a rank repeats
                       ("3,0.5\n2,0.4\n2\n" + dense, "increasing order"),  # out of order
                       ("2,0.5\n3,0.4\n2\n" + dense, "least error is r = 3"),  # not the least
                       ("2,0.4\n3,0.4\n3\n" + dense, "least error is r = 2"),  # not the first
                       ("2,0.5\n2\n1,1\n5,6\n", "dense matrix")]:
        with pytest.raises(ValidationError, match=what):
            _load_report_text(tmp_path, text)
    errors, r_star, completion = _load_report_text(tmp_path, "\n2,0.5\n \n2\n\t\n" + dense)
    assert (errors, r_star, completion.tolist()) == ([(2, 0.5)], 2, [[5.0]])


_ANY_FINITE = st.floats(allow_nan=False, allow_infinity=False)  # -0.0 and subnormals included


@st.composite
def _rank_estimates(draw):
    errors = draw(st.lists(_ANY_FINITE, min_size=1, max_size=6))
    d1, d2 = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    chosen = np.array(draw(st.lists(_ANY_FINITE, min_size=d1 * d2, max_size=d1 * d2)))
    # As estimate_rank picks it: the first rank with the least error.
    return RankEstimate(r_star=2 + errors.index(min(errors)),
                        errors=tuple(enumerate(errors, start=2)),
                        chosen=chosen.reshape(d1, d2))


@settings(deadline=None, max_examples=200)
@given(est=_rank_estimates())
def test_rank_report_round_trip_is_bit_identical(tmp_path_factory, est):
    path = tmp_path_factory.mktemp("rank") / "rank.report"
    save_rank_report(path, est)
    errors, r_star, completion = load_rank_report(path)
    assert r_star == est.r_star
    assert [r for r, _ in errors] == [r for r, _ in est.errors]
    bits = lambda es: np.array([e for _, e in es]).view(np.int64).tolist()
    assert bits(errors) == bits(est.errors)
    assert np.array_equal(completion.view(np.int64), est.chosen.view(np.int64))
