import math
import re
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxnorm_completion import (
    ConstraintSet,
    ExperimentConfig,
    Factorization,
    NoiseModel,
    SolverConfig,
    TrialRecord,
    ValidationError,
    fit_scaling_slope,
    make_distribution,
    make_ground_truth,
    median_mse_by_n,
    pi_weighted_sq_norm,
    read_records_csv,
    run_experiment,
)
from maxnorm_completion import _rng, harness, sampling, solver
from maxnorm_completion.harness import (
    CSV_HEADER,
    format_record,
    load_config,
    parse_config_text,
)


def _experiment_config(tmp_path=None, **overrides):
    base = dict(
        d1=12, d2=10, rank=2, alpha=1.0, truth_seed=3,
        distribution=make_distribution("uniform", 12, 10),
        noise=NoiseModel(kind="gaussian", sigma=0.2),
        n_grid=(60, 120),
        replicates=3,
        solver=SolverConfig(k=3, tau=1.0, max_iters=600, tol=1e-9),
        base_seed=29,
        output_path=str(tmp_path / "records.csv") if tmp_path else None,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_make_ground_truth_rank_one_positive():
    M = make_ground_truth(6, 7, 1, 0.8, seed=1)
    assert np.abs(M).max() == 0.8
    assert (M > 0).all()  # uniform factors are positive, so no zero entries


def test_make_ground_truth_numeric_rank():
    M = make_ground_truth(15, 12, 4, 2.0, seed=9)
    s = np.linalg.svd(M, compute_uv=False)
    assert np.count_nonzero(s > 1e-10 * s[0]) == 4
    assert np.abs(M).max() == 2.0


def test_make_ground_truth_deterministic():
    a = make_ground_truth(8, 8, 2, 1.0, seed=5)
    b = make_ground_truth(8, 8, 2, 1.0, seed=5)
    assert np.array_equal(a, b)
    c = make_ground_truth(8, 8, 2, 1.0, seed=6)
    assert not np.array_equal(a, c)


def _ground_truth_copy_loop(d1, d2, rank, alpha, seed):
    """The rescale as an `np.abs` max and a fresh copy per pass; returns (M, passes)."""
    rng = _rng.stream_rng(seed, _rng.GROUND_TRUTH)
    M = rng.random((d1, rank)) @ rng.random((d2, rank)).T
    passes = 0
    for _ in range(4):
        m = np.abs(M).max()
        if m == alpha:
            break
        M = M * (alpha / m)
        passes += 1
    return M, passes


def test_make_ground_truth_equals_copy_loop():
    most_passes = 0
    for seed in range(6):
        for d1, d2, rank in [(1, 1, 1), (5, 7, 2), (6, 4, 3), (20, 30, 4)]:
            for alpha in [0.1, 1 / 3, 0.7, 1.0, 1.7, 3.0]:
                M = make_ground_truth(d1, d2, rank, alpha, seed)
                ref, passes = _ground_truth_copy_loop(d1, d2, rank, alpha, seed)
                assert M.tobytes() == ref.tobytes()
                most_passes = max(most_passes, passes)
    assert most_passes >= 3  # the grid reaches cases one or two passes leave short


def _ground_truth_two_scans(d1, d2, rank, alpha, seed):
    """The rescale with a max and a min scan of M on every pass."""
    rng = _rng.stream_rng(seed, _rng.GROUND_TRUTH)
    M = rng.random((d1, rank)) @ rng.random((d2, rank)).T
    for _ in range(4):
        m = max(M.max(), -M.min())
        if m == alpha:
            break
        M *= alpha / m
    return M


@settings(deadline=None, max_examples=200)
@given(d1=st.integers(1, 40), d2=st.integers(1, 40), rank=st.integers(1, 6),
       seed=st.integers(0, 2**63 - 1),
       alpha=st.floats(1e-300, 1e300) | st.sampled_from([1e-300, 1e300, 1.0, 1 / 3]))
def test_make_ground_truth_equals_two_scan_rescale(d1, d2, rank, seed, alpha):
    rank = min(rank, d1, d2)
    M = make_ground_truth(d1, d2, rank, alpha, seed)
    assert M.tobytes() == _ground_truth_two_scans(d1, d2, rank, alpha, seed).tobytes()
    assert M.max() == alpha


def test_make_ground_truth_rescales_in_place():
    d = 1000
    tracemalloc.start()
    try:
        M = make_ground_truth(d, d, 5, 1.0, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * M.nbytes


def test_make_ground_truth_validation():
    with pytest.raises(ValidationError):
        make_ground_truth(4, 4, 5, 1.0, seed=0)
    with pytest.raises(ValidationError):
        make_ground_truth(4, 4, 1, 0.0, seed=0)


def test_slope_exact_inverse_sqrt_law():
    records = [
        TrialRecord(n=n, replicate=0, seed=0, per_entry_mse=3.0 / np.sqrt(n),
                    pi_weighted_mse=0.0, runtime_ms=0.0, iterations=1,
                    feasible_rows=True, feasible_linf=True, status="ok")
        for n in (100, 400, 1600, 6400)
    ]
    fitres = fit_scaling_slope(records)
    assert fitres.slope == pytest.approx(-0.5, abs=1e-9)
    assert fitres.r2 == pytest.approx(1.0, abs=1e-12)


def test_slope_exact_inverse_law():
    records = [
        TrialRecord(n=n, replicate=0, seed=0, per_entry_mse=7.0 / n,
                    pi_weighted_mse=0.0, runtime_ms=0.0, iterations=1,
                    feasible_rows=True, feasible_linf=True, status="ok")
        for n in (100, 200, 400)
    ]
    assert fit_scaling_slope(records).slope == pytest.approx(-1.0, abs=1e-9)


def test_slope_requires_three_sample_sizes():
    records = [
        TrialRecord(n=n, replicate=0, seed=0, per_entry_mse=1.0 / n,
                    pi_weighted_mse=0.0, runtime_ms=0.0, iterations=1,
                    feasible_rows=True, feasible_linf=True, status="ok")
        for n in (100, 200)
    ]
    with pytest.raises(ValidationError):
        fit_scaling_slope(records)


def test_run_experiment_record_counts_and_order(tmp_path):
    cfg = _experiment_config(tmp_path)
    records = run_experiment(cfg, clock=lambda: 0.0)
    assert len(records) == len(cfg.n_grid) * cfg.replicates
    keys = [(r.n, r.replicate) for r in records]
    assert keys == sorted(keys)
    on_disk = read_records_csv(cfg.output_path)
    assert [(r.n, r.replicate) for r in on_disk] == keys


def test_run_experiment_deterministic_with_fixed_clock(tmp_path):
    cfg_a = _experiment_config(tmp_path, output_path=str(tmp_path / "a.csv"))
    cfg_b = _experiment_config(tmp_path, output_path=str(tmp_path / "b.csv"))
    run_experiment(cfg_a, clock=lambda: 0.0)
    run_experiment(cfg_b, clock=lambda: 0.0)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_pi_weighted_mse_sandwiched_by_flatness(tmp_path):
    rng = np.random.default_rng(41)
    probs = rng.uniform(0.3, 1.0, size=(12, 10))
    dist = make_distribution("explicit", 12, 10, probs=probs)
    cfg = _experiment_config(None, distribution=dist)
    records = run_experiment(cfg, clock=lambda: 0.0)
    d1d2 = cfg.d1 * cfg.d2
    for rec in records:
        if rec.status != "ok":
            continue
        fro_sq = rec.per_entry_mse * d1d2
        assert rec.pi_weighted_mse <= dist.L / d1d2 * fro_sq + 1e-12
        assert rec.pi_weighted_mse >= fro_sq / (dist.mu * d1d2) - 1e-12


@st.composite
def _scored_fits(draw):
    """Factors, a truth and a distribution of every kind, entries spread over
    several orders of magnitude."""
    d1, d2, k = draw(st.integers(1, 30)), draw(st.integers(1, 12)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = lambda shape: rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    kind = draw(st.sampled_from(["uniform", "product", "explicit"]))
    marginal = lambda d: rng.uniform(0.01, 1.0, d)
    dist = {"uniform": lambda: make_distribution("uniform", d1, d2),
            "product": lambda: make_distribution("product", d1, d2, row_marginals=marginal(d1),
                                                 col_marginals=marginal(d2)),
            "explicit": lambda: make_distribution("explicit", d1, d2,
                                                  probs=marginal((d1, d2)))}[kind]()
    return Factorization(U=scale((d1, k)), V=scale((d2, k))), scale((d1, d2)), dist


@settings(deadline=None, max_examples=200)
@given(case=_scored_fits(), block_rows=st.sampled_from([None, 1, 2, 3]))
def test_blocked_scores_match_dense_reference(case, block_rows):
    F, M0, dist = case
    (d1, d2), k = M0.shape, F.k
    cells = solver.PRODUCT_BLOCK_CELLS if block_rows is None else block_rows * d2
    with patch.object(solver, "PRODUCT_BLOCK_CELLS", cells):
        sq, weighted = harness._sq_errors(F, M0, dist)
    delta = F.product() - M0
    # Each entry U_i . V_j - M0_ij errs by at most (k + 1) eps times the sum
    # T_ij of its terms' magnitudes, and so its square by about 2 (k + 1) eps
    # T_ij^2; summing d1 d2 nonnegative terms, in any order, adds d1 d2 eps of
    # the total.  Both sides err that way, the weighted one by two roundings
    # more.
    T = np.abs(F.U) @ np.abs(F.V).T + np.abs(M0)
    slack = 4 * (k + 4 + d1 * d2) * np.finfo(np.float64).eps
    assert abs(sq - float((delta * delta).sum())) <= slack * float((T * T).sum())
    assert (abs(weighted - float(np.einsum("ij,ij,ij->", dist.probs, delta, delta)))
            <= slack * float(np.einsum("ij,ij,ij->", dist.probs, T, T)))
    if max(1, cells // d2) >= d1:  # one block: the distribution weighs it as a whole matrix
        assert weighted.hex() == pi_weighted_sq_norm(delta, dist).hex()


@pytest.mark.parametrize("kind", ["uniform", "product", "explicit"])
def test_scores_hold_one_block(kind):
    # The distribution weighs each error block where it lies: no weight
    # block beside it.
    d, k = 2000, 6
    rng = np.random.default_rng(4)
    F = Factorization(U=rng.normal(size=(d, k)), V=rng.normal(size=(d, k)))
    M0 = rng.normal(size=(d, d))
    kw = {"uniform": {}, "product": dict(row_marginals=rng.uniform(0.5, 1, d),
                                         col_marginals=rng.uniform(0.5, 1, d)),
          "explicit": dict(probs=rng.uniform(0.5, 1, (d, d)))}[kind]
    dist = make_distribution(kind, d, d, **kw)
    block = (solver.PRODUCT_BLOCK_CELLS // d) * d * 8
    tracemalloc.start()
    try:
        sq, weighted = harness._sq_errors(F, M0, dist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(sq) and math.isfinite(weighted)
    assert peak <= block + (1 << 19)


def test_run_trial_builds_no_dense_array_beyond_the_truth():
    # Dense scoring holds a completion, its error and the error squared:
    # three d1 x d2 arrays, 96 MB here.  The blocks and the fit stay under
    # half of one.
    d, n = 2000, 80_000
    M0 = make_ground_truth(d, d, 5, 1.0, 0)
    dist = make_distribution("uniform", d, d)
    tracemalloc.start()
    try:
        rec = harness.run_trial(M0, dist, NoiseModel("gaussian", 0.1),
                                ConstraintSet(alpha=1.0, radius=math.sqrt(5)),
                                SolverConfig(k=6, max_iters=6), n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.iterations == 6 and math.isfinite(rec.per_entry_mse)
    assert peak < 0.5 * M0.nbytes


def test_run_trial_rejects_a_distribution_of_another_shape():
    with pytest.raises(ValidationError, match="does not match"):
        harness.run_trial(np.ones((4, 3)), make_distribution("uniform", 3, 4),
                          NoiseModel("none", 0.0), ConstraintSet(alpha=1.0, radius=1.0),
                          SolverConfig(k=2, max_iters=2), 5, seed=0)


def test_run_trial_scans_the_truth_once():
    M0 = np.ones((3, 4))
    args = (make_distribution("uniform", 3, 4), NoiseModel("none", 0.0),
            ConstraintSet(alpha=1.0, radius=1.0), SolverConfig(k=2, max_iters=2), 5)
    with patch.object(sampling, "check_matrix", wraps=sampling.check_matrix) as check:
        harness.run_trial(M0, *args, seed=0)
    check.assert_called_once()
    M0[2, 1] = np.nan
    with pytest.raises(ValidationError, match="M0 contains non-finite entries"):
        harness.run_trial(M0, *args, seed=0)


def test_near_complete_noiseless_recovery():
    # All-cells sample budget, no noise: the completion should be tight.
    # Every fit runs to its cap, so the outcome depends on the sample: the
    # bound holds at 127 of the 200 base seeds 60-259.  A flat explicit grid
    # keeps the sample this test was written against: it draws from the
    # flattened cell CDF.
    dist = make_distribution("explicit", 20, 20, probs=np.ones((20, 20)))
    cfg = ExperimentConfig(
        d1=20, d2=20, rank=2, alpha=1.0, truth_seed=5,
        distribution=dist, noise=NoiseModel(kind="none", sigma=0.0),
        n_grid=(400,), replicates=6,
        solver=SolverConfig(k=3, tau=2.0, max_iters=4000, tol=1e-12),
        base_seed=77)
    records = run_experiment(cfg, clock=lambda: 0.0)
    med = median_mse_by_n(records)[400]
    assert med < 1e-4


def test_doubling_n_does_not_worsen_median(tmp_path):
    cfg = _experiment_config(None, n_grid=(50, 100, 200, 400), replicates=5,
                             solver=SolverConfig(k=3, tau=2.0, max_iters=800, tol=1e-9))
    records = run_experiment(cfg, clock=lambda: 0.0)
    med = median_mse_by_n(records)
    ns = sorted(med)
    for a, b in zip(ns, ns[1:]):
        assert med[b] <= 1.10 * med[a]


def test_empty_grid_rejected():
    with pytest.raises(ValidationError):
        _experiment_config(None, n_grid=())


def test_grid_must_increase():
    with pytest.raises(ValidationError):
        _experiment_config(None, n_grid=(100, 100))


def test_csv_round_trip(tmp_path):
    records = [
        TrialRecord(n=10, replicate=0, seed=123, per_entry_mse=0.25,
                    pi_weighted_mse=0.125, runtime_ms=1.5, iterations=42,
                    feasible_rows=True, feasible_linf=False, status="ok"),
        TrialRecord(n=20, replicate=1, seed=456, per_entry_mse=float("nan"),
                    pi_weighted_mse=float("nan"), runtime_ms=0.0, iterations=0,
                    feasible_rows=False, feasible_linf=False, status="diverged"),
    ]
    path = tmp_path / "r.csv"
    path.write_text("\n".join([CSV_HEADER, *map(format_record, records)]) + "\n")
    back = read_records_csv(path)
    assert back[0] == records[0]
    assert back[1].status == "diverged"
    assert np.isnan(back[1].per_entry_mse)
    path.write_text(CSV_HEADER + "\n")  # a run that has not finished a trial yet
    assert read_records_csv(path) == []
    row = "5,2,9,0.5,0.25,3.250,7,true,true,ok"
    for body in [row.replace("5", "x", 1),  # not a number
                 row.replace("7", "7.5"),  # iterations is an integer
                 row + ",extra",  # too wide
                 row.rsplit(",", 1)[0],  # too narrow
                 row.replace("0.25", "0.25 # note"),  # "#" starts no comment
                 row.replace("true", "maybe", 1),  # a flag is true or false
                 row.replace("true,ok", "TRUE,ok"),
                 row.replace("ok", "whatever")]:  # the status is ok or diverged
        path.write_text(f"{CSV_HEADER}\n{body}\n")
        with pytest.raises(ValidationError, match="records CSV"):
            read_records_csv(path)


_INT64 = st.integers(-2**63, 2**63 - 1)
_MSE = st.floats(allow_nan=False, allow_infinity=False) | st.just(math.nan)


@settings(deadline=None, max_examples=200)
@given(n=_INT64, replicate=_INT64, seed=_INT64, per_entry_mse=_MSE, pi_weighted_mse=_MSE,
       runtime_ms=st.floats(0, 1e9), iterations=_INT64, feasible_rows=st.booleans(),
       feasible_linf=st.booleans(), status=st.sampled_from(["ok", "diverged"]))
def test_records_csv_round_trip_is_bit_identical(tmp_path_factory, **fields):
    rec = TrialRecord(**fields)
    path = tmp_path_factory.mktemp("records") / "r.csv"
    path.write_text(f"{CSV_HEADER}\n{format_record(rec)}\n")
    (back,) = read_records_csv(path)
    bits = lambda r: np.array([r.per_entry_mse, r.pi_weighted_mse]).view(np.int64).tolist()
    assert bits(back) == bits(rec)
    # runtime_ms is written to 3 decimals, so it round-trips through that text.
    assert back.runtime_ms == float(f"{rec.runtime_ms:.3f}")
    rest = ("n", "replicate", "seed", "iterations", "feasible_rows", "feasible_linf", "status")
    assert [getattr(back, f) for f in rest] == [getattr(rec, f) for f in rest]


def test_format_record_field_order():
    rec = TrialRecord(n=5, replicate=2, seed=9, per_entry_mse=0.5,
                      pi_weighted_mse=0.25, runtime_ms=3.25, iterations=7,
                      feasible_rows=True, feasible_linf=True, status="ok")
    assert format_record(rec) == "5,2,9,0.5,0.25,3.250,7,true,true,ok"


CONFIG_TEXT = """
# scaling study
truth.d1 = 12
truth.d2 = 10
truth.rank = 2
truth.alpha = 1.0
truth.seed = 3
sampling.kind = product
sampling.row_marginals = 1,2,1,2,1,2,1,2,1,2,1,2
sampling.col_marginals = 1,1,1,1,1,2,2,2,2,2
noise.kind = gaussian
noise.sigma = 0.2
grid.n = 60,120,240
grid.replicates = 2
constraints.alpha = auto
constraints.radius_rule = alpha_sqrt_rank
solver.k = auto
solver.tau = 1.0
solver.max_iters = 300
solver.tol = 1e-8
experiment.seed = 29
"""


def test_parse_config_text_full():
    cfg = parse_config_text(CONFIG_TEXT)
    assert (cfg.d1, cfg.d2, cfg.rank) == (12, 10, 2)
    assert cfg.distribution.kind == "product"
    assert cfg.noise.sigma == 0.2
    assert cfg.n_grid == (60, 120, 240)
    assert cfg.replicates == 2
    assert cfg.solver.k == 3  # auto -> rank + 1
    assert cfg.solver.tau == 1.0
    assert cfg.base_seed == 29
    assert cfg.constraints().radius == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_parse_config_rejects_unknown_and_duplicate_keys():
    with pytest.raises(ValidationError):
        parse_config_text("truth.d1 = 4\nbogus.key = 1\n")
    with pytest.raises(ValidationError):
        parse_config_text(CONFIG_TEXT + "\ntruth.d1 = 9\n")
    with pytest.raises(ValidationError):
        parse_config_text("truth.d1 = 4\n")  # missing required keys
    with pytest.raises(ValidationError, match="requires row_marginals"):
        parse_config_text(CONFIG_TEXT.replace("sampling.row_marginals", "# sampling.row_marginals"))
    for removed in ("solver.algorithm = pgd", "solver.epochs = 5", "solver.backtrack = false"):
        with pytest.raises(ValidationError, match="unknown key"):
            parse_config_text(CONFIG_TEXT + removed + "\n")


@pytest.mark.parametrize("line, key", [
    ("truth.d1 = x", "truth.d1"),  # int
    ("truth.seed = 1.5", "truth.seed"),
    ("solver.k = two", "solver.k"),
    ("truth.alpha = one", "truth.alpha"),  # float
    ("noise.sigma = 0.2.1", "noise.sigma"),
    ("constraints.radius_rule = wide", "constraints.radius_rule"),
    ("sampling.row_marginals = 1,a,1", "sampling.row_marginals"),  # list of floats
    ("grid.n = 5,x", "grid.n"),  # list of ints
    ("grid.n = 60,,240", "grid.n"),
    ("noise.kind = foo", "noise.kind"),  # one of a fixed set
    ("sampling.kind = foo", "sampling.kind"),
])
def test_parse_config_names_the_line_and_key_of_a_bad_value(line, key):
    lines = [line if ln.startswith(key + " ") else ln for ln in CONFIG_TEXT.splitlines()]
    with pytest.raises(ValidationError, match=re.escape(
            f"config line {lines.index(line) + 1}: bad value for {key!r}")):
        parse_config_text("\n".join(lines))


def test_parse_config_file_sampling_requires_its_file():
    text = CONFIG_TEXT.replace("sampling.kind = product", "sampling.kind = file")
    kind_line = text.splitlines().index("sampling.kind = file") + 1
    with pytest.raises(ValidationError, match=re.escape(
            f"config line {kind_line}: sampling.kind = file requires 'sampling.file'")):
        parse_config_text(text)


def test_fixed_radius_rule():
    cfg = parse_config_text(CONFIG_TEXT.replace(
        "constraints.radius_rule = alpha_sqrt_rank",
        "constraints.radius_rule = 2.5"))
    assert cfg.constraints().radius == 2.5
    with pytest.raises(ValidationError, match="radius must be positive"):
        parse_config_text(CONFIG_TEXT.replace(
            "constraints.radius_rule = alpha_sqrt_rank",
            "constraints.radius_rule = 0"))
    with pytest.raises(ValidationError, match="radius must be >= alpha"):  # truth.alpha = 1.0
        parse_config_text(CONFIG_TEXT.replace(
            "constraints.radius_rule = alpha_sqrt_rank",
            "constraints.radius_rule = 0.5"))


def test_parse_config_rejects_a_nonpositive_constraint_alpha():
    with pytest.raises(ValidationError, match="alpha must be positive"):
        parse_config_text(CONFIG_TEXT.replace("constraints.alpha = auto", "constraints.alpha = 0"))


def test_load_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG_TEXT + f"output.path = {tmp_path / 'out.csv'}\n")
    cfg = load_config(path)
    assert cfg.output_path == str(tmp_path / "out.csv")
