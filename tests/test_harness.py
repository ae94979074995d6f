import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxnorm_completion import (
    ExperimentConfig,
    NoiseModel,
    SolverConfig,
    TrialRecord,
    ValidationError,
    fit_scaling_slope,
    make_distribution,
    make_ground_truth,
    matrix_norms,
    median_mse_by_n,
    read_records_csv,
    run_experiment,
)
from maxnorm_completion import _rng
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
    assert matrix_norms(M).rank_numeric == 4
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


def test_near_complete_noiseless_recovery():
    # All-cells sample budget, no noise: the completion should be tight.
    dist = make_distribution("uniform", 20, 20)
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
                 row.replace("0.25", "0.25 # note")]:  # "#" starts no comment
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
])
def test_parse_config_names_the_line_and_key_of_a_bad_value(line, key):
    lines = [line if ln.startswith(key + " ") else ln for ln in CONFIG_TEXT.splitlines()]
    with pytest.raises(ValidationError, match=re.escape(
            f"config line {lines.index(line) + 1}: bad value for {key!r}")):
        parse_config_text("\n".join(lines))


def test_fixed_radius_rule():
    cfg = parse_config_text(CONFIG_TEXT.replace(
        "constraints.radius_rule = alpha_sqrt_rank",
        "constraints.radius_rule = 2.5"))
    assert cfg.constraints().radius == 2.5
    with pytest.raises(ValidationError, match="radius must be positive"):
        parse_config_text(CONFIG_TEXT.replace(
            "constraints.radius_rule = alpha_sqrt_rank",
            "constraints.radius_rule = 0"))


def test_load_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG_TEXT + f"output.path = {tmp_path / 'out.csv'}\n")
    cfg = load_config(path)
    assert cfg.output_path == str(tmp_path / "out.csv")
