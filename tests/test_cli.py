import numpy as np
import pytest

from maxnorm_completion import ObservationSet, load_dense, load_observations, save_observations
from maxnorm_completion.cli import main
from maxnorm_completion.model_select import load_rank_report


def _simulate(tmp_path, n=200, noise="gaussian", sigma=0.1, d1=10, d2=10, rank=2):
    truth = tmp_path / "truth.dense"
    obs = tmp_path / "obs.txt"
    code = main([
        "simulate", "--d1", str(d1), "--d2", str(d2), "--rank", str(rank),
        "--alpha", "1.0", "--truth-seed", "4", "--n", str(n),
        "--noise", noise, "--sigma", str(sigma), "--seed", "12",
        "--out-truth", str(truth), "--out-obs", str(obs),
    ])
    assert code == 0
    return truth, obs


def test_simulate_writes_parsable_files(tmp_path):
    truth, obs_path = _simulate(tmp_path)
    M0 = load_dense(truth)
    obs = load_observations(obs_path)
    assert M0.shape == (10, 10)
    assert np.abs(M0).max() == 1.0
    assert obs.n == 200


def test_simulate_deterministic_bytes(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    t1, o1 = _simulate(tmp_path / "a", n=100)
    t2, o2 = _simulate(tmp_path / "b", n=100)
    assert t1.read_bytes() == t2.read_bytes()
    assert o1.read_bytes() == o2.read_bytes()


def test_simulate_rejects_an_explicit_file_with_extra_rows(tmp_path, capsys):
    dist = tmp_path / "extra.dist"
    dist.write_text("2,3\nexplicit\n1,1,2\n2,1,1\n1,1,1\n", encoding="ascii")
    assert main(["simulate", "--d1", "2", "--d2", "3", "--rank", "1", "--n", "10",
                 "--dist", str(dist), "--out-truth", str(tmp_path / "truth.txt"),
                 "--out-obs", str(tmp_path / "obs.txt")]) == 1
    assert "does not match" in capsys.readouterr().err


def test_fit_completes_and_is_deterministic(tmp_path):
    _, obs_path = _simulate(tmp_path, n=300)
    out1 = tmp_path / "fit1.dense"
    out2 = tmp_path / "fit2.dense"
    args = ["fit", "--obs", str(obs_path), "--alpha", "1.0",
            "--radius", "1.4142135623730951", "--k", "3", "--tau", "1.0",
            "--max-iters", "500", "--tol", "1e-9", "--seed", "3"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    M = load_dense(out1)
    assert np.abs(M).max() <= 1.0 + 1e-9


def test_fit_trace_output(tmp_path):
    _, obs_path = _simulate(tmp_path, n=100)
    out = tmp_path / "fit.dense"
    trace = tmp_path / "trace.txt"
    code = main(["fit", "--obs", str(obs_path), "--alpha", "1.0",
                 "--radius", "2.0", "--k", "3", "--max-iters", "50",
                 "--out", str(out), "--trace-out", str(trace)])
    assert code == 0
    values = [float(x) for x in trace.read_text().split()]
    assert len(values) >= 2


@pytest.mark.parametrize("values", [[1e200, -3e200, 2e200], [1e200] * 3])
def test_fit_overflowing_loss_exits_one(tmp_path, values):
    obs = ObservationSet(d1=2, d2=2, indices=np.array([[0, 0], [0, 1], [1, 1]]),
                         values=np.array(values))
    save_observations(tmp_path / "obs.txt", obs)
    out = tmp_path / "x.dense"
    assert main(["fit", "--obs", str(tmp_path / "obs.txt"), "--alpha", "1",
                 "--radius", "1", "--k", "2", "--max-iters", "5", "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("cells", [
    # column 0's sum overflows in the column-mean fill
    [((0, 0), 1e308), ((1, 0), 1e308), ((2, 0), 5e307), ((3, 1), -1e200)],
    # the mean of two draws of one cell overflows
    [((0, 0), 1e308), ((0, 0), 1e308), ((1, 1), -1e200)],
])
def test_rank_estimate_overflowing_values_exit_one(tmp_path, capsys, cells):
    idx, values = zip(*cells)
    save_observations(tmp_path / "obs.txt", ObservationSet(d1=4, d2=4, indices=np.array(idx),
                                                           values=np.array(values)))
    out = tmp_path / "rank.report"
    assert main(["rank-estimate", "--obs", str(tmp_path / "obs.txt"), "--r-max", "2",
                 "--out", str(out)]) == 1
    assert "too large" in capsys.readouterr().err
    assert not out.exists()


def test_validation_errors_exit_one(tmp_path):
    # unknown flag
    assert main(["fit", "--obs", "nope.txt", "--alpha", "1", "--radius", "1",
                 "--out", "o", "--bogus"]) == 1
    # missing file
    assert main(["fit", "--obs", str(tmp_path / "missing.txt"), "--alpha", "1",
                 "--radius", "1", "--out", str(tmp_path / "o")]) == 1
    # invalid constraint pair
    _, obs_path = _simulate(tmp_path, n=30)
    assert main(["fit", "--obs", str(obs_path), "--alpha", "2.0",
                 "--radius", "1.0", "--out", str(tmp_path / "o")]) == 1
    # the stepwise solver and its flags are gone
    assert main(["fit", "--obs", str(obs_path), "--alpha", "1", "--radius", "1",
                 "--solver", "stepwise", "--out", str(tmp_path / "o")]) == 1
    # rank-estimate sets each candidate's factor width itself: --k is no flag there
    assert main(["rank-estimate", "--obs", str(obs_path), "--r-max", "3", "--k", "3",
                 "--out", str(tmp_path / "o")]) == 1
    # step halving is always on: --no-backtrack is no flag
    assert main(["fit", "--obs", str(obs_path), "--alpha", "1", "--radius", "1",
                 "--no-backtrack", "--out", str(tmp_path / "o")]) == 1
    assert main(["rank-estimate", "--obs", str(obs_path), "--r-max", "3",
                 "--no-backtrack", "--out", str(tmp_path / "o")]) == 1
    # the two deleted theory tools are no subcommands
    assert main(["theory", "packing", "--d1", "8", "--d2", "8", "--r", "1"]) == 1
    assert main(["theory", "rademacher", "--d1", "4", "--d2", "4", "--n", "8"]) == 1


def test_rank_estimate_report(tmp_path):
    _, obs_path = _simulate(tmp_path, n=350, noise="none", sigma=0.0,
                            d1=12, d2=12, rank=2)
    out = tmp_path / "rank.report"
    code = main(["rank-estimate", "--obs", str(obs_path), "--r-max", "4",
                 "--tau", "2.0", "--max-iters", "1500", "--tol", "1e-10",
                 "--out", str(out)])
    assert code == 0
    errors, r_star, completion = load_rank_report(out)
    assert [r for r, _ in errors] == [2, 3, 4]
    assert 2 <= r_star <= 4
    assert completion.shape == (12, 12)


def test_experiment_command(tmp_path, capsys):
    out_csv = tmp_path / "records.csv"
    config = tmp_path / "exp.cfg"
    config.write_text("\n".join([
        "truth.d1 = 10", "truth.d2 = 10", "truth.rank = 2", "truth.alpha = 1.0",
        "truth.seed = 2", "noise.kind = gaussian", "noise.sigma = 0.2",
        "grid.n = 40,80,160", "grid.replicates = 2",
        "solver.tau = 1.0", "solver.max_iters = 300",
        "experiment.seed = 6", f"output.path = {out_csv}",
    ]) + "\n")
    assert main(["experiment", "--config", str(config)]) == 0
    captured = capsys.readouterr().out
    assert "trials=6" in captured
    assert "slope=" in captured
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 1 + 6


def test_experiment_bad_config_value_exits_one(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text("truth.d1 = 10\ntruth.d2 = 10\ntruth.rank = 2\ntruth.alpha = 1.0\n"
                      "grid.n = 40,x\n")
    assert main(["experiment", "--config", str(config)]) == 1
    assert "config line 5: bad value for 'grid.n'" in capsys.readouterr().err


def test_experiment_file_sampling_without_file_exits_one(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text("truth.d1 = 10\ntruth.d2 = 10\ntruth.rank = 2\ntruth.alpha = 1.0\n"
                      "sampling.kind = file\ngrid.n = 40\n")
    assert main(["experiment", "--config", str(config)]) == 1
    assert "config line 5: sampling.kind = file requires 'sampling.file'" in capsys.readouterr().err


def test_theory_rates_stdout(capsys):
    code = main(["theory", "rates", "--alpha", "1", "--sigma", "1",
                 "--radius", "1.7320508075688772", "--d1", "50", "--d2", "50",
                 "--n", "2000"])
    assert code == 0
    out = dict(ln.split("=", 1) for ln in capsys.readouterr().out.strip().splitlines())
    assert float(out["upper_rate"]) == pytest.approx(0.3873, abs=5e-5)
    assert out["sample_condition_ok"] == "true"
