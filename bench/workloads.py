"""The benchmark's three workloads.

Each workload builds its inputs from the seed (`setup`), runs the
user-visible operation (`operate`, the timed part) and checks what the
operation returned (`check`).  Every call into the package goes through a
module attribute (``solver.fit_pgd``, ``cli.main``, ...) so that the tracer
can wrap it.  All of them use the library's default step: step-policy work
must show here.
"""

import math
import os
import statistics
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from maxnorm_completion import cli, core, harness, model_select, sampling, solver


@dataclass
class Outcome:
    """Checked result of one operation."""

    mse: float
    pi_mse: float
    attempted: int  # fits and commands
    failed: int  # of `attempted`: diverged, infeasible, non-finite, non-zero exit, bad output
    fits: int
    iterations: int
    capped: int  # fits that used every allowed iteration
    rank_err: int | None = None


def _mean_sq(delta) -> float:
    return float((delta * delta).sum()) / delta.size


def _meanfill_mse(obs, truth) -> float:
    """Error of the trivial column-mean fill, the reference the estimator must beat."""
    P = model_select.PartialMatrix.from_observations(obs)
    return _mean_sq(model_select.column_mean_init(P) - truth)


def _fit_ok(result) -> bool:
    return result.feasible_rows and result.feasible_linf


class Workload:
    name = ""
    why = ""
    # The ground truth is part of the workload's definition, as in
    # harness.ExperimentConfig; --seed draws the sample, the noise and the start.
    TRUTH_SEED = 0

    def __init__(self, scale: str, seed: int, workdir: str):
        for key, value in self.SIZES[scale].items():
            setattr(self, key, value)
        self.seed = seed
        self.workdir = workdir

    def check_setup(self, inputs) -> tuple:
        """(attempted, failed) commands run by `setup`."""
        return 0, 0


class FitLargeSparse(Workload):
    name = "fit-large-sparse"
    why = ("dense d1 x d2 arrays (gradient, U @ V.T rescale, completed, scoring delta) "
           "do most of the work; the gather over n stays small")
    SIZES = {"full": {"d": 4000, "rank": 5, "frac": 0.02, "cap": 6},
             "tiny": {"d": 40, "rank": 2, "frac": 0.25, "cap": 5}}
    SIGMA = 0.1

    def __init__(self, scale, seed, workdir):
        super().__init__(scale, seed, workdir)
        self.n = round(self.frac * self.d * self.d)
        self.constraints = core.ConstraintSet(alpha=1.0, radius=math.sqrt(self.rank))
        self.solver_cfg = solver.SolverConfig(k=self.rank + 1, max_iters=self.cap, seed=seed)

    def setup(self):
        d = self.d
        truth = harness.make_ground_truth(d, d, self.rank, 1.0, self.TRUTH_SEED)
        dist = sampling.make_distribution("uniform", d, d)
        idx = sampling.sample_indices(dist, self.n, self.seed)
        obs = sampling.observe(truth, idx, sampling.NoiseModel("gaussian", self.SIGMA), self.seed)
        return truth, dist, obs

    def operate(self, inputs):
        truth, dist, obs = inputs
        try:
            result = solver.fit_pgd(obs, self.constraints, self.solver_cfg)
        except solver.DivergenceError:
            return None
        delta = result.completed - truth
        return result, _mean_sq(delta), core.pi_weighted_sq_norm(delta, dist)

    def check(self, inputs, raw) -> Outcome:
        if raw is None:
            return Outcome(math.nan, math.nan, attempted=1, failed=1, fits=1,
                           iterations=0, capped=0)
        result, mse, pi_mse = raw
        ok = _fit_ok(result) and math.isfinite(mse) and math.isfinite(pi_mse)
        return Outcome(mse, pi_mse, attempted=1, failed=int(not ok), fits=1,
                       iterations=result.iterations_run,
                       capped=int(result.iterations_run >= self.cap))

    def references(self, inputs, raw) -> dict:
        truth, _, obs = inputs
        return {"harness.mse_meanfill": _meanfill_mse(obs, truth)}


class GridSkewedDense(Workload):
    name = "grid-skewed-dense"
    why = ("n >= d1*d2 under power-law row sampling, so the residual gather dominates "
           "while the dense arrays stay small; mirror of fit-large-sparse")
    SIZES = {"full": {"d": 400, "rank": 5, "cap": 8},
             "tiny": {"d": 30, "rank": 2, "cap": 5}}
    SIGMA = 0.5
    ROW_EXPONENT = 0.7  # row marginals 1/i^0.7: mu ~ 2.9, L ~ 23 at d = 400
    N_MULTIPLES = (1, 2, 4)  # n grid in units of d1*d2, one replicate each

    def setup(self):
        d = self.d
        rows = 1.0 / np.arange(1, d + 1) ** self.ROW_EXPONENT
        dist = sampling.make_distribution("product", d, d, row_marginals=rows,
                                          col_marginals=np.ones(d))
        return harness.ExperimentConfig(
            d1=d, d2=d, rank=self.rank, alpha=1.0, truth_seed=self.TRUTH_SEED,
            distribution=dist, noise=sampling.NoiseModel("gaussian", self.SIGMA),
            n_grid=tuple(m * d * d for m in self.N_MULTIPLES), replicates=1,
            solver=solver.SolverConfig(k=self.rank + 1, max_iters=self.cap),
            base_seed=self.seed)

    def operate(self, cfg):
        return harness.run_experiment(cfg)

    def check(self, cfg, records) -> Outcome:
        failed = sum(
            not (r.status == "ok" and r.feasible_rows and r.feasible_linf
                 and math.isfinite(r.per_entry_mse) and math.isfinite(r.pi_weighted_mse))
            for r in records)
        return Outcome(
            mse=statistics.median(r.per_entry_mse for r in records),
            pi_mse=statistics.median(r.pi_weighted_mse for r in records),
            attempted=len(records), failed=failed, fits=len(records),
            iterations=sum(r.iterations for r in records),
            capped=sum(r.iterations >= self.cap for r in records))

    def references(self, cfg, records) -> dict:
        """Mean fill is scored on fresh samples of each grid size, median over the grid."""
        truth = harness.make_ground_truth(cfg.d1, cfg.d2, cfg.rank, cfg.alpha, cfg.truth_seed)
        meanfill = []
        for n in cfg.n_grid:
            idx = sampling.sample_indices(cfg.distribution, n, self.seed)
            meanfill.append(_meanfill_mse(sampling.observe(truth, idx, cfg.noise, self.seed),
                                          truth))
        slope = harness.fit_scaling_slope(records)
        return {"harness.mse_meanfill": statistics.median(meanfill),
                "harness.rate_slope": slope.slope, "harness.rate_slope_r2": slope.r2}


@contextmanager
def _fit_log(log: list):
    """Record (iterations_run, feasible) of every fit the rank search runs, None if it diverged."""
    inner = model_select.fit

    def fit(obs, constraints, cfg):
        try:
            result = inner(obs, constraints, cfg)
        except solver.DivergenceError:
            log.append(None)
            raise
        log.append((result.iterations_run, _fit_ok(result)))
        return result

    model_select.fit = fit
    try:
        yield
    finally:
        model_select.fit = inner


class RankSearchCli(Workload):
    name = "rank-search-cli"
    why = ("only workload on the text formats, dedupe, spectral profiles and the "
           "candidate loop: cli simulate, then cli rank-estimate on the written file")
    SIZES = {"full": {"d": 400, "rank": 4, "n": 64000, "r_max": 6, "cap": 40},
             "tiny": {"d": 24, "rank": 2, "n": 300, "r_max": 3, "cap": 5}}
    SIGMA = 0.1

    def __init__(self, scale, seed, workdir):
        super().__init__(scale, seed, workdir)
        self.truth_path = os.path.join(workdir, "truth.txt")
        self.obs_path = os.path.join(workdir, "obs.txt")
        self.report_path = os.path.join(workdir, "rank_report.txt")
        self._truth = None

    def setup(self):
        d = str(self.d)
        return cli.main(["simulate", "--d1", d, "--d2", d, "--rank", str(self.rank),
                         "--truth-seed", str(self.TRUTH_SEED), "--n", str(self.n),
                         "--noise", "gaussian", "--sigma", str(self.SIGMA),
                         "--seed", str(self.seed),
                         "--out-truth", self.truth_path, "--out-obs", self.obs_path])

    def check_setup(self, rc) -> tuple:
        return 1, int(rc != 0)

    def operate(self, rc_simulate):
        fits = []
        with _fit_log(fits):
            rc = cli.main(["rank-estimate", "--obs", self.obs_path, "--r-max", str(self.r_max),
                           "--max-iters", str(self.cap), "--seed", str(self.seed),
                           "--out", self.report_path])
        return rc, fits

    def truth(self):
        if self._truth is None:
            self._truth = core.load_dense(self.truth_path)
        return self._truth

    def check(self, rc_simulate, raw) -> Outcome:
        rc, fits = raw
        done = [f for f in fits if f is not None]
        failed_fits = len(fits) - sum(ok for _, ok in done)
        iterations = sum(it for it, _ in done)
        capped = sum(it >= self.cap for it, _ in done)
        report_ok, mse, pi_mse, rank_err = False, math.nan, math.nan, None
        if rc == 0:
            try:
                errors, r_star, completion = model_select.load_rank_report(self.report_path)
            except ValueError:  # includes ValidationError: the report does not parse
                errors, r_star, completion = [], None, np.empty((0, 0))
            report_ok = (completion.shape == (self.d, self.d) and len(errors) == self.r_max - 1
                         and r_star == min(errors, key=lambda e: e[1])[0])
        if report_ok:
            delta = completion - self.truth()
            mse = _mean_sq(delta)
            pi_mse = core.pi_weighted_sq_norm(
                delta, sampling.make_distribution("uniform", self.d, self.d))
            rank_err = abs(r_star - self.rank)
        command_failed = not (report_ok and math.isfinite(mse) and math.isfinite(pi_mse))
        return Outcome(mse, pi_mse, attempted=1 + len(fits),
                       failed=int(command_failed) + failed_fits, fits=len(fits),
                       iterations=iterations, capped=capped, rank_err=rank_err)

    def references(self, rc_simulate, raw) -> dict:
        return {"harness.mse_meanfill":
                _meanfill_mse(sampling.load_observations(self.obs_path), self.truth())}


WORKLOADS = {w.name: w for w in (FitLargeSparse, GridSkewedDense, RankSearchCli)}
