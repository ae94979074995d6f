"""Experiment orchestration: seeded trials over a sample-size grid.

A trial samples indices, observes a fixed ground truth under the noise
model, fits the constrained estimator, and records the per-entry and
sampling-weighted squared errors.  Trial seeds derive deterministically
from (base seed, grid position, replicate), so runs are reproducible and
trials could execute concurrently; records are always emitted sorted by
(n, replicate).  fit_scaling_slope regresses log median error on log n,
which is how the sqrt(d/n) convergence rate is checked empirically.
"""

import time
from dataclasses import dataclass, replace

import numpy as np

from . import _rng
from .core import ConstraintSet, ValidationError, _parse_rows, check_matrix, pi_weighted_sq_norm
from .sampling import NoiseModel, SamplingDistribution, make_distribution, observe, sample_indices
from .solver import DEFAULT_MAX_ITERS, DEFAULT_TAU, DEFAULT_TOL, SolverConfig, fit_pgd

CSV_HEADER = ("n,replicate,seed,per_entry_mse,pi_weighted_mse,runtime_ms,"
              "iterations,feasible_rows,feasible_linf,status")

RADIUS_RULE_SQRT_RANK = "alpha_sqrt_rank"


@dataclass(frozen=True)
class ExperimentConfig:
    d1: int
    d2: int
    rank: int
    alpha: float
    truth_seed: int
    distribution: SamplingDistribution
    noise: NoiseModel
    n_grid: tuple
    replicates: int
    solver: SolverConfig
    base_seed: int = 0
    constraint_alpha: float | None = None  # None: use the ground truth's alpha
    radius: float | None = None  # None: the constraint alpha * sqrt(rank)
    output_path: str | None = None

    def __post_init__(self):
        if self.rank < 1 or self.rank > min(self.d1, self.d2):
            raise ValidationError(f"rank must be in [1, min(d1, d2)], got {self.rank}")
        grid = tuple(int(n) for n in self.n_grid)
        if len(grid) == 0:
            raise ValidationError("n grid must be nonempty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValidationError(f"n grid must be strictly increasing, got {grid}")
        if any(n < 1 for n in grid):
            raise ValidationError("sample sizes must be positive")
        if self.replicates < 1:
            raise ValidationError(f"replicates must be >= 1, got {self.replicates}")
        if self.radius is not None and not self.radius > 0:
            raise ValidationError(f"radius must be positive, got {self.radius}")
        if (self.distribution.d1, self.distribution.d2) != (self.d1, self.d2):
            raise ValidationError("sampling distribution shape does not match the grid")
        object.__setattr__(self, "n_grid", grid)

    def constraints(self) -> ConstraintSet:
        alpha = self.alpha if self.constraint_alpha is None else self.constraint_alpha
        radius = alpha * float(np.sqrt(self.rank)) if self.radius is None else self.radius
        return ConstraintSet(alpha=alpha, radius=radius)


@dataclass(frozen=True)
class TrialRecord:
    n: int
    replicate: int
    seed: int
    per_entry_mse: float
    pi_weighted_mse: float
    runtime_ms: float
    iterations: int
    feasible_rows: bool
    feasible_linf: bool
    status: str  # "ok"; files written by older versions may also hold "diverged"


def make_ground_truth(d1: int, d2: int, rank: int, alpha: float, seed: int) -> np.ndarray:
    """Rank-`rank` product of i.i.d. uniform factors, rescaled to max entry alpha.

    The result lies in the feasible set with radius alpha * sqrt(rank): its
    rank is `rank` and its elementwise max is alpha.
    """
    if rank < 1 or rank > min(d1, d2):
        raise ValidationError(f"rank must be in [1, min(d1, d2)], got {rank}")
    if not alpha > 0:
        raise ValidationError(f"alpha must be positive, got {alpha}")
    rng = _rng.stream_rng(seed, _rng.GROUND_TRUTH)
    A = rng.random((d1, rank))
    B = rng.random((d2, rank))
    M = A @ B.T
    # Iterate the rescale: one pass can land a unit in the last place short.
    for _ in range(4):
        m = max(M.max(), -M.min())
        if m == alpha:
            break
        M *= alpha / m
    return M


def run_trial(M0, distribution, noise, constraints, solver_cfg, n, seed,
              clock=None) -> TrialRecord:
    """One seeded sample/observe/fit cycle against a known ground truth."""
    if clock is None:
        clock = time.perf_counter
    M0 = check_matrix(M0, "M0")
    idx = sample_indices(distribution, n, seed)
    obs = observe(M0, idx, noise, seed)
    start = clock()
    result = fit_pgd(obs, constraints, replace(solver_cfg, seed=seed))
    runtime_ms = (clock() - start) * 1000.0
    delta = result.completed - M0
    per_entry = float((delta * delta).sum()) / (M0.shape[0] * M0.shape[1])
    weighted = pi_weighted_sq_norm(delta, distribution)
    return TrialRecord(n=n, replicate=-1, seed=seed, per_entry_mse=per_entry,
                       pi_weighted_mse=weighted, runtime_ms=runtime_ms,
                       iterations=result.iterations_run,
                       feasible_rows=result.feasible_rows,
                       feasible_linf=result.feasible_linf, status="ok")


def run_experiment(cfg: ExperimentConfig, clock=None) -> list:
    """All (n, replicate) trials, in canonical order, persisted incrementally.

    With cfg.output_path set, rows are appended to the CSV as they finish.
    `clock` replaces time.perf_counter for the runtime column.
    """
    M0 = make_ground_truth(cfg.d1, cfg.d2, cfg.rank, cfg.alpha, cfg.truth_seed)
    constraints = cfg.constraints()
    records = []
    out = open(cfg.output_path, "w", encoding="ascii", newline="\n") if cfg.output_path else None
    try:
        if out:
            out.write(CSV_HEADER + "\n")
            out.flush()
        for ni, n in enumerate(cfg.n_grid):
            for rep in range(cfg.replicates):
                seed = _rng.derive_seed(cfg.base_seed, ni, rep)
                rec = run_trial(M0, cfg.distribution, cfg.noise, constraints,
                                cfg.solver, n, seed, clock=clock)
                rec = replace(rec, replicate=rep)
                records.append(rec)
                if out:
                    out.write(format_record(rec) + "\n")
                    out.flush()
    finally:
        if out:
            out.close()
    return records


def format_record(rec: TrialRecord) -> str:
    return ",".join([
        str(rec.n), str(rec.replicate), str(rec.seed),
        f"{rec.per_entry_mse:.17g}", f"{rec.pi_weighted_mse:.17g}",
        f"{rec.runtime_ms:.3f}", str(rec.iterations),
        "true" if rec.feasible_rows else "false",
        "true" if rec.feasible_linf else "false",
        rec.status,
    ])


def read_records_csv(path) -> list:
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValidationError(f"bad records CSV header in {path}")
    if len(lines) == 1:
        return []  # a run that has not finished a trial yet
    # The columns of CSV_HEADER; the two feasibility flags and the status stay strings.
    rows = _parse_rows(lines[1:], "i8,i8,i8,f8,f8,f8,i8,O,O,O", "records CSV row")
    return [TrialRecord(*row[:7], feasible_rows=row[7] == "true",
                        feasible_linf=row[8] == "true", status=row[9])
            for row in rows.tolist()]


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    r2: float


def median_mse_by_n(records) -> dict:
    """Median per-entry MSE of the successful trials, keyed by n."""
    by_n = {}
    for rec in records:
        if rec.status == "ok":
            by_n.setdefault(rec.n, []).append(rec.per_entry_mse)
    return {n: float(np.median(v)) for n, v in sorted(by_n.items())}


def fit_scaling_slope(records) -> SlopeFit:
    """OLS of log median MSE on log n; the rate exponent is the slope.

    Medians (not means) aggregate each n: the convergence guarantee is a
    high-probability statement and medians shrug off rare bad trials.
    """
    med = median_mse_by_n(records)
    if len(med) < 3:
        raise ValidationError(
            f"slope fit needs >= 3 distinct sample sizes, got {len(med)}"
        )
    x = np.log(np.array(list(med.keys()), dtype=np.float64))
    y = np.log(np.maximum(np.array(list(med.values())), 1e-300))
    X = np.column_stack([x, np.ones_like(x)])
    coef, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = y - X @ coef
    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 and ss_res < 1e-30 else 1.0 - ss_res / max(ss_tot, 1e-300)
    return SlopeFit(slope=slope, intercept=intercept, r2=r2)


# ---------------------------------------------------------------------------
# Config file: flat "key = value" lines, "#" comments, dotted section
# prefixes.  The keys are listed in parse_config_text.

_REQUIRED_KEYS = ("truth.d1", "truth.d2", "truth.rank", "truth.alpha", "grid.n")

_KNOWN_KEYS = {
    "truth.d1", "truth.d2", "truth.rank", "truth.alpha", "truth.seed",
    "sampling.kind", "sampling.row_marginals", "sampling.col_marginals",
    "sampling.file",
    "noise.kind", "noise.sigma",
    "grid.n", "grid.replicates",
    "constraints.alpha", "constraints.radius_rule",
    "solver.k", "solver.tau", "solver.max_iters", "solver.tol",
    "experiment.seed", "output.path",
}


def _list_of(convert):
    """A converter of comma-separated text to a list of `convert`ed items."""
    return lambda text: [convert(t) for t in text.split(",")]


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse an experiment config.

    One "key = value" per line; "#" starts a comment.  An unknown or repeated
    key is an error; lists are comma-separated.  Keys and defaults:

      truth.d1, truth.d2, truth.rank, truth.alpha: required; truth.seed = 0
      sampling.kind = uniform | product | file; product reads the weight lists
          sampling.row_marginals and sampling.col_marginals, file sampling.file
      noise.kind = none | gaussian | laplace; noise.sigma = 0
      grid.n: required, strictly increasing; grid.replicates = 1
      constraints.alpha = auto, meaning truth.alpha
      constraints.radius_rule = alpha_sqrt_rank (alpha * sqrt(truth.rank)),
          or a number: a fixed radius
      solver.k = auto, meaning truth.rank + 1; solver.tau = 0.1;
          solver.max_iters = 5000; solver.tol = 1e-7
      experiment.seed = 0; output.path: unset, else the records CSV is written there
    """
    kv, line_of = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ValidationError(f"config line {lineno}: unknown key {key!r}")
        if key in kv:
            raise ValidationError(f"config line {lineno}: duplicate key {key!r}")
        kv[key], line_of[key] = value, lineno
    for key in _REQUIRED_KEYS:
        if key not in kv:
            raise ValidationError(f"config is missing required key {key!r}")

    def get(key, convert, default=None):
        """kv[key] passed through `convert`, or `default` if the key is unset."""
        if key not in kv:
            return default
        try:
            return convert(kv[key])
        except ValueError as exc:
            raise ValidationError(
                f"config line {line_of[key]}: bad value for {key!r}: {exc}") from None

    d1 = get("truth.d1", int)
    d2 = get("truth.d2", int)
    rank = get("truth.rank", int)
    alpha = get("truth.alpha", float)
    truth_seed = get("truth.seed", int, 0)

    kind = kv.get("sampling.kind", "uniform")
    if kind == "file":
        from .sampling import load_distribution
        dist = load_distribution(kv["sampling.file"])
    elif kind == "product":
        dist = make_distribution("product", d1, d2,
                                 row_marginals=get("sampling.row_marginals", _list_of(float)),
                                 col_marginals=get("sampling.col_marginals", _list_of(float)))
    elif kind == "uniform":
        dist = make_distribution("uniform", d1, d2)
    else:
        raise ValidationError(f"unsupported sampling.kind {kind!r} in config")

    noise = NoiseModel(kind=kv.get("noise.kind", "none"), sigma=get("noise.sigma", float, 0.0))

    n_grid = tuple(get("grid.n", _list_of(int)))
    replicates = get("grid.replicates", int, 1)

    constraint_alpha = (None if kv.get("constraints.alpha", "auto") == "auto"
                        else get("constraints.alpha", float))
    rule_text = kv.get("constraints.radius_rule", RADIUS_RULE_SQRT_RANK)
    radius = None if rule_text == RADIUS_RULE_SQRT_RANK else get("constraints.radius_rule", float)

    k = rank + 1 if kv.get("solver.k", "auto") == "auto" else get("solver.k", int)
    solver = SolverConfig(
        k=k,
        tau=get("solver.tau", float, DEFAULT_TAU),
        max_iters=get("solver.max_iters", int, DEFAULT_MAX_ITERS),
        tol=get("solver.tol", float, DEFAULT_TOL),
    )

    return ExperimentConfig(
        d1=d1, d2=d2, rank=rank, alpha=alpha, truth_seed=truth_seed,
        distribution=dist, noise=noise, n_grid=n_grid, replicates=replicates,
        solver=solver, base_seed=get("experiment.seed", int, 0),
        constraint_alpha=constraint_alpha, radius=radius,
        output_path=kv.get("output.path"),
    )


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
