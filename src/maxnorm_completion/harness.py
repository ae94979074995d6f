"""Experiment orchestration: seeded trials over a sample-size grid.

A trial samples indices, observes a fixed ground truth under the noise
model, fits the constrained estimator, and records the per-entry and
sampling-weighted squared errors.  The errors are summed in row blocks of
the fitted product, each weighted by the sampling distribution itself, so a
trial builds no d1 x d2 array besides the truth it is given: no completion,
no error matrix, no weights.  Trial seeds derive deterministically
from (base seed, grid position, replicate), so runs are reproducible and
trials could execute concurrently; records are always emitted sorted by
(n, replicate).  fit_scaling_slope regresses log median error on log n,
which is how the sqrt(d/n) convergence rate is checked empirically.
"""

import math
import time
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from . import _rng, solver
from .core import ConstraintSet, Factorization, ValidationError, _nonblank_lines, _parse_rows
from .sampling import (NOISE_KINDS, NoiseModel, SamplingDistribution, make_distribution,
                       observe, sample_indices)
from .solver import DEFAULT_MAX_ITERS, DEFAULT_TAU, DEFAULT_TOL, SolverConfig, fit_pgd

CSV_HEADER = ("n,replicate,seed,per_entry_mse,pi_weighted_mse,runtime_ms,"
              "iterations,feasible_rows,feasible_linf,status")
# The tokens of the two feasibility columns, and the statuses a records CSV may hold.
_CSV_FLAGS = {"true": True, "false": False}
_STATUSES = ("ok", "diverged")

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
        self.constraints()  # ConstraintSet checks the constraint alpha and the radius
        if (self.distribution.d1, self.distribution.d2) != (self.d1, self.d2):
            raise ValidationError("sampling distribution shape does not match the grid")
        object.__setattr__(self, "n_grid", grid)

    def constraints(self) -> ConstraintSet:
        alpha = self.alpha if self.constraint_alpha is None else self.constraint_alpha
        radius = alpha * math.sqrt(self.rank) if self.radius is None else self.radius
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
    # The factors are nonnegative, so max |M| is max M; rounding is
    # monotone, so after M *= c the max is exactly m * c.  M is scanned once.
    m = M.max()
    for _ in range(4):
        if m == alpha:
            break
        c = alpha / m
        M *= c
        m = m * c
    return M


def run_trial(M0, distribution, noise, constraints, solver_cfg, n, seed,
              clock=None) -> TrialRecord:
    """One seeded sample/observe/fit cycle against a known ground truth.

    M0's entries are checked by `observe`: one scan of the truth per trial.
    """
    if clock is None:
        clock = time.perf_counter
    M0 = np.asarray(M0, dtype=np.float64)
    if (distribution.d1, distribution.d2) != M0.shape:
        raise ValidationError(f"distribution shape {(distribution.d1, distribution.d2)} "
                              f"does not match M0 shape {M0.shape}")
    idx = sample_indices(distribution, n, seed)
    obs = observe(M0, idx, noise, seed)
    start = clock()
    result = fit_pgd(obs, constraints, replace(solver_cfg, seed=seed))
    runtime_ms = (clock() - start) * 1000.0
    sq, weighted = _sq_errors(result.factorization, M0, distribution)
    return TrialRecord(n=n, replicate=-1, seed=seed, per_entry_mse=sq / M0.size,
                       pi_weighted_mse=weighted, runtime_ms=runtime_ms,
                       iterations=result.iterations_run,
                       feasible_rows=result.feasible_rows,
                       feasible_linf=result.feasible_linf, status="ok")


def _sq_errors(F: Factorization, M0: np.ndarray, distribution) -> tuple:
    """sum (U V^T - M0)^2 and sum pi * (U V^T - M0)^2, as two floats.

    Row blocks of at most solver.PRODUCT_BLOCK_CELLS cells (one row if a row
    is longer) are multiplied out into one reused buffer, the truth
    subtracted in place, and squared and summed by einsum, whose order does
    not depend on the BLAS thread count.  The distribution weighs each block itself
    (`_weighted_sq_sum`), so a one-block grid scores as pi_weighted_sq_norm
    of the dense error, bit for bit.
    """
    U, V = F.U, F.V
    d1, d2 = M0.shape
    step = max(1, solver.PRODUCT_BLOCK_CELLS // d2)
    D = np.empty((min(step, d1), d2))
    sq = weighted = 0.0
    for r0 in range(0, d1, step):
        r1 = min(r0 + step, d1)
        blk = np.matmul(U[r0:r1], V.T, out=D[:r1 - r0])
        blk -= M0[r0:r1]
        sq += float(np.einsum("ij,ij->", blk, blk))
        weighted += distribution._weighted_sq_sum(blk, r0)
    return sq, weighted


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
        lines = _nonblank_lines(fh)
        if next(lines, None) != CSV_HEADER:
            raise ValidationError(f"bad records CSV header in {path}")
        first = next(lines, None)
        if first is None:
            return []  # a run that has not finished a trial yet
        # The columns of CSV_HEADER; the two feasibility flags and the status stay strings.
        rows = _parse_rows(chain([first], lines), "i8,i8,i8,f8,f8,f8,i8,O,O,O",
                           "records CSV row").tolist()
    records = []
    for row in rows:
        if row[7] not in _CSV_FLAGS or row[8] not in _CSV_FLAGS or row[9] not in _STATUSES:
            raise ValidationError(f"bad records CSV row {row}: the flags must be true or "
                                  f"false, the status one of {_STATUSES}")
        records.append(TrialRecord(*row[:7], feasible_rows=_CSV_FLAGS[row[7]],
                                   feasible_linf=_CSV_FLAGS[row[8]], status=row[9]))
    return records


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
# prefixes.  Each key's converter and default are in _CONFIG_KEYS.


def _list_of(convert):
    """A converter of comma-separated text to a list of `convert`ed items."""
    return lambda text: [convert(t) for t in text.split(",")]


def _one_of(choices):
    """A converter that passes text through if it is one of `choices`."""
    def convert(text):
        if text not in choices:
            raise ValueError(f"must be one of {choices}, got {text!r}")
        return text
    return convert


def _none_if(word, convert):
    """A converter of `word` to None, and of any other text by `convert`."""
    return lambda text: None if text == word else convert(text)


_REQUIRED = object()  # the default of a key that must be set

# key -> (converter of its text, default)
_CONFIG_KEYS = {
    "truth.d1": (int, _REQUIRED), "truth.d2": (int, _REQUIRED),
    "truth.rank": (int, _REQUIRED), "truth.alpha": (float, _REQUIRED),
    "truth.seed": (int, 0),
    "sampling.kind": (_one_of(("uniform", "product", "file")), "uniform"),
    "sampling.row_marginals": (_list_of(float), None),
    "sampling.col_marginals": (_list_of(float), None),
    "sampling.file": (str, None),
    "noise.kind": (_one_of(NOISE_KINDS), "none"), "noise.sigma": (float, 0.0),
    "grid.n": (_list_of(int), _REQUIRED), "grid.replicates": (int, 1),
    "constraints.alpha": (_none_if("auto", float), None),
    "constraints.radius_rule": (_none_if(RADIUS_RULE_SQRT_RANK, float), None),
    "solver.k": (_none_if("auto", int), None), "solver.tau": (float, DEFAULT_TAU),
    "solver.max_iters": (int, DEFAULT_MAX_ITERS), "solver.tol": (float, DEFAULT_TOL),
    "experiment.seed": (int, 0), "output.path": (str, None),
}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse an experiment config.

    One "key = value" per line; "#" starts a comment.  An unknown or repeated
    key is an error, and so is a value its key cannot take, reported with
    its line; lists are comma-separated.  Keys and defaults:

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
    cfg = {key: default for key, (_, default) in _CONFIG_KEYS.items()}
    line_of = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValidationError(f"config line {lineno}: unknown key {key!r}")
        if key in line_of:
            raise ValidationError(f"config line {lineno}: duplicate key {key!r}")
        line_of[key] = lineno
        try:
            cfg[key] = _CONFIG_KEYS[key][0](value)
        except ValueError as exc:
            raise ValidationError(
                f"config line {lineno}: bad value for {key!r}: {exc}") from None
    for key, value in cfg.items():
        if value is _REQUIRED:
            raise ValidationError(f"config is missing required key {key!r}")

    d1, d2, rank = cfg["truth.d1"], cfg["truth.d2"], cfg["truth.rank"]
    kind = cfg["sampling.kind"]
    if kind == "file":
        if cfg["sampling.file"] is None:
            raise ValidationError(f"config line {line_of['sampling.kind']}: "
                                  "sampling.kind = file requires 'sampling.file'")
        from .sampling import load_distribution
        dist = load_distribution(cfg["sampling.file"])
    elif kind == "product":
        dist = make_distribution("product", d1, d2, row_marginals=cfg["sampling.row_marginals"],
                                 col_marginals=cfg["sampling.col_marginals"])
    else:
        dist = make_distribution("uniform", d1, d2)

    noise = NoiseModel(kind=cfg["noise.kind"], sigma=cfg["noise.sigma"])
    k = rank + 1 if cfg["solver.k"] is None else cfg["solver.k"]
    solver_cfg = SolverConfig(k=k, tau=cfg["solver.tau"], max_iters=cfg["solver.max_iters"],
                              tol=cfg["solver.tol"])
    return ExperimentConfig(
        d1=d1, d2=d2, rank=rank, alpha=cfg["truth.alpha"], truth_seed=cfg["truth.seed"],
        distribution=dist, noise=noise, n_grid=tuple(cfg["grid.n"]),
        replicates=cfg["grid.replicates"], solver=solver_cfg,
        base_seed=cfg["experiment.seed"], constraint_alpha=cfg["constraints.alpha"],
        radius=cfg["constraints.radius_rule"], output_path=cfg["output.path"],
    )


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
