"""Rank estimation for partially observed matrices via spectral profiles.

The search fills missing entries with column means, takes per-column DFT
magnitude profiles of that initial fill, then for each candidate rank r
solves the constrained completion with radius alpha0 * sqrt(r) and scores
the completion by the Frobenius distance between its profile and the
initial one.  The r minimizing that distance is returned (smallest r on
ties).  A radius-sweep variant searches over the radius directly instead
of the rank.
"""

from dataclasses import dataclass, replace

import numpy as np

from .core import ConstraintSet, ValidationError, check_matrix, _frozen, format_dense, parse_dense
from .sampling import ObservationSet
from .solver import DivergenceError, SolverConfig, _dedupe_observations, fit


@dataclass(frozen=True)
class PartialMatrix:
    """Observed mask plus values on a d1 x d2 grid (zeros where missing)."""

    d1: int
    d2: int
    mask: np.ndarray  # bool, True where observed
    values: np.ndarray  # float64, meaningful where mask is True

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool)
        vals = check_matrix(self.values, "values")
        if mask.shape != (self.d1, self.d2) or vals.shape != (self.d1, self.d2):
            raise ValidationError(
                f"mask/values shapes {mask.shape}/{vals.shape} do not match "
                f"({self.d1}, {self.d2})"
            )
        mask = np.ascontiguousarray(mask)
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "values", _frozen(np.where(mask, vals, 0.0)))

    @property
    def observed_count(self) -> int:
        return int(self.mask.sum())

    @classmethod
    def from_observations(cls, obs: ObservationSet) -> "PartialMatrix":
        """Collapse an observation list onto the grid, averaging duplicates."""
        cells = _dedupe_observations(obs)
        mask = np.zeros((obs.d1, obs.d2), dtype=bool)
        mask[cells.rows, cells.cols] = True
        vals = np.zeros((obs.d1, obs.d2))
        vals[cells.rows, cells.cols] = cells.means
        return cls(d1=obs.d1, d2=obs.d2, mask=mask, values=vals)

    def to_observations(self) -> ObservationSet:
        """One observation per observed cell."""
        if self.observed_count == 0:
            raise ValidationError("partial matrix has no observed entries")
        idx = np.argwhere(self.mask)
        return ObservationSet(d1=self.d1, d2=self.d2, indices=idx,
                              values=self.values[self.mask])


@dataclass(frozen=True)
class RankSearchConfig:
    alpha0: float
    r_max: int
    solver: SolverConfig  # template; k is overridden to r + 1 per candidate

    def __post_init__(self):
        if not (np.isfinite(self.alpha0) and self.alpha0 > 0):
            raise ValidationError(f"alpha0 must be positive, got {self.alpha0}")
        if self.r_max < 2:
            raise ValidationError(f"r_max must be >= 2, got {self.r_max}")


@dataclass(frozen=True)
class RankEstimate:
    r_star: int
    errors: tuple  # ((r, e_r), ...) for r = 2..r_max
    chosen: np.ndarray  # completion at r_star
    profile_init: np.ndarray  # magnitude profile of the column-mean fill
    profiles: dict | None = None  # optional per-r profiles

    def __post_init__(self):
        object.__setattr__(self, "chosen", _frozen(self.chosen))
        object.__setattr__(self, "profile_init", _frozen(self.profile_init))


@dataclass(frozen=True)
class RadiusSweep:
    radius_star: float
    errors: tuple  # ((radius, e), ...)
    chosen: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "chosen", _frozen(self.chosen))


def column_mean_init(P: PartialMatrix) -> np.ndarray:
    """Copy observed cells and fill each column's holes with its observed mean.

    A fully missing column falls back to the global observed mean.
    """
    if P.observed_count == 0:
        raise ValidationError("cannot column-mean fill a matrix with no observations")
    counts = P.mask.sum(axis=0)
    sums = P.values.sum(axis=0)
    global_mean = P.values[P.mask].mean()
    col_means = np.where(counts > 0, sums / np.maximum(counts, 1), global_mean)
    return np.where(P.mask, P.values, col_means[None, :])


def spectral_magnitude(M) -> np.ndarray:
    """Per-column unnormalized DFT magnitudes; output has the input's shape."""
    A = check_matrix(M)
    return np.abs(np.fft.fft(A, axis=0))


def profile_distance(F, F_r) -> float:
    """Frobenius distance between two magnitude profiles."""
    F = check_matrix(F, "profile")
    F_r = check_matrix(F_r, "profile")
    if F.shape != F_r.shape:
        raise ValidationError(f"profile shapes differ: {F.shape} vs {F_r.shape}")
    return float(np.linalg.norm(F - F_r))


def estimate_rank(P: PartialMatrix, cfg: RankSearchConfig,
                  keep_profiles: bool = False) -> RankEstimate:
    """Search r = 2..r_max for the completion whose spectral profile moves least.

    Each candidate solves the constrained completion cold-started with
    alpha = alpha0, radius = alpha0 * sqrt(r), factor width r + 1.  A solve
    that diverges scores infinity and the search continues; if every solve
    diverges the search itself fails.
    """
    if cfg.r_max > min(P.d1, P.d2):
        raise ValidationError(
            f"r_max={cfg.r_max} exceeds min(d1, d2) = {min(P.d1, P.d2)}"
        )
    obs = P.to_observations()
    profile0 = spectral_magnitude(column_mean_init(P))
    errors = []
    profiles = {} if keep_profiles else None
    best = None  # (e_r, r, completion)
    for r in range(2, cfg.r_max + 1):
        constraints = ConstraintSet(alpha=cfg.alpha0, radius=cfg.alpha0 * np.sqrt(r))
        solver_cfg = replace(cfg.solver, k=r + 1)
        try:
            result = fit(obs, constraints, solver_cfg)
        except DivergenceError:
            errors.append((r, float("inf")))
            continue
        profile_r = spectral_magnitude(result.completed)
        e_r = profile_distance(profile0, profile_r)
        errors.append((r, e_r))
        if profiles is not None:
            profiles[r] = profile_r
        if best is None or e_r < best[0]:
            best = (e_r, r, result.completed)
    if best is None:
        raise DivergenceError(iteration=cfg.r_max,
                              message="every candidate rank diverged in the rank search")
    return RankEstimate(r_star=best[1], errors=tuple(errors), chosen=best[2],
                        profile_init=profile0, profiles=profiles)


def radius_sweep(P: PartialMatrix, cfg: RankSearchConfig, delta: float | None = None,
                 radius_max: float | None = None) -> RadiusSweep:
    """Alternative search over the radius: alpha0*sqrt(2), += delta, up to radius_max.

    Default step is alpha0 * (sqrt(2) - 1); default cap alpha0 * sqrt(r_max).
    The solver template's factor width is used as-is.
    """
    if delta is None:
        delta = cfg.alpha0 * (np.sqrt(2.0) - 1.0)
    if not delta > 0:
        raise ValidationError(f"delta must be positive, got {delta}")
    if radius_max is None:
        radius_max = cfg.alpha0 * np.sqrt(cfg.r_max)
    obs = P.to_observations()
    profile0 = spectral_magnitude(column_mean_init(P))
    errors = []
    best = None
    radius = cfg.alpha0 * np.sqrt(2.0)
    while radius <= radius_max + 1e-12:
        try:
            result = fit(obs, ConstraintSet(alpha=cfg.alpha0, radius=radius), cfg.solver)
        except DivergenceError:
            errors.append((radius, float("inf")))
            radius += delta
            continue
        e = profile_distance(profile0, spectral_magnitude(result.completed))
        errors.append((radius, e))
        if best is None or e < best[0]:
            best = (e, radius, result.completed)
        radius += delta
    if best is None:
        raise DivergenceError(iteration=len(errors),
                              message="every candidate radius diverged in the sweep")
    return RadiusSweep(radius_star=best[1], errors=tuple(errors), chosen=best[2])


# ---------------------------------------------------------------------------
# Report format: one "r,e_r" line per candidate, a line with the chosen r,
# then the completed matrix in the dense interchange format.

def format_rank_report(est: RankEstimate) -> str:
    lines = [f"{r},{e:.17g}" for r, e in est.errors]
    lines.append(str(est.r_star))
    return "\n".join(lines) + "\n" + format_dense(est.chosen)


def parse_rank_report(text: str):
    """Returns (errors, r_star, completion)."""
    lines = text.splitlines()
    errors = []
    pos = 0
    for ln in lines:
        toks = ln.split(",")
        if len(toks) == 2 and "." not in toks[0]:
            try:
                errors.append((int(toks[0]), float(toks[1])))
                pos += 1
                continue
            except ValueError:
                pass
        break
    if pos >= len(lines):
        raise ValidationError("rank report missing chosen-rank line")
    r_star = int(lines[pos])
    completion = parse_dense("\n".join(lines[pos + 1:]))
    return errors, r_star, completion


def save_rank_report(path, est: RankEstimate) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_rank_report(est))


def load_rank_report(path):
    with open(path, "r", encoding="ascii") as fh:
        return parse_rank_report(fh.read())
