"""Rank estimation for partially observed matrices via spectral profiles.

A PartialMatrix is an ObservationSet with one observation per observed
cell, the mean of that cell's draws.  The search fills missing entries with
column means, takes per-column DFT magnitude profiles of that initial fill,
then for each candidate rank r solves the constrained completion with
radius alpha0 * sqrt(r) and scores the completion by the Frobenius distance
between its profile and the initial one.  The r minimizing that distance is
returned (smallest r on ties).  The candidate fits run on the observed
cells themselves; the column-mean fill is the one d1 x d2 array built
before them.
"""

from dataclasses import dataclass, replace

import numpy as np

from .core import (ConstraintSet, ValidationError, check_matrix, _frozen, _parse_rows,
                   format_dense, parse_dense)
from .sampling import ObservationSet
# Named `fit` here: bench/workloads.py::_fit_log patches model_select.fit to count candidate fits.
from .solver import SolverConfig, _dedupe_observations, fit_pgd as fit


class PartialMatrix(ObservationSet):
    """One observation per observed cell: the mean of the cell's draws.

    The cells are distinct and in row-major order; `from_observations`
    collapses repeated draws into this form.
    """

    def __post_init__(self):
        super().__post_init__()
        flat = self.indices[:, 0] * self.d2 + self.indices[:, 1]
        if (np.diff(flat) <= 0).any():
            raise ValidationError("partial matrix cells must be distinct and in row-major order")

    @classmethod
    def from_observations(cls, obs: ObservationSet) -> "PartialMatrix":
        """Collapse an observation list onto its cells, averaging duplicates."""
        cells = _dedupe_observations(obs)
        return cls(d1=obs.d1, d2=obs.d2, indices=np.column_stack([cells.rows, cells.cols]),
                   values=cells.means)


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

    def __post_init__(self):
        object.__setattr__(self, "chosen", _frozen(self.chosen))
        object.__setattr__(self, "profile_init", _frozen(self.profile_init))


def column_mean_init(P: PartialMatrix) -> np.ndarray:
    """Copy observed cells and fill each column's holes with its observed mean.

    A fully missing column falls back to the global observed mean.
    """
    rows, cols = P.indices.T
    M = np.zeros((P.d1, P.d2))
    M[rows, cols] = P.values
    counts = np.bincount(cols, minlength=P.d2)
    with np.errstate(over="ignore"):  # an overflow is reported below
        # Summed over the zero-filled grid: a np.bincount over the cells is
        # not bit-equal to it (numpy sums a single column, d2 = 1, pairwise).
        sums = M.sum(axis=0)
        global_mean = P.values.mean()
    col_means = np.where(counts > 0, sums / np.maximum(counts, 1), global_mean)
    if not np.isfinite(col_means).all():
        raise ValidationError("a column mean is not finite; "
                              "the observed values are too large in magnitude")
    M[:] = col_means  # then put the observed values back
    M[rows, cols] = P.values
    return M


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


def estimate_rank(P: PartialMatrix, cfg: RankSearchConfig) -> RankEstimate:
    """Search r = 2..r_max for the completion whose spectral profile moves least.

    Each candidate solves the constrained completion cold-started with
    alpha = alpha0, radius = alpha0 * sqrt(r), factor width r + 1.
    """
    if cfg.r_max > min(P.d1, P.d2):
        raise ValidationError(
            f"r_max={cfg.r_max} exceeds min(d1, d2) = {min(P.d1, P.d2)}"
        )
    profile0 = spectral_magnitude(column_mean_init(P))
    errors = []
    best = None  # (error, r, completion)
    for r in range(2, cfg.r_max + 1):
        result = fit(P, ConstraintSet(alpha=cfg.alpha0, radius=cfg.alpha0 * np.sqrt(r)),
                     replace(cfg.solver, k=r + 1))
        e = profile_distance(profile0, spectral_magnitude(result.completed))
        errors.append((r, e))
        if best is None or e < best[0]:
            best = (e, r, result.completed)
    # Free the last fit before RankEstimate copies two d1 x d2 arrays, so the
    # copies can reuse its memory instead of growing the heap.
    del result
    return RankEstimate(r_star=best[1], errors=tuple(errors), chosen=best[2],
                        profile_init=profile0)


# ---------------------------------------------------------------------------
# Report format: one "r,e_r" line per candidate, a line with the chosen r,
# then the completed matrix in the dense interchange format.

def format_rank_report(est: RankEstimate) -> str:
    lines = [f"{r},{e:.17g}" for r, e in est.errors]
    lines.append(str(est.r_star))
    return "\n".join(lines) + "\n" + format_dense(est.chosen)


def parse_rank_report(text: str):
    """Returns (errors, r_star, completion).

    The chosen-rank line is the first line without a comma.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    pos = next((t for t, ln in enumerate(lines) if "," not in ln), None)
    if pos is None:
        raise ValidationError("rank report missing chosen-rank line")
    errors = _parse_rows(lines[:pos], "i8,f8", "rank report error row").tolist()
    r_star = int(_parse_rows(lines[pos:pos + 1], np.int64, "rank report chosen-rank line")[0, 0])
    completion = parse_dense("\n".join(lines[pos + 1:]))
    return errors, r_star, completion


def save_rank_report(path, est: RankEstimate) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_rank_report(est))


def load_rank_report(path):
    with open(path, "r", encoding="ascii") as fh:
        return parse_rank_report(fh.read())
