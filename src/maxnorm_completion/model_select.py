"""Rank estimation for partially observed matrices via spectral profiles.

A PartialMatrix is an ObservationSet with one observation per observed
cell, the mean of that cell's draws.  The search fills missing entries with
column means, takes per-column DFT magnitude profiles of that initial fill,
then for each candidate rank r solves the constrained completion with
radius alpha0 * sqrt(r) and scores the completion by the Frobenius distance
between its profile and the initial one.  The r minimizing that distance is
returned (smallest r on ties).  The candidate fits run on the observed
cells, or on the whole grid once at least a quarter of the cells are
observed (see solver._fit_layout).  A PartialMatrix has n = m, so its
cells are counted onto the grid exactly when the grid is kept, and sorted
otherwise.
Besides the fill's profile, the search holds at most two completions at a
time: the best so far and the candidate being scored.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (ConstraintSet, ValidationError, check_matrix, _dense_lines, _dot, _frozen,
                   _nonblank_lines, _parse_rows, _read_dense)
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
        # Compared lexicographically: a flat index row * d2 + col overflows
        # int64 once d1 * d2 > 2^63.
        dr, dc = np.diff(self.indices, axis=0).T
        if ((dr < 0) | ((dr == 0) & (dc <= 0))).any():
            raise ValidationError("partial matrix cells must be distinct and in row-major order")

    @classmethod
    def from_observations(cls, obs: ObservationSet) -> "PartialMatrix":
        """Collapse an observation list onto its cells, averaging duplicates.

        The dedupe's cells are distinct, in row-major order and on the grid,
        and their means are finite and fresh, so they are kept as they are,
        with no second check.
        """
        cells = _dedupe_observations(obs)
        rows = np.repeat(cells.row_ids, cells.row_counts)
        return cls._checked(obs.d1, obs.d2, np.column_stack([rows, cells.cols]), cells.means)


@dataclass(frozen=True)
class RankSearchConfig:
    alpha0: float
    r_max: int
    solver: SolverConfig  # template; k is overridden to r + 1 per candidate

    def __post_init__(self):
        if not (math.isfinite(self.alpha0) and self.alpha0 > 0):
            raise ValidationError(f"alpha0 must be positive, got {self.alpha0}")
        if self.r_max < 2:
            raise ValidationError(f"r_max must be >= 2, got {self.r_max}")


@dataclass(frozen=True, eq=False)
class RankEstimate:
    r_star: int
    errors: tuple  # ((r, e_r), ...) for r = 2..r_max
    chosen: np.ndarray  # completion at r_star

    def __post_init__(self):
        object.__setattr__(self, "chosen", _frozen(self.chosen))


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
    D = (F - F_r).ravel()
    return float(np.sqrt(_dot(D, D)))


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
        # The fit's result is dropped at once; its completion is built once.
        completed = fit(P, ConstraintSet(alpha=cfg.alpha0, radius=cfg.alpha0 * np.sqrt(r)),
                        replace(cfg.solver, k=r + 1)).completed
        e = profile_distance(profile0, spectral_magnitude(completed))
        errors.append((r, e))
        if best is None or e < best[0]:
            best = (e, r, completed)
        # Free this completion, unless it is the best, before the next fit.
        del completed
    return RankEstimate(r_star=best[1], errors=tuple(errors), chosen=best[2])


# ---------------------------------------------------------------------------
# Report format: one "r,e_r" line per candidate, a line with the chosen r,
# then the completed matrix in the dense interchange format.  The writer
# writes a line at a time; the reader streams the file's nonblank lines,
# collecting the error rows up to the first line with no comma and handing
# the rest of the same stream to the dense reader (see `core`).

def save_rank_report(path, est: RankEstimate) -> None:
    """Write the report one line at a time, never holding the whole text."""
    chosen = check_matrix(est.chosen)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(f"{r},{e:.17g}\n" for r, e in est.errors)
        fh.write(f"{est.r_star}\n")
        fh.writelines(_dense_lines(chosen))


def load_rank_report(path):
    """Returns (errors, r_star, completion).

    The chosen-rank line is the first line without a comma.  As
    `estimate_rank` writes them, the error rows list each rank once, in
    increasing order, and the chosen rank is the first with the least error.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = _nonblank_lines(fh)
        error_rows = []
        for ln in lines:
            if "," not in ln:
                chosen_line = ln
                break
            error_rows.append(ln)
        else:
            raise ValidationError("rank report missing chosen-rank line")
        errors = _parse_rows(iter(error_rows), "i8,f8", "rank report error row").tolist()
        r_star = int(_parse_rows(iter([chosen_line]), np.int64,
                                 "rank report chosen-rank line")[0, 0])
        ranks = [r for r, _ in errors]
        if any(a >= b for a, b in zip(ranks, ranks[1:])):
            raise ValidationError(f"rank report error rows must list each rank once, in "
                                  f"increasing order, got ranks {ranks}")
        if r_star not in ranks:
            raise ValidationError(f"rank report chosen-rank line names r = {r_star}, "
                                  f"which no error row lists")
        # min keeps the first of equal errors, as estimate_rank's strict `<` does.
        least = min(errors, key=lambda row: row[1])[0]
        if r_star != least:
            raise ValidationError(f"rank report chosen-rank line names r = {r_star}, "
                                  f"but the first rank with the least error is r = {least}")
        return errors, r_star, _read_dense(lines)
