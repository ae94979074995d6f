"""Sampling distributions on the index grid and the noisy observation model.

Indices are drawn i.i.d. with replacement from a distribution over the
d1 x d2 grid; each draw t observes Y_t = M0[i_t, j_t] + sigma * xi_t with
fresh unit-variance noise per draw.  Both steps are seeded and reproducible:
identical seeds give identical index sequences and identical noise.

The index draw is inverse-CDF on the flattened distribution and equals
numpy's `Generator.choice` with `p` draw for draw; its keys are sorted only
to speed up the search (see `sample_indices`).
"""

from dataclasses import dataclass

import numpy as np

from . import _rng
from .core import ValidationError, check_matrix, _frozen

PROB_SUM_TOL = 1e-9

# Laplace scale giving unit variance (var = 2 * scale^2).
LAPLACE_UNIT_SCALE = 1.0 / np.sqrt(2.0)

NOISE_KINDS = ("gaussian", "laplace", "none")


@dataclass(frozen=True)
class SamplingDistribution:
    """Probabilities over the index grid, plus its flatness parameters.

    mu >= 1 measures how far the smallest cell probability sits below
    uniform (mu = 1 / (d1*d2*min prob)); L >= 1 how far the largest sits
    above (L = d1*d2*max prob).  Uniform sampling has mu = L = 1.
    """

    d1: int
    d2: int
    probs: np.ndarray
    kind: str

    def __post_init__(self):
        probs = check_matrix(self.probs, "probs")
        if probs.shape != (self.d1, self.d2):
            raise ValidationError(
                f"probs shape {probs.shape} does not match ({self.d1}, {self.d2})"
            )
        if (probs < 0).any():
            raise ValidationError("probabilities must be nonnegative")
        total = probs.sum()
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValidationError(f"probabilities must sum to 1, got {total!r}")
        object.__setattr__(self, "probs", _frozen(probs))

    @property
    def mu(self) -> float:
        pmin = float(self.probs.min())
        if pmin <= 0.0:
            return float("inf")
        return 1.0 / (self.d1 * self.d2 * pmin)

    @property
    def L(self) -> float:
        return self.d1 * self.d2 * float(self.probs.max())


@dataclass(frozen=True)
class NoiseModel:
    """Additive noise spec: unit-variance draws of `kind`, scaled by sigma."""

    kind: str
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValidationError(f"noise kind must be one of {NOISE_KINDS}, got {self.kind!r}")
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValidationError(f"sigma must be nonnegative and finite, got {self.sigma}")


@dataclass(frozen=True)
class ObservationSet:
    """n index/value pairs from the observation model, with the grid shape."""

    d1: int
    d2: int
    indices: np.ndarray  # (n, 2) int64
    values: np.ndarray  # (n,) float64

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        vals = np.asarray(self.values, dtype=np.float64)
        if idx.ndim != 2 or idx.shape[1] != 2 or idx.shape[0] == 0:
            raise ValidationError(f"indices must have shape (n, 2), got {idx.shape}")
        if vals.shape != (idx.shape[0],):
            raise ValidationError(
                f"values length {vals.shape} does not match {idx.shape[0]} indices"
            )
        if not np.isfinite(vals).all():
            raise ValidationError("observation values contain non-finite entries")
        if (idx[:, 0] < 0).any() or (idx[:, 0] >= self.d1).any() \
                or (idx[:, 1] < 0).any() or (idx[:, 1] >= self.d2).any():
            raise ValidationError("observation indices out of range")
        idx = np.ascontiguousarray(idx)
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", _frozen(vals))

    @property
    def n(self) -> int:
        return self.indices.shape[0]


def make_distribution(kind: str, d1: int, d2: int, *, row_marginals=None,
                      col_marginals=None, probs=None,
                      require_positive: bool = True) -> SamplingDistribution:
    """Build a normalized sampling distribution on the d1 x d2 grid.

    kind is one of:
      "uniform"  -- every cell 1/(d1*d2);
      "product"  -- probs[k,l] = row_marginals[k] * col_marginals[l]
                    (marginals are normalized first);
      "explicit" -- probs given directly (normalized).

    With require_positive (the default), any zero cell is rejected: a cell
    that can never be observed makes the flatness parameter mu infinite.
    """
    if d1 < 1 or d2 < 1:
        raise ValidationError(f"grid dimensions must be positive, got ({d1}, {d2})")
    if kind == "uniform":
        p = np.full((d1, d2), 1.0 / (d1 * d2))
    elif kind == "product":
        row = _normalized_marginal(row_marginals, d1, "row_marginals")
        col = _normalized_marginal(col_marginals, d2, "col_marginals")
        p = np.outer(row, col)
    elif kind == "explicit":
        if probs is None:
            raise ValidationError("explicit distribution requires probs")
        p = check_matrix(probs, "probs")
        if p.shape != (d1, d2):
            raise ValidationError(f"probs shape {p.shape} does not match ({d1}, {d2})")
        if (p < 0).any():
            raise ValidationError("probabilities must be nonnegative")
        total = p.sum()
        if total <= 0:
            raise ValidationError("probabilities must have positive total")
        p = p / total
    else:
        raise ValidationError(f"unknown distribution kind {kind!r}")
    if require_positive and (p <= 0).any():
        raise ValidationError(
            "distribution has a zero cell; every entry must be observable "
            "with positive probability"
        )
    return SamplingDistribution(d1=d1, d2=d2, probs=p, kind=kind)


def _normalized_marginal(m, length: int, name: str) -> np.ndarray:
    if m is None:
        raise ValidationError(f"product distribution requires {name}")
    v = np.asarray(m, dtype=np.float64)
    if v.shape != (length,):
        raise ValidationError(f"{name} must have length {length}, got shape {v.shape}")
    if not np.isfinite(v).all() or (v < 0).any():
        raise ValidationError(f"{name} must be nonnegative and finite")
    total = v.sum()
    if total <= 0:
        raise ValidationError(f"{name} must have positive total")
    return v / total


def sample_indices(dist: SamplingDistribution, n: int, seed: int) -> np.ndarray:
    """n i.i.d. with-replacement index draws, deterministic given seed.

    The draw is inverse-CDF on the flattened distribution: n uniforms are
    located in the normalized cumulative sum of `probs.ravel()`.  It equals
    `Generator.choice(d1*d2, size=n, p=probs.ravel())` draw for draw: the
    same uniforms, the same CDF, the same search, no other random numbers.
    The keys are sorted only for the search (ascending keys keep numpy's
    binary search in cache); each result goes back to its draw's position.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    p = dist.probs.ravel()
    # The checks Generator.choice makes on p.
    total = p.sum()
    if np.isnan(total):
        raise ValidationError("probabilities contain NaN")
    if (p < 0).any():
        raise ValidationError("probabilities must be nonnegative")
    if abs(total - 1.0) > np.sqrt(np.finfo(np.float64).eps):
        raise ValidationError(f"probabilities must sum to 1, got {total!r}")
    rng = _rng.stream_rng(seed, _rng.SAMPLING)
    cdf = p.cumsum()
    cdf /= cdf[-1]
    u = rng.random(n)
    order = np.argsort(u)
    flat = np.empty(n, dtype=np.int64)
    flat[order] = cdf.searchsorted(u[order], side="right")
    return np.column_stack(np.unravel_index(flat, (dist.d1, dist.d2))).astype(np.int64)


def observe(M0, indices, noise: NoiseModel, seed: int) -> ObservationSet:
    """Observe M0 at `indices` under the noise model, fresh noise per draw."""
    A = check_matrix(M0, "M0")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 2 or idx.shape[1] != 2:
        raise ValidationError(f"indices must have shape (n, 2), got {idx.shape}")
    if idx.size and ((idx < 0).any() or (idx[:, 0] >= A.shape[0]).any()
                     or (idx[:, 1] >= A.shape[1]).any()):
        raise ValidationError("observation indices out of range for M0")
    n = idx.shape[0]
    rng = _rng.stream_rng(seed, _rng.NOISE)
    if noise.kind == "gaussian":
        xi = rng.standard_normal(n)
    elif noise.kind == "laplace":
        xi = rng.laplace(loc=0.0, scale=LAPLACE_UNIT_SCALE, size=n)
    else:
        xi = np.zeros(n)
    values = A[idx[:, 0], idx[:, 1]] + noise.sigma * xi
    return ObservationSet(d1=A.shape[0], d2=A.shape[1], indices=idx, values=values)


# ---------------------------------------------------------------------------
# File formats.
#
# Observations: header "d1,d2,n", then n lines "i,j,y" (0-based indices).
# Distribution: "d1,d2", then "uniform" | "product" + two marginal lines |
# "explicit" + d1 rows of comma-separated probabilities.

def format_observations(obs: ObservationSet) -> str:
    i, j = obs.indices.T
    body = map("%d,%d,%.17g".__mod__, zip(i.tolist(), j.tolist(), obs.values.tolist()))
    return f"{obs.d1},{obs.d2},{obs.n}\n" + "\n".join(body) + "\n"


def parse_observations(text: str) -> ObservationSet:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValidationError("empty observation text")
    try:
        d1, d2, n = (int(tok) for tok in lines[0].split(","))
    except ValueError as exc:
        raise ValidationError(f"bad observation header {lines[0]!r}") from exc
    if len(lines) != 1 + n:
        raise ValidationError(f"expected {n} observations, found {len(lines) - 1}")
    idx = np.empty((n, 2), dtype=np.int64)
    vals = np.empty(n)
    for t, ln in enumerate(lines[1:]):
        toks = ln.split(",")
        if len(toks) != 3:
            raise ValidationError(f"bad observation line {ln!r}")
        idx[t, 0] = int(toks[0])
        idx[t, 1] = int(toks[1])
        vals[t] = float(toks[2])
    return ObservationSet(d1=d1, d2=d2, indices=idx, values=vals)


def save_observations(path, obs: ObservationSet) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_observations(obs))


def load_observations(path) -> ObservationSet:
    with open(path, "r", encoding="ascii") as fh:
        return parse_observations(fh.read())


def format_distribution(dist: SamplingDistribution) -> str:
    lines = [f"{dist.d1},{dist.d2}"]
    if dist.kind == "uniform":
        lines.append("uniform")
    elif dist.kind == "product":
        lines.append("product")
        row = dist.probs.sum(axis=1)
        col = dist.probs.sum(axis=0)
        lines.append(",".join(f"{x:.17g}" for x in row))
        lines.append(",".join(f"{x:.17g}" for x in col))
    else:
        lines.append("explicit")
        for row in dist.probs:
            lines.append(",".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def parse_distribution(text: str) -> SamplingDistribution:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ValidationError("distribution text needs a header and a kind line")
    try:
        d1, d2 = (int(tok) for tok in lines[0].split(","))
    except ValueError as exc:
        raise ValidationError(f"bad distribution header {lines[0]!r}") from exc
    kind = lines[1]
    if kind == "uniform":
        return make_distribution("uniform", d1, d2)
    if kind == "product":
        if len(lines) != 4:
            raise ValidationError("product distribution needs two marginal lines")
        row = [float(tok) for tok in lines[2].split(",")]
        col = [float(tok) for tok in lines[3].split(",")]
        return make_distribution("product", d1, d2, row_marginals=row, col_marginals=col)
    if kind == "explicit":
        if len(lines) != 2 + d1:
            raise ValidationError(f"explicit distribution needs {d1} probability rows")
        probs = [[float(tok) for tok in ln.split(",")] for ln in lines[2:]]
        return make_distribution("explicit", d1, d2, probs=probs)
    raise ValidationError(f"unknown distribution kind {kind!r}")


def save_distribution(path, dist: SamplingDistribution) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_distribution(dist))


def load_distribution(path) -> SamplingDistribution:
    with open(path, "r", encoding="ascii") as fh:
        return parse_distribution(fh.read())
