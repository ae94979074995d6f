"""Sampling distributions on the index grid and the noisy observation model.

Indices are drawn i.i.d. with replacement from a distribution over the
d1 x d2 grid.  A uniform distribution stores only its shape, a product one
its row and column marginals, and only an explicit one a d1 x d2 array;
reading `probs` of a uniform or product distribution builds a d1 x d2
array.  Product marginals and explicit cell weights are checked and
divided by their total through one routine, `_normalized`, so weights
need not sum to 1.  Each draw t observes Y_t = M0[i_t, j_t] + sigma * xi_t
with fresh unit-variance noise per draw.  Both steps are seeded and
reproducible: identical seeds give identical index sequences and identical
noise.

A uniform index draw takes the row, then the column, from
`Generator.integers`.  A product draw takes the row from the row marginal,
then the column from the column marginal, and an explicit draw takes the
cell from the flattened cell probabilities; each of these is inverse-CDF,
equal to numpy's `Generator.choice` with `p` on that vector draw for draw,
and locates each uniform through a guide table (Chen & Asau 1974), so it
sorts nothing.  Every kind writes its draws into the (n, 2) output a
chunk at a time and holds no other n-length array, so uniform and product
draws hold the output plus O(d1 + d2) memory whatever the grid (see
`sample_indices`).  `observe` sums each chunk of gathered truth values into
the noise array, which becomes the observation values.
"""

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import _rng
from .core import ValidationError, check_matrix, _dot, _frozen, _nonblank_lines, _parse_rows

# Laplace scale giving unit variance (var = 2 * scale^2).
LAPLACE_UNIT_SCALE = 1.0 / np.sqrt(2.0)

NOISE_KINDS = ("gaussian", "laplace", "none")

# Draws per chunk of `sample_indices`' uniform draws, of `_choice`'s
# uniforms and guide-table search, of `observe` and of the solver's counted
# draws, and cells per block of the solver's cell kernels, so that a chunk's
# temporaries stay in cache.
# It equals numpy's einsum buffer size, so the solver's per-chunk sums of
# squares add up to the bits of one einsum over all draws.
DRAW_CHUNK = 1 << 13

# Vectorized scan steps per chunk before the draws left in crowded guide
# buckets are binary-searched.
GUIDE_ROUNDS = 2

# Observation lines formatted per string when writing: about 120 kB of text.
TEXT_BLOCK_ROWS = 1 << 12


@dataclass(frozen=True, eq=False)
class SamplingDistribution:
    """Probabilities over the index grid, plus its flatness parameters.

    What each kind stores:
      "uniform"  -- nothing but the shape; every cell is 1/(d1*d2);
      "product"  -- `row_marginals` and `col_marginals` as given (validated,
                    not normalized), and `row_probs`, `col_probs`: the same
                    normalized once; cell (k, l) is row_probs[k] * col_probs[l];
      "explicit" -- `cell_probs`: the d1 x d2 weights given, validated and
                    divided by their total, in a fresh read-only C-ordered
                    array; the array given is never held.

    mu >= 1 measures how far the smallest cell probability sits below
    uniform (mu = 1 / (d1*d2*min prob)); L >= 1 how far the largest sits
    above (L = d1*d2*max prob).  Uniform sampling has mu = L = 1.  Both are
    closed forms in the marginals for uniform and product.

    Zero cells are allowed here; `make_distribution` rejects them.
    Nothing outside this module reads a distribution's kind or its
    probabilities.  `sample_indices` draws a uniform distribution's rows and
    columns directly, a product one's from `row_probs` and `col_probs`, and
    an explicit one's cells from the CDF of `cell_probs`;
    `_weighted_sq_sum` weighs squared errors by pi, for
    `core.pi_weighted_sq_norm` and the trial scores.
    """

    d1: int
    d2: int
    kind: str
    row_marginals: np.ndarray | None = None
    col_marginals: np.ndarray | None = None
    cell_probs: np.ndarray | None = None
    row_probs: np.ndarray | None = field(default=None, init=False, repr=False)
    col_probs: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.d1 < 1 or self.d2 < 1:
            raise ValidationError(f"grid dimensions must be positive, got ({self.d1}, {self.d2})")
        if self.kind not in _KIND_FIELDS:
            raise ValidationError(f"unknown distribution kind {self.kind!r}")
        for name in ("row_marginals", "col_marginals", "cell_probs"):
            wanted = name in _KIND_FIELDS[self.kind]
            if (getattr(self, name) is not None) != wanted:
                verb = "requires" if wanted else "takes no"
                raise ValidationError(f"{self.kind} distribution {verb} {name}")
        if self.kind == "product":
            row, row_probs = _normalized(self.row_marginals, (self.d1,), "row_marginals")
            col, col_probs = _normalized(self.col_marginals, (self.d2,), "col_marginals")
            # The marginals are kept as given, so a file round trip is bit-exact.
            object.__setattr__(self, "row_marginals", _frozen(row))
            object.__setattr__(self, "col_marginals", _frozen(col))
            object.__setattr__(self, "row_probs", row_probs)
            object.__setattr__(self, "col_probs", col_probs)
        elif self.kind == "explicit":
            cell_probs = _normalized(self.cell_probs, (self.d1, self.d2), "cell_probs")[1]
            object.__setattr__(self, "cell_probs", cell_probs)

    @property
    def probs(self) -> np.ndarray:
        """The d1 x d2 cell probabilities.

        An explicit distribution returns its stored, read-only array.  A
        uniform or product one builds a new writable float64 d1 x d2 array
        on every read (`np.full`, or the outer product of its marginals):
        8*d1*d2 bytes (128 MB at d1 = d2 = 4000).  Weighting by pi needs no
        such array; see `_weighted_sq_sum`.
        """
        if self.kind == "uniform":
            return np.full((self.d1, self.d2), 1.0 / (self.d1 * self.d2))
        if self.kind == "product":
            return np.multiply.outer(self.row_probs, self.col_probs)
        return self.cell_probs

    def _weighted_sq_sum(self, D: np.ndarray, r0: int = 0) -> float:
        """sum pi * D^2 over the grid rows r0 .. r0 + len(D) - 1, which the
        float64 array D holds, with no temporary of D's size.

        Uniform weights are sum(D^2) / (d1*d2), product ones
        row_probs . (D^2 @ col_probs), each row summed in one pass and the
        rows reduced with _dot, and explicit ones einsum with those rows of
        `cell_probs`.  Every reduction is einsum's, in a fixed order, so the
        bits do not depend on the BLAS thread count.
        """
        rows = slice(r0, r0 + D.shape[0])
        if self.kind == "uniform":
            return float(np.einsum("ij,ij->", D, D) / (self.d1 * self.d2))
        if self.kind == "product":
            return _dot(self.row_probs[rows], np.einsum("ij,ij,j->i", D, D, self.col_probs))
        return float(np.einsum("ij,ij,ij->", self.cell_probs[rows], D, D))

    # Rounding a product of nonnegative floats is monotone, so for a product
    # distribution the smallest and largest cell probabilities below equal
    # the dense min and max bit for bit.

    def _min_cell(self) -> float:
        """The smallest cell probability, as a float."""
        if self.kind == "uniform":
            return 1.0 / (self.d1 * self.d2)
        if self.kind == "product":
            return float(self.row_probs.min() * self.col_probs.min())
        return float(self.cell_probs.min())

    def _max_cell(self) -> float:
        """The largest cell probability, as a float."""
        if self.kind == "uniform":
            return 1.0 / (self.d1 * self.d2)
        if self.kind == "product":
            return float(self.row_probs.max() * self.col_probs.max())
        return float(self.cell_probs.max())

    @property
    def mu(self) -> float:
        pmin = self._min_cell()
        if pmin <= 0.0:
            return float("inf")
        return 1.0 / (self.d1 * self.d2 * pmin)

    @property
    def L(self) -> float:
        return self.d1 * self.d2 * self._max_cell()


# The fields each kind of distribution is built from.
_KIND_FIELDS = {"uniform": (), "product": ("row_marginals", "col_marginals"),
                "explicit": ("cell_probs",)}


@dataclass(frozen=True)
class NoiseModel:
    """Additive noise spec: unit-variance draws of `kind`, scaled by sigma."""

    kind: str
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValidationError(f"noise kind must be one of {NOISE_KINDS}, got {self.kind!r}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValidationError(f"sigma must be nonnegative and finite, got {self.sigma}")


@dataclass(frozen=True, eq=False)
class ObservationSet:
    """n index/value pairs from the observation model, with the grid shape.

    `indices` keeps the caller's array when it is already a C-contiguous
    (n, 2) int64 array, and makes that array read-only; `values` is
    copied, except the fresh array that `observe` hands over.  Copying
    `indices` as well would add 16 bytes per draw to every `observe`.
    """

    d1: int
    d2: int
    indices: np.ndarray  # (n, 2) int64
    values: np.ndarray  # (n,) float64

    def __post_init__(self):
        idx = _check_indices(self.indices, self.d1, self.d2, "observation indices out of range")
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (idx.shape[0],):
            raise ValidationError(
                f"values length {vals.shape} does not match {idx.shape[0]} indices"
            )
        if not np.isfinite(vals).all():
            raise ValidationError("observation values contain non-finite entries")
        self._hold(idx, _frozen(vals))

    @classmethod
    def _checked(cls, d1: int, d2: int, idx: np.ndarray, vals: np.ndarray):
        """An ObservationSet, or a subclass, of arrays its caller has checked
        as `__post_init__` would, with no second pass over them; `vals`, a
        float64 vector that no one else holds, is kept without a copy.  For a
        PartialMatrix the caller also guarantees that the cells are distinct
        and in row-major order, which this does not check."""
        obs = object.__new__(cls)
        object.__setattr__(obs, "d1", d1)
        object.__setattr__(obs, "d2", d2)
        obs._hold(idx, vals)
        return obs

    def _hold(self, idx: np.ndarray, vals: np.ndarray) -> None:
        """Keep idx, made C-contiguous, and vals, both made read-only."""
        idx = np.ascontiguousarray(idx)
        idx.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.indices.shape[0]


def _check_indices(indices, d1: int, d2: int, message: str) -> np.ndarray:
    """`indices` as an int64 array, checked to be (n, 2) with n >= 1 and to
    lie on the d1 x d2 grid; `message` is the error when it does not.

    The range takes one min over the whole array and one max per column:
    reductions, cheaper than comparing every entry into boolean temporaries.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 2 or idx.shape[1] != 2 or idx.shape[0] == 0:
        raise ValidationError(f"indices must have shape (n, 2), got {idx.shape}")
    if idx.min() < 0 or idx[:, 0].max() >= d1 or idx[:, 1].max() >= d2:
        raise ValidationError(message)
    return idx


def make_distribution(kind: str, d1: int, d2: int, *, row_marginals=None,
                      col_marginals=None, probs=None) -> SamplingDistribution:
    """The sampling distribution of `kind` on the d1 x d2 grid, with no zero
    cell.

    It passes `probs` on as the explicit kind's `cell_probs`, and rejects
    any zero cell: a cell that can never be observed makes the flatness
    parameter mu infinite.  `SamplingDistribution` checks and normalizes
    the weights of every kind.
    """
    dist = SamplingDistribution(d1=d1, d2=d2, kind=kind, row_marginals=row_marginals,
                                col_marginals=col_marginals, cell_probs=probs)
    if dist._min_cell() <= 0:
        raise ValidationError(
            "distribution has a zero cell; every entry must be observable "
            "with positive probability"
        )
    return dist


def _normalized(weights, shape: tuple, name: str) -> tuple:
    """`weights` as a C-ordered float64 array of `shape`, checked to be
    nonnegative and finite with a positive, finite total, and a fresh
    read-only array of them divided by that total.

    The min is NaN or negative when an entry is, and the sum is infinite
    when an entry is +inf or the total overflows, so these two scans make
    every check.  The weights are summed in C order whatever their layout,
    so the quotient's bits do not depend on it.
    """
    w = np.asarray(weights, dtype=np.float64, order="C")
    if w.shape != shape:
        raise ValidationError(f"{name} shape {w.shape} does not match {shape}")
    lowest = w.min()
    with np.errstate(over="ignore", invalid="ignore"):
        total = w.sum()
    if not lowest >= 0 or (total == np.inf and np.isinf(w).any()):
        raise ValidationError(f"{name} must be nonnegative and finite")
    if not 0 < total < np.inf:
        raise ValidationError(f"{name} must have a positive, finite total")
    probs = w / total
    probs.flags.writeable = False
    return w, probs


def sample_indices(dist: SamplingDistribution, n: int, seed: int) -> np.ndarray:
    """n i.i.d. with-replacement index draws, as an (n, 2) int64 array of
    (row, column) pairs, deterministic given seed.

    Every kind draws from the sampling stream, rows first:
      uniform  -- n rows from `Generator.integers(0, d1)`, then n columns
                  from `Generator.integers(0, d2)`;
      product  -- row and column are independent, so n rows are drawn from
                  the row marginal, then n columns from the column marginal,
                  each equal draw for draw to `Generator.choice` on that
                  marginal (see `_choice`);
      explicit -- n cells from the flattened cell probabilities, equal to
                  `Generator.choice(d1*d2, p=probs.ravel())` draw for draw,
                  then split into row and column by one divmod by d2.
    Every kind writes its draws into the output DRAW_CHUNK at a time, so
    beside it a draw holds one chunk of temporaries, no n-length array.
    Uniform and product draws take O(n + d1 + d2) time and memory.  An
    explicit draw also holds the d1*d2 CDF and its guide table, 16 bytes
    per cell beside the 8 its distribution already holds.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    rng = _rng.stream_rng(seed, _rng.SAMPLING)
    out = np.empty((n, 2), dtype=np.int64)
    if dist.kind == "uniform":
        # Generator.integers gives the same values in chunks as in one call.
        for col, high in enumerate((dist.d1, dist.d2)):
            for t in range(0, n, DRAW_CHUNK):
                chunk = out[t:t + DRAW_CHUNK, col]
                chunk[:] = rng.integers(0, high, size=chunk.size)
    elif dist.kind == "product":
        _choice(rng, dist.row_probs, out[:, 0])
        _choice(rng, dist.col_probs, out[:, 1])
    else:
        _choice(rng, dist.cell_probs.ravel(), out[:, 0])
        np.divmod(out[:, 0], dist.d2, out=(out[:, 0], out[:, 1]))
    return out


def _choice(rng, p, out) -> None:
    """Write into `out` the out.size indices that
    `rng.choice(p.size, size=out.size, p=p)` draws.

    It makes `Generator.choice`'s checks on p, takes the same CDF,
    `cumsum(p) / cdf[-1]`, and writes `cdf.searchsorted(u, side="right")`
    for the uniforms u through a guide table (Chen & Asau 1974).  The
    uniforms are drawn DRAW_CHUNK at a time: `Generator.random` gives the
    same doubles in chunks as in one call.  It sorts nothing, and holds the
    CDF, a table of p.size + 2 counts and one chunk's uniforms, no
    out.size-length array beside `out`.
    """
    total = p.sum()
    if np.isnan(total):
        raise ValidationError("probabilities contain NaN")
    if (p < 0).any():
        raise ValidationError("probabilities must be nonnegative")
    if abs(total - 1.0) > np.sqrt(np.finfo(np.float64).eps):
        raise ValidationError(f"probabilities must sum to 1, got {total!r}")
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    lo = _guide_table(cdf)
    for t in range(0, out.size, DRAW_CHUNK):
        chunk = out[t:t + DRAW_CHUNK]
        chunk[:] = _guide_search(cdf, lo, rng.random(chunk.size))


def _guide_table(cdf) -> np.ndarray:
    """The guide table of a normalized CDF, whose values lie in [0, 1] and
    end at 1: B + 2 counts, with B = cdf.size buckets.

    The bucket of x is floor(x * B): monotone in x, since rounding the
    product and truncating it are both monotone, and at most B, since
    x <= 1 and B is exact.  Entry b counts the cells whose CDF value has a
    bucket below b.
    """
    buckets = cdf.size
    lo = np.zeros(buckets + 2, dtype=np.intp)
    # The cells' buckets ascend with j, so each chunk counts its own range.
    for t in range(0, cdf.size, DRAW_CHUNK):
        b = (cdf[t:t + DRAW_CHUNK] * buckets).astype(np.intp)
        lo[b[0] + 1:b[-1] + 2] += np.bincount(b - b[0])
    return np.cumsum(lo, out=lo)


def _guide_search(cdf, lo, u) -> np.ndarray:
    """cdf.searchsorted(u, side="right") through the guide table `lo`.

    A uniform in bucket b lies above every CDF value of a lower bucket and
    below every one of a higher bucket, so its answer is lo[b] plus the
    cells from lo[b] on whose value is <= u.  GUIDE_ROUNDS steps count
    them.  The last CDF value, 1, exceeds every u, so no scan leaves the
    CDF.  Draws whose scan has not ended sit in a bucket crowded with tiny
    or zero cells, and are binary-searched.
    """
    pos = lo.take((u * (lo.size - 2)).astype(np.intp))
    for _ in range(GUIDE_ROUNDS):
        pos += cdf.take(pos) <= u
    rest = np.flatnonzero(cdf.take(pos) <= u)
    if rest.size:
        pos[rest] = cdf.searchsorted(u[rest], side="right")
    return pos


def observe(M0, indices, noise: NoiseModel, seed: int) -> ObservationSet:
    """Observe M0 at `indices` under the noise model, fresh noise per draw.

    The values M0[i, j] + sigma * xi are summed into the noise array, a
    chunk of DRAW_CHUNK draws at a time: one n-length float array, which
    the returned set keeps without a copy.  The truth is gathered from its
    raveled form at i * d2 + j, or as M0[i, j] when M0 is not C-contiguous,
    so it is never copied whole.
    """
    A = check_matrix(M0, "M0")
    d1, d2 = A.shape
    idx = _check_indices(indices, d1, d2, "observation indices out of range for M0")
    n = idx.shape[0]
    rng = _rng.stream_rng(seed, _rng.NOISE)
    if noise.kind == "gaussian":
        values = rng.standard_normal(n)
    elif noise.kind == "laplace":
        values = rng.laplace(loc=0.0, scale=LAPLACE_UNIT_SCALE, size=n)
    else:
        values = np.zeros(n)
    flat = A.reshape(-1) if A.flags.c_contiguous else None
    with np.errstate(over="ignore"):
        values *= noise.sigma
        for t in range(0, n, DRAW_CHUNK):
            rows, cols = idx[t:t + DRAW_CHUNK].T
            if flat is None:
                truth = A[rows, cols]
            else:
                cells = rows * d2
                cells += cols
                truth = flat.take(cells)
            chunk = values[t:t + DRAW_CHUNK]
            chunk += truth  # addition commutes: the bits of M0[i, j] + sigma * xi
            if not np.isfinite(chunk).all():
                raise ValidationError(
                    f"noisy observation values overflowed: sigma = {noise.sigma!r} times the "
                    "noise, plus the truth, is not a finite float64")
    return ObservationSet._checked(d1, d2, idx, values)


# ---------------------------------------------------------------------------
# File formats, written and read as the dense format is (see `core`): each
# `save_*` writes a line or a block of lines at a time, and each `load_*`
# streams its file's nonblank lines, a header line at a time, into numpy
# (`core._parse_rows`).  A malformed row -- an index that is not an integer,
# a value that is not a number, a row of the wrong width, a "#" comment --
# raises ValidationError naming the format.
#
# Observations: header "d1,d2,n", then n lines "i,j,y" (0-based indices).
# Distribution: "d1,d2", then "uniform" | "product" + the two marginals as
# given | "explicit" + d1 rows of comma-separated probabilities.

_OBSERVATION_ROW = np.dtype([("i", np.int64), ("j", np.int64), ("y", np.float64)])


def save_observations(path, obs: ObservationSet) -> None:
    """Write obs one block of TEXT_BLOCK_ROWS lines at a time, never holding the whole text."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{obs.d1},{obs.d2},{obs.n}\n")
        for t in range(0, obs.n, TEXT_BLOCK_ROWS):
            i, j = obs.indices[t:t + TEXT_BLOCK_ROWS].T
            y = obs.values[t:t + TEXT_BLOCK_ROWS]
            fh.write("".join(map("%d,%d,%.17g\n".__mod__,
                                 zip(i.tolist(), j.tolist(), y.tolist()))))


def load_observations(path) -> ObservationSet:
    with open(path, "r", encoding="ascii") as fh:
        lines = _nonblank_lines(fh)
        d1, d2, n = _parse_rows(islice(lines, 1), "i8,i8,i8", "observation header")[0].tolist()
        rows = _parse_rows(lines, _OBSERVATION_ROW, "observation row")
    if rows.size != n:
        raise ValidationError(f"expected {n} observations, found {rows.size}")
    return ObservationSet(d1=d1, d2=d2, indices=np.column_stack([rows["i"], rows["j"]]),
                          values=rows["y"])


def save_distribution(path, dist: SamplingDistribution) -> None:
    """Write dist a line at a time: the shape, the kind, then the marginals
    of a product distribution or the probability rows of an explicit one."""
    rows = {"uniform": (), "product": (dist.row_marginals, dist.col_marginals),
            "explicit": dist.cell_probs}[dist.kind]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{dist.d1},{dist.d2}\n{dist.kind}\n")
        fh.writelines(",".join(f"{x:.17g}" for x in row) + "\n" for row in rows)


def load_distribution(path) -> SamplingDistribution:
    """The distribution that `save_distribution` wrote.

    Uniform and product files come back bit for bit: a product file holds
    the marginals as they were given, and they are normalized again the same
    way.  An explicit file holds the normalized probabilities, which the
    distribution normalizes once more, so their last bits may move.  A
    file's weights need not sum to 1, and an explicit file with other than
    d1 rows fails the distribution's shape check.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = _nonblank_lines(fh)
        d1, d2 = _parse_rows(islice(lines, 1), "i8,i8", "distribution header")[0].tolist()
        kind = next(lines, None)
        if kind == "uniform":
            if next(lines, None) is not None:
                raise ValidationError("uniform distribution takes no line after its kind line")
            return make_distribution("uniform", d1, d2)
        if kind == "product":
            row = _parse_rows(islice(lines, 1), np.float64, "product row marginal")[0]
            col = _parse_rows(islice(lines, 1), np.float64, "product column marginal")[0]
            if next(lines, None) is not None:
                raise ValidationError("product distribution needs two marginal lines")
            return make_distribution("product", d1, d2, row_marginals=row, col_marginals=col)
        if kind == "explicit":
            probs = _parse_rows(lines, np.float64, "explicit distribution row")
            return make_distribution("explicit", d1, d2, probs=probs)
    if kind is None:
        raise ValidationError("distribution file needs a header and a kind line")
    raise ValidationError(f"unknown distribution kind {kind!r}")
