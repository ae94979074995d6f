"""Sampling distributions on the index grid and the noisy observation model.

Indices are drawn i.i.d. with replacement from a distribution over the
d1 x d2 grid.  A uniform distribution stores only its shape, a product one
its row and column marginals, and only an explicit one a d1 x d2 array;
reading `probs` of a uniform or product distribution builds a d1 x d2
array.  Each draw t observes Y_t = M0[i_t, j_t] + sigma * xi_t with
fresh unit-variance noise per draw.  Both steps are seeded and reproducible:
identical seeds give identical index sequences and identical noise.

A uniform index draw takes the row, then the column, from
`Generator.integers`: O(n) time and memory on any grid.  A product or
explicit draw is inverse-CDF on the flattened distribution and equals
numpy's `Generator.choice` with `p` draw for draw.  It never holds the
d1 x d2 CDF: it walks the grid in row blocks of at most CDF_BLOCK_CELLS
cells, twice, carrying the running sum from block to block, and locates
each uniform in its block's CDF through a guide table (Chen & Asau 1974),
so it sorts nothing and holds O(n + one block) memory whatever the grid
(see `sample_indices`).  `observe` sums each chunk of gathered truth
values into the noise array, which becomes the observation values.
"""

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import _rng
from .core import ValidationError, check_matrix, _frozen, _nonblank_lines, _parse_rows

PROB_SUM_TOL = 1e-9

# Laplace scale giving unit variance (var = 2 * scale^2).
LAPLACE_UNIT_SCALE = 1.0 / np.sqrt(2.0)

NOISE_KINDS = ("gaussian", "laplace", "none")

# Cells per row block of the flattened distribution that `sample_indices`
# holds at a time: 2 MB of float64.  A row longer than this is one block.
CDF_BLOCK_CELLS = 1 << 18

# Draws per chunk of the guide-table search in `sample_indices`, so that a
# chunk's temporaries stay in cache.
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
      "explicit" -- `cell_probs`, the d1 x d2 probabilities, summing to 1.

    mu >= 1 measures how far the smallest cell probability sits below
    uniform (mu = 1 / (d1*d2*min prob)); L >= 1 how far the largest sits
    above (L = d1*d2*max prob).  Uniform sampling has mu = L = 1.  Both are
    closed forms in the marginals for uniform and product.

    Zero cells are allowed here; `make_distribution` rejects them.
    `sample_indices` draws a uniform distribution's rows and columns
    directly, and walks the cell CDF of the other two kinds.
    """

    d1: int
    d2: int
    kind: str
    row_marginals: np.ndarray | None = None
    col_marginals: np.ndarray | None = None
    cell_probs: np.ndarray | None = None
    row_probs: np.ndarray | None = field(default=None, init=False, repr=False)
    col_probs: np.ndarray | None = field(default=None, init=False, repr=False)
    _product_min: float | None = field(default=None, init=False, repr=False)

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
            row, row_min, row_total = _checked_marginal(self.row_marginals, self.d1,
                                                        "row_marginals")
            col, col_min, col_total = _checked_marginal(self.col_marginals, self.d2,
                                                        "col_marginals")
            object.__setattr__(self, "row_marginals", row)
            object.__setattr__(self, "col_marginals", col)
            object.__setattr__(self, "row_probs", _frozen(row / row_total))
            object.__setattr__(self, "col_probs", _frozen(col / col_total))
            # min(v) / total is min(v / total) bit for bit: dividing by a
            # positive number is monotone.
            object.__setattr__(self, "_product_min",
                               float((row_min / row_total) * (col_min / col_total)))
        elif self.kind == "explicit":
            probs = check_matrix(self.cell_probs, "probs")
            if probs.shape != (self.d1, self.d2):
                raise ValidationError(
                    f"probs shape {probs.shape} does not match ({self.d1}, {self.d2})"
                )
            if (probs < 0).any():
                raise ValidationError("probabilities must be nonnegative")
            total = probs.sum()
            if abs(total - 1.0) > PROB_SUM_TOL:
                raise ValidationError(f"probabilities must sum to 1, got {total!r}")
            object.__setattr__(self, "cell_probs", _frozen(probs))

    @property
    def probs(self) -> np.ndarray:
        """The d1 x d2 cell probabilities.

        An explicit distribution returns its stored, read-only array.  A
        uniform or product one builds a new writable float64 d1 x d2 array
        on every read: 8*d1*d2 bytes (128 MB at d1 = d2 = 4000).
        """
        if self.kind == "explicit":
            return self.cell_probs
        return self._rows_into(0, self.d1, np.empty((self.d1, self.d2)))

    def _rows_into(self, r0: int, r1: int, out: np.ndarray) -> np.ndarray:
        """The cell probabilities of rows r0..r1-1, written into and returned
        as `out`, a writable (r1 - r0, d2) float64 array."""
        if self.kind == "uniform":
            out.fill(1.0 / (self.d1 * self.d2))
        elif self.kind == "product":
            np.multiply.outer(self.row_probs[r0:r1], self.col_probs, out=out)
        else:
            out[...] = self.cell_probs[r0:r1]
        return out

    # Rounding a product of nonnegative floats is monotone, so for a product
    # distribution the smallest and largest cell probabilities below equal
    # the dense min and max bit for bit.

    def _min_cell(self) -> float:
        """The smallest cell probability, as a float."""
        if self.kind == "uniform":
            return 1.0 / (self.d1 * self.d2)
        if self.kind == "product":
            return self._product_min
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
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
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

    # True on a subclass that checks its cells are distinct and in row-major
    # order (model_select.PartialMatrix): the solver takes them as they are.
    _distinct_row_major = False

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
        if _out_of_range(idx, self.d1, self.d2):
            raise ValidationError("observation indices out of range")
        self._hold(idx, _frozen(vals))

    @classmethod
    def _checked(cls, d1: int, d2: int, idx: np.ndarray, vals: np.ndarray):
        """An ObservationSet of arrays its caller has checked as
        `__post_init__` would, with no second pass over them; `vals`, a
        float64 vector that no one else holds, is kept without a copy."""
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


def _out_of_range(idx, d1: int, d2: int) -> bool:
    """Whether a nonempty (n, 2) index array leaves the d1 x d2 grid.

    One min over the whole array and one max per column: reductions, cheaper
    than comparing every entry into boolean temporaries.
    """
    return bool(idx.min() < 0 or idx[:, 0].max() >= d1 or idx[:, 1].max() >= d2)


def make_distribution(kind: str, d1: int, d2: int, *, row_marginals=None,
                      col_marginals=None, probs=None) -> SamplingDistribution:
    """Build a normalized sampling distribution on the d1 x d2 grid.

    kind is one of:
      "uniform"  -- every cell 1/(d1*d2);
      "product"  -- probs[k,l] = row_marginals[k] * col_marginals[l]
                    (marginals are kept as given and normalized for use);
      "explicit" -- probs given directly (normalized).

    Any zero cell is rejected: a cell that can never be observed makes the
    flatness parameter mu infinite.
    """
    if kind == "explicit":
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
        probs = p / total
    dist = SamplingDistribution(d1=d1, d2=d2, kind=kind, row_marginals=row_marginals,
                                col_marginals=col_marginals, cell_probs=probs)
    if dist._min_cell() <= 0:
        raise ValidationError(
            "distribution has a zero cell; every entry must be observable "
            "with positive probability"
        )
    return dist


def _checked_marginal(m, length: int, name: str) -> tuple:
    """`m` as a read-only float64 vector, checked but not normalized, with its
    min and its sum.

    The min is NaN or negative when an entry is, and the sum is infinite
    when an entry is +inf, so these two scans make every check.
    """
    v = np.asarray(m, dtype=np.float64)
    if v.shape != (length,):
        raise ValidationError(f"{name} must have length {length}, got shape {v.shape}")
    v = _frozen(v)
    lowest = v.min()
    with np.errstate(over="ignore", invalid="ignore"):
        total = v.sum()
    if not lowest >= 0 or (total == np.inf and np.isinf(v).any()):
        raise ValidationError(f"{name} must be nonnegative and finite")
    if not 0 < total < np.inf:
        raise ValidationError(f"{name} must have a positive, finite total")
    return v, lowest, total


def sample_indices(dist: SamplingDistribution, n: int, seed: int) -> np.ndarray:
    """n i.i.d. with-replacement index draws, as an (n, 2) int64 array of
    (row, column) pairs, deterministic given seed.

    A uniform distribution draws n rows with `Generator.integers(0, d1)`,
    then n columns with `Generator.integers(0, d2)`, from the sampling
    stream: O(n) time and memory, with no d1*d2 product formed.

    Product and explicit draws are inverse-CDF on the flattened
    distribution: each uniform u becomes `cdf.searchsorted(u,
    side="right")` in the normalized cumulative sum of `probs.ravel()`.
    It equals `Generator.choice(d1*d2, size=n, p=probs.ravel())` draw for
    draw: the same uniforms from one `random(n)` call, the same CDF values,
    the same answers, no other random numbers.  The CDF is never held
    whole.  The grid is walked in row blocks of at most CDF_BLOCK_CELLS
    cells (one row if a row is longer), each built into one reused buffer:

      pass 1 makes `Generator.choice`'s checks and takes the CDF block by
             block, adding the running sum into each block's first cell
             before an in-place cumsum, so every value is the float the
             full cumsum gives; it keeps the sum entering each block;
      pass 2 rebuilds each block's CDF the same way, divides it by the
             last CDF value, and locates the uniforms that fall in the
             block.  A grid of several blocks first routes each uniform
             to its block by the normalized block ends; a one-block grid
             has nothing to route.

    The location goes through a guide table.  Take a monotone bucket map
    g, here floor((u - start) * B / (stop - start)) over the block's range
    [start, stop) of uniforms, with B a power of two at or above its cell
    count; lo[b] counts the block's cells whose CDF value has a bucket
    below b.  A CDF value in a lower bucket than u is below u, and one in
    a higher bucket is above it, because g is monotone.  So a uniform in
    bucket b lies past exactly lo[b] cells plus those from lo[b] on whose
    CDF value is <= u, whatever the rounding of g.  A few vectorized
    rounds compare CDF values with u and step on; the few draws left in a
    bucket crowded by tiny or zero cells get a binary search of the block.
    Draws go through in chunks of DRAW_CHUNK, written straight into the
    (n, 2) output.  Memory is O(n + one block): the uniforms, the output,
    one block's CDF and one table of B + 2 counts (and, with several
    blocks, the draws' order by block), not O(d1*d2).
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    d1, d2 = dist.d1, dist.d2
    if dist.kind == "uniform":
        rng = _rng.stream_rng(seed, _rng.SAMPLING)
        out = np.empty((n, 2), dtype=np.int64)
        out[:, 0] = rng.integers(0, d1, size=n)
        out[:, 1] = rng.integers(0, d2, size=n)
        return out
    step = max(1, CDF_BLOCK_CELLS // d2)
    blocks = [(r0, min(r0 + step, d1)) for r0 in range(0, d1, step)]
    buf = np.empty((min(step, d1), d2))

    def block(k):
        r0, r1 = blocks[k]
        return dist._rows_into(r0, r1, buf[:r1 - r0]).ravel()

    def cumsum_from(carry, p):
        """p's cumulative sum in place, starting from the sum entering it."""
        p[0] += carry
        return np.cumsum(p, out=p)

    # Pass 1: the checks Generator.choice makes on p, and the running sums.
    total, carries = 0.0, [0.0]
    for k in range(len(blocks)):
        p = block(k)
        block_sum = p.sum()
        if np.isnan(block_sum):
            raise ValidationError("probabilities contain NaN")
        if (p < 0).any():
            raise ValidationError("probabilities must be nonnegative")
        total += block_sum
        carries.append(cumsum_from(carries[-1], p)[-1])
    if abs(total - 1.0) > np.sqrt(np.finfo(np.float64).eps):
        raise ValidationError(f"probabilities must sum to 1, got {total!r}")

    # Pass 2: a uniform u lands in block k when the normalized CDF value
    # ending block k - 1 is <= u < the one ending block k (side="right").
    rng = _rng.stream_rng(seed, _rng.SAMPLING)
    u = rng.random(n)
    bounds = np.divide(carries, carries[-1])  # block k's draws: bounds[k] <= u < bounds[k + 1]
    if len(blocks) == 1:
        order, starts = None, [0, n]
    else:
        owner = bounds[1:-1].searchsorted(u, side="right")
        owner = owner.astype(np.min_scalar_type(len(blocks) - 1))
        order = np.argsort(owner, kind="stable")  # a radix sort while blocks fit in 16 bits
        starts = [0] + np.bincount(owner, minlength=len(blocks)).cumsum().tolist()
        del owner
    out = np.empty((n, 2), dtype=np.int64)
    lo = np.empty((1 << (buf.size - 1).bit_length()) + 2, dtype=np.intp)  # one guide table
    for k, (r0, _) in enumerate(blocks):
        if starts[k + 1] == starts[k]:
            continue
        cdf = cumsum_from(carries[k], block(k))
        cdf /= carries[-1]
        scale = _guide_table(cdf, bounds[k], bounds[k + 1], lo)
        for t in range(starts[k], starts[k + 1], DRAW_CHUNK):
            stop = min(t + DRAW_CHUNK, starts[k + 1])
            draws = slice(t, stop) if order is None else order[t:stop]
            flat = _guide_search(cdf, lo, bounds[k], scale, u[draws])
            flat += r0 * d2
            out[draws, 0], out[draws, 1] = np.divmod(flat, d2)
    return out


def _bucket(x, start: float, scale: float) -> np.ndarray:
    """The guide bucket floor((x - start) * scale) of each x >= start, as
    intp: monotone in x, since every rounding step is."""
    y = x - start
    y *= scale
    return y.astype(np.intp)


def _guide_table(cdf, start: float, stop: float, lo) -> float:
    """Fill the guide table `lo`, of B + 2 entries, for one block's
    normalized CDF, whose draws u satisfy start <= u < stop, and return the
    bucket map's scale, B / (stop - start).

    lo[b] becomes the count of cells j whose `_bucket(cdf[j], start, scale)`
    is below b, for b = 0 .. B.  No bucket exceeds B, since no value
    exceeds stop and (stop - start) * scale rounds to within an ulp of B.
    B is a power of two at or above the block's cell count.
    """
    buckets = lo.size - 2
    with np.errstate(over="ignore"):
        scale = buckets / (stop - start)
    if not np.isfinite(scale):
        scale = 0.0  # a constant map is monotone too: every draw is searched
    # The cells' buckets ascend with j, so each chunk counts its own range.
    lo.fill(0)
    for t in range(0, cdf.size, DRAW_CHUNK):
        b = _bucket(cdf[t:t + DRAW_CHUNK], start, scale)
        lo[b[0] + 1:b[-1] + 2] += np.bincount(b - b[0])
    np.cumsum(lo, out=lo)
    return scale


def _guide_search(cdf, lo, start: float, scale: float, u) -> np.ndarray:
    """cdf.searchsorted(u, side="right") through the guide table `lo`.

    A draw in bucket b lies above every CDF value of a lower bucket and
    below every one of a higher bucket, so its answer is lo[b] plus the
    cells from lo[b] on whose value is <= u.  GUIDE_ROUNDS steps count
    them.  The block's last value exceeds every u routed to it, so no scan
    leaves the block.  Draws whose scan has not ended sit in a bucket
    crowded with tiny or zero cells, and are binary-searched.
    """
    pos = lo.take(_bucket(u, start, scale))
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
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 2 or idx.shape[1] != 2 or idx.shape[0] == 0:
        raise ValidationError(f"indices must have shape (n, 2), got {idx.shape}")
    if _out_of_range(idx, d1, d2):
        raise ValidationError("observation indices out of range for M0")
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
    way.  An explicit file holds the normalized probabilities, which
    `make_distribution` normalizes once more, so their last bits may move.
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
            if probs.shape[0] != d1:
                raise ValidationError(f"explicit distribution needs {d1} probability rows")
            return make_distribution("explicit", d1, d2, probs=probs)
    if kind is None:
        raise ValidationError("distribution file needs a header and a kind line")
    raise ValidationError(f"unknown distribution kind {kind!r}")
