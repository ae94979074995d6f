"""Matrix/factorization value types, input checks and the dense text format.

Matrices are plain 2-D float64 ndarrays.  A factorization is a pair
``(U, V)`` with product ``U @ V.T``; a ConstraintSet bounds the product
elementwise by alpha and the squared maximum row norms of both factors by
a radius, which upper bounds the factorization norm (max-norm) of the
product.  pi_weighted_sq_norm scores an error matrix under a sampling
distribution.
"""

import math
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np


class ValidationError(ValueError):
    """Invalid input to a toolkit operation."""


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out is a:
        out = out.copy()
    out.flags.writeable = False
    return out


def _dot(a, b) -> float:
    """a . b for 1-D float64 arrays, the same bits whatever the BLAS thread count.

    A 1-D `@` (and `np.linalg.norm`) is a BLAS ddot, which OpenBLAS splits
    across threads above about 10000 elements, so its rounding depends on
    the thread count.  einsum sums in one fixed order, independent of
    threads and of alignment.
    """
    return float(np.einsum("i,i->", a, b))


def check_matrix(M, name: str = "matrix") -> np.ndarray:
    """Validate a dense real matrix: 2-D, nonempty, all entries finite.

    A NaN or infinite entry makes the sum non-finite, and so does an
    overflowing sum of finite entries; only then is every entry tested, to
    tell the two apart.  The sum builds no temporary of A's size.
    """
    A = np.asarray(M, dtype=np.float64)
    if A.ndim != 2 or A.size == 0:
        raise ValidationError(f"{name} must be a nonempty 2-D array, got shape {A.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        finite_sum = np.isfinite(A.sum())
    if not (finite_sum or np.isfinite(A).all()):
        raise ValidationError(f"{name} contains non-finite entries")
    return A


@dataclass(frozen=True, eq=False)
class Factorization:
    """Factor pair (U, V) with completed matrix U @ V.T.

    U is d1 x k, V is d2 x k.  Immutable after construction.
    """

    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        U = check_matrix(self.U, "U")
        V = check_matrix(self.V, "V")
        if U.shape[1] != V.shape[1]:
            raise ValidationError(
                f"U and V must share the column count, got {U.shape[1]} and {V.shape[1]}"
            )
        object.__setattr__(self, "U", _frozen(U))
        object.__setattr__(self, "V", _frozen(V))

    @property
    def d1(self) -> int:
        return self.U.shape[0]

    @property
    def d2(self) -> int:
        return self.V.shape[0]

    @property
    def k(self) -> int:
        return self.U.shape[1]

    def product(self) -> np.ndarray:
        """The completed dense matrix U @ V.T."""
        return self.U @ self.V.T


@dataclass(frozen=True)
class ConstraintSet:
    """Feasible set: elementwise |M| <= alpha and factor row norms^2 <= radius.

    `radius` is the bound R on the squared maximum row norms of both factors
    (equivalently on the factorization norm of the product).  Every positive
    radius is accepted: the set always holds 0, and at radius < alpha the row
    bound implies the elementwise one, |u_i . v_j| <= radius.
    """

    alpha: float
    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValidationError(f"alpha must be positive and finite, got {self.alpha}")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValidationError(f"radius must be positive and finite, got {self.radius}")


def pi_weighted_sq_norm(M, distribution) -> float:
    """Sampling-weighted squared norm: sum_kl pi[k,l] * M[k,l]^2.

    The distribution weighs M itself (`SamplingDistribution._weighted_sq_sum`):
    uniform and product ones through their marginals, with no d1 x d2
    temporary, and the bits do not depend on the BLAS thread count.

    Every term is >= 0, NaN or inf, so a non-finite entry makes the sum
    non-finite.  Only then is M scanned for it, which raises ValidationError.
    """
    A = np.asarray(M, dtype=np.float64)
    shape = (distribution.d1, distribution.d2)
    if shape != A.shape:
        raise ValidationError(
            f"distribution shape {shape} does not match matrix shape {A.shape}"
        )
    total = distribution._weighted_sq_sum(A)
    if not np.isfinite(total):
        check_matrix(A)
    return total


# ---------------------------------------------------------------------------
# Text formats.  Each format has one writer, `save_*`, which writes a line or
# a block of lines at a time, and one reader, `load_*`, which streams its open
# file: `_nonblank_lines` yields the stripped lines that are not blank, each
# header is one line taken from that stream, and numpy parses the rest
# (`_parse_rows`), so no reader holds the text or a list of its lines.  Line
# counts are checked on the parsed arrays.  A malformed line -- a token that
# is not a number of its column's type, a row of the wrong width, a "#"
# comment -- or a missing one raises ValidationError naming the format.
# Blank and whitespace-only lines are skipped.
#
# Dense matrix interchange format: first line "d1,d2", then d1 lines of d2
# comma-separated decimals.  Values survive a round trip (17 significant
# digits covers IEEE doubles exactly).

def _nonblank_lines(fh):
    """The lines of the open text file `fh` that are not blank, stripped.

    np.loadtxt on a stream fails on a whitespace-only line ("the number of
    columns changed"), so every reader takes its lines from here.
    """
    return (s for s in map(str.strip, fh) if s)


def _parse_rows(lines, dtype, what: str) -> np.ndarray:
    """The lines of the iterator `lines`, read to its end, as one record
    (structured dtype) or row each.

    The first line is taken here: np.loadtxt warns on an empty input, and a
    missing line is a ValidationError like a malformed one.
    """
    first = next(lines, None)
    if first is None:
        raise ValidationError(f"missing {what}")
    dtype = np.dtype(dtype)
    try:
        return np.loadtxt(chain([first], lines), dtype=dtype, delimiter=",", comments=None,
                          ndmin=1 if dtype.names else 2)
    except ValueError as exc:
        raise ValidationError(f"bad {what}: {exc}") from exc


def _dense_lines(A):
    """The dense format of a checked matrix: the header line, then one line per row."""
    d1, d2 = A.shape
    yield f"{d1},{d2}\n"
    template = ",".join(["%.17g"] * d2) + "\n"
    for row in A:
        yield template % tuple(row.tolist())


def _read_dense(lines) -> np.ndarray:
    """The dense matrix whose header is the next of `lines`, read to their end."""
    d1, d2 = _parse_rows(islice(lines, 1), "i8,i8", "dense matrix header")[0].tolist()
    A = _parse_rows(lines, np.float64, "dense matrix row")
    if A.shape[0] != d1:
        raise ValidationError(f"expected {d1} dense matrix rows, found {A.shape[0]}")
    if A.shape[1] != d2:
        raise ValidationError(f"expected {d2} dense matrix columns, found {A.shape[1]}")
    return check_matrix(A)


def save_dense(path, M) -> None:
    """Write M in the dense format one row at a time, never holding the whole text."""
    A = check_matrix(M)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(_dense_lines(A))


def load_dense(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        return _read_dense(_nonblank_lines(fh))
