"""Matrix/factorization value types and the norms used throughout.

Matrices are plain 2-D float64 ndarrays.  A factorization is a pair
``(U, V)`` with product ``U @ V.T``; its defining quantity here is the
product of maximum row norms ``|U|_{2,inf} * |V|_{2,inf}``, which upper
bounds the factorization norm (max-norm) of the product.  The exact
max-norm is a semidefinite program and is deliberately not computed;
the toolkit only ever needs the elementwise lower bound and per-factor
upper bounds.
"""

from dataclasses import dataclass

import numpy as np

# Grothendieck's constant is only known to lie in this interval; the upper
# end is used whenever an upper bound is needed.
GROTHENDIECK_INTERVAL = (1.67, 1.79)
GROTHENDIECK_UPPER = GROTHENDIECK_INTERVAL[1]

DEFAULT_RANK_TOLERANCE = 1e-10


class ValidationError(ValueError):
    """Invalid input to a toolkit operation."""


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out is a:
        out = out.copy()
    out.flags.writeable = False
    return out


def check_matrix(M, name: str = "matrix") -> np.ndarray:
    """Validate a dense real matrix: 2-D, nonempty, all entries finite."""
    A = np.asarray(M, dtype=np.float64)
    if A.ndim != 2 or A.size == 0:
        raise ValidationError(f"{name} must be a nonempty 2-D array, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return A


@dataclass(frozen=True)
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
    (equivalently on the factorization norm of the product), so radius >= alpha
    is required for the set to be nonempty.
    """

    alpha: float
    radius: float

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValidationError(f"alpha must be positive and finite, got {self.alpha}")
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValidationError(f"radius must be positive and finite, got {self.radius}")
        if self.radius < self.alpha:
            raise ValidationError(
                f"radius must be >= alpha (else the feasible set is empty), "
                f"got radius={self.radius} < alpha={self.alpha}"
            )


@dataclass(frozen=True)
class NormReport:
    frobenius: float
    linf: float
    trace: float
    rank_numeric: int


@dataclass(frozen=True)
class FactorNormReport:
    two_inf_U: float
    two_inf_V: float
    max_norm_upper: float


def matrix_norms(M) -> NormReport:
    """Frobenius, elementwise max, trace norm and numeric rank of M.

    The trace norm is the sum of singular values from a full SVD (matrices
    here are desk-scale).  Singular values below
    DEFAULT_RANK_TOLERANCE * sigma_max count as zero for the numeric rank.
    """
    A = check_matrix(M)
    s = np.linalg.svd(A, compute_uv=False)
    smax = s[0] if s.size else 0.0
    rank = int(np.count_nonzero(s > DEFAULT_RANK_TOLERANCE * smax)) if smax > 0 else 0
    return NormReport(
        frobenius=float(np.linalg.norm(A)),
        linf=float(np.abs(A).max()),
        trace=float(s.sum()),
        rank_numeric=rank,
    )


def two_inf_norm(A) -> float:
    """Maximum row l2 norm."""
    A = check_matrix(A)
    return float(np.sqrt((A * A).sum(axis=1).max()))


def factor_norms(F: Factorization) -> FactorNormReport:
    """Row-norm report for a factor pair.

    max_norm_upper = |U|_{2,inf} * |V|_{2,inf} upper-bounds the factorization
    norm of U @ V.T, hence also its elementwise max.
    """
    tu = two_inf_norm(F.U)
    tv = two_inf_norm(F.V)
    return FactorNormReport(two_inf_U=tu, two_inf_V=tv, max_norm_upper=tu * tv)


def pi_weighted_sq_norm(M, distribution) -> float:
    """Sampling-weighted squared norm: sum_kl probs[k,l] * M[k,l]^2.

    `distribution` may be a SamplingDistribution or a bare probability array
    of the same shape as M.
    """
    A = check_matrix(M)
    probs = np.asarray(getattr(distribution, "probs", distribution), dtype=np.float64)
    if probs.shape != A.shape:
        raise ValidationError(
            f"distribution shape {probs.shape} does not match matrix shape {A.shape}"
        )
    return float(np.einsum("ij,ij,ij->", probs, A, A))


# ---------------------------------------------------------------------------
# Text formats.  Every reader parses its numeric lines, headers included,
# with numpy (`_parse_rows`).  A malformed line -- a token that is not a
# number of its column's type, a row of the wrong width, a "#" comment -- or
# a missing one raises ValidationError naming the format.  Blank lines are
# skipped.
#
# Dense matrix interchange format: first line "d1,d2", then d1 lines of d2
# comma-separated decimals.  Values survive a round trip (17 significant
# digits covers IEEE doubles exactly).

def _parse_rows(lines, dtype, what: str) -> np.ndarray:
    """Nonblank comma-separated lines as one record (structured dtype) or row each."""
    if not lines:
        raise ValidationError(f"missing {what}")
    dtype = np.dtype(dtype)
    try:
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                          ndmin=1 if dtype.names else 2)
    except ValueError as exc:
        raise ValidationError(f"bad {what}: {exc}") from exc


def format_dense(M) -> str:
    A = check_matrix(M)
    d1, d2 = A.shape
    template = ",".join(["%.17g"] * d2)
    lines = [f"{d1},{d2}"]
    for row in A:
        lines.append(template % tuple(row.tolist()))
    return "\n".join(lines) + "\n"


def parse_dense(text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    d1, d2 = _parse_rows(lines[:1], "i8,i8", "dense matrix header")[0].tolist()
    if len(lines) != 1 + d1:
        raise ValidationError(f"expected {d1} dense matrix rows, found {len(lines) - 1}")
    A = _parse_rows(lines[1:], np.float64, "dense matrix row")
    if A.shape[1] != d2:
        raise ValidationError(f"expected {d2} dense matrix columns, found {A.shape[1]}")
    return check_matrix(A)


def save_dense(path, M) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_dense(M))


def load_dense(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        return parse_dense(fh.read())
