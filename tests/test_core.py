import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from maxnorm_completion import (
    ConstraintSet,
    Factorization,
    NoiseModel,
    ObservationSet,
    PartialMatrix,
    RankEstimate,
    RankSearchConfig,
    RateParams,
    SamplingDistribution,
    SolverConfig,
    ValidationError,
    fit_pgd,
    make_distribution,
    pi_weighted_sq_norm,
)
from maxnorm_completion.core import check_matrix, load_dense, save_dense


def _saved_text(tmp_path, M) -> str:
    path = tmp_path / "m.dense"
    save_dense(path, M)
    return path.read_text(encoding="ascii")


def _load_text(tmp_path, text: str) -> np.ndarray:
    path = tmp_path / "m.dense"
    path.write_text(text, encoding="ascii")
    return load_dense(path)


def test_non_finite_entries_rejected():
    M = np.ones((2, 2))
    M[0, 1] = np.nan
    with pytest.raises(ValidationError):
        check_matrix(M)
    with pytest.raises(ValidationError):
        Factorization(U=np.array([[np.inf]]), V=np.array([[1.0]]))


@pytest.mark.parametrize("entries", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]])
def test_check_matrix_names_non_finite_entries(entries):
    M = np.ones((3, 4))
    M[1, :len(entries)] = entries
    with pytest.raises(ValidationError, match="M0 contains non-finite entries"):
        check_matrix(M, "M0")


def test_check_matrix_accepts_finite_entries_whose_sum_overflows():
    M = np.full((2, 3), 1e308)
    M[1, 2] = -1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_matrix(M) is M


def test_check_matrix_builds_no_temporary_of_the_matrix_size():
    M = np.random.default_rng(6).normal(size=(2000, 2000))  # a bool mask of it is 3.8 MiB
    tracemalloc.start()
    try:
        check_matrix(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_pi_weighted_uniform_identity():
    for dist in (make_distribution("uniform", 2, 2),
                 make_distribution("explicit", 2, 2, probs=np.full((2, 2), 0.25))):
        assert pi_weighted_sq_norm(np.eye(2), dist) == pytest.approx(0.5, rel=1e-15)


def test_pi_weighted_uniform_equals_scaled_frobenius():
    rng = np.random.default_rng(19)
    M = rng.normal(size=(4, 6))
    dist = make_distribution("explicit", 4, 6, probs=np.full((4, 6), 1.0 / 24))
    expected = np.linalg.norm(M) ** 2 / 24
    assert pi_weighted_sq_norm(M, dist) == pytest.approx(expected, abs=1e-12)


def test_pi_weighted_point_mass():
    probs = np.zeros((3, 3))
    probs[1, 1] = 1.0
    # make_distribution rejects zero cells, so build the distribution directly.
    dist = SamplingDistribution(d1=3, d2=3, kind="explicit", cell_probs=probs)
    M = np.arange(9.0).reshape(3, 3)
    assert pi_weighted_sq_norm(M, dist) == pytest.approx(M[1, 1] ** 2, rel=1e-15)


def test_pi_weighted_shape_mismatch():
    with pytest.raises(ValidationError):
        pi_weighted_sq_norm(np.eye(2), make_distribution("uniform", 3, 3))
    with pytest.raises(ValidationError):
        pi_weighted_sq_norm(np.eye(2), make_distribution("explicit", 3, 3,
                                                         probs=np.full((3, 3), 1.0 / 9)))


def _marginal_distributions(rng, d1, d2):
    """A uniform and two product distributions: random and power-law marginals."""
    return [make_distribution("uniform", d1, d2),
            make_distribution("product", d1, d2, row_marginals=rng.uniform(0, 1, d1) + 1e-3,
                              col_marginals=rng.uniform(0, 1, d2) + 1e-3),
            make_distribution("product", d1, d2, row_marginals=np.arange(1, d1 + 1) ** -1.5,
                              col_marginals=np.arange(d2, 0, -1) ** -0.7)]


@pytest.mark.parametrize("d1, d2", [(1, 1), (1, 7), (6, 1), (37, 53), (400, 300)])
def test_pi_weighted_marginal_forms_match_dense_einsum(d1, d2):
    rng = np.random.default_rng(d1 * 1000 + d2)
    M = rng.normal(size=(d1, d2)) * rng.uniform(0.1, 10.0)
    M[rng.random((d1, d2)) < 0.1] = 0.0
    for dist in _marginal_distributions(rng, d1, d2):
        dense = np.einsum("ij,ij,ij->", dist.probs, M, M)
        assert pi_weighted_sq_norm(M, dist) == pytest.approx(dense, rel=1e-12, abs=0)
    with pytest.raises(ValidationError, match="does not match"):
        pi_weighted_sq_norm(np.ones((d1 + 1, d2)), dist)


def test_pi_weighted_rejects_non_finite_entries():
    rng = np.random.default_rng(8)
    probs = np.full((3, 4), 1.0 / 12)
    probs[0, :2] = 0.0, 2.0 / 12  # a zero cell: its weight times inf is NaN
    dists = _marginal_distributions(rng, 3, 4) + [
        SamplingDistribution(d1=3, d2=4, kind="explicit", cell_probs=probs)]
    for bad in (np.nan, np.inf, -np.inf):
        for cell in ((0, 0), (2, 3)):
            M = rng.normal(size=(3, 4))
            M[cell] = bad
            for dist in dists:
                with pytest.raises(ValidationError, match="non-finite"):
                    pi_weighted_sq_norm(M, dist)


def test_pi_weighted_marginal_forms_build_no_dense_temporary():
    # No d1 x d2 temporary: a float64 one would take 30.5 MB, the bool mask
    # of a finiteness scan 3.8 MB.
    d = 2000
    M = np.random.default_rng(4).normal(size=(d, d))
    for dist in _marginal_distributions(np.random.default_rng(5), d, d):
        tracemalloc.start()
        try:
            pi_weighted_sq_norm(M, dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, (dist.kind, peak)


def test_factorization_column_mismatch():
    with pytest.raises(ValidationError):
        Factorization(U=np.ones((2, 2)), V=np.ones((2, 3)))


def test_constraint_set_requires_radius_at_least_alpha():
    # Any positive radius is accepted: below alpha the row bound implies the
    # elementwise one, and a fit there is feasible on both.
    constraints = ConstraintSet(alpha=2.0, radius=1.0)
    ConstraintSet(alpha=1.0, radius=1.0)
    rng = np.random.default_rng(6)
    obs = ObservationSet(d1=6, d2=5, indices=np.column_stack([rng.integers(0, 6, 30),
                                                              rng.integers(0, 5, 30)]),
                         values=3.0 * rng.normal(size=30))
    result = fit_pgd(obs, constraints, SolverConfig(k=2, max_iters=20))
    assert result.feasible_rows and result.feasible_linf


# Each scalar parameter: a constructor of the value, the start of its error
# message, and whether 0 is allowed.
_SCALAR_PARAMETERS = {
    "ConstraintSet.alpha": (lambda v: ConstraintSet(alpha=v, radius=4.0),
                            "alpha must be positive and finite", False),
    "ConstraintSet.radius": (lambda v: ConstraintSet(alpha=1.0, radius=v),
                             "radius must be positive and finite", False),
    "SolverConfig.tau": (lambda v: SolverConfig(k=1, tau=v), "tau must be positive", False),
    "SolverConfig.tol": (lambda v: SolverConfig(k=1, tol=v), "tol must be positive", False),
    "NoiseModel.sigma": (lambda v: NoiseModel("gaussian", sigma=v),
                         "sigma must be nonnegative and finite", True),
    "RankSearchConfig.alpha0": (lambda v: RankSearchConfig(alpha0=v, r_max=2,
                                                           solver=SolverConfig(k=1)),
                                "alpha0 must be positive", False),
    "RateParams.alpha": (lambda v: RateParams(alpha=v, sigma=1.0, R=4.0, d1=2, d2=2, n=4),
                         "alpha must be positive", False),
    "RateParams.sigma": (lambda v: RateParams(alpha=1.0, sigma=v, R=4.0, d1=2, d2=2, n=4),
                         "sigma must be positive", False),
    "RateParams.R": (lambda v: RateParams(alpha=1.0, sigma=1.0, R=v, d1=2, d2=2, n=4),
                     "R must be positive", False),
    "RateParams.mu": (lambda v: RateParams(alpha=1.0, sigma=1.0, R=4.0, d1=2, d2=2, n=4, mu=v),
                      "mu must be >= 1", False),
    "RateParams.L": (lambda v: RateParams(alpha=1.0, sigma=1.0, R=4.0, d1=2, d2=2, n=4, L=v),
                     "L must be >= 1", False),
}


@pytest.mark.parametrize("parameter", sorted(_SCALAR_PARAMETERS))
def test_scalar_parameters_must_be_finite_and_in_range(parameter):
    make, message, zero_allowed = _SCALAR_PARAMETERS[parameter]
    bad = [np.nan, np.inf, -np.inf, -1.0] + ([] if zero_allowed else [0.0])
    for v in bad:
        with pytest.raises(ValidationError, match=re.escape(f"{message}, got {v}")):
            make(v)
    for v in [np.float64(2.0), 2] + ([0] if zero_allowed else []):
        make(v)


def test_factorization_is_immutable():
    F = Factorization(U=np.ones((2, 1)), V=np.ones((2, 1)))
    with pytest.raises(ValueError):
        F.U[0, 0] = 5.0


def test_array_holding_value_types_compare_by_identity():
    # Each type holds arrays, so a field-wise == would be ambiguous: two
    # instances are equal only if they are the same object, and each hashes.
    builders = [
        lambda: Factorization(U=np.ones((2, 1)), V=np.ones((2, 1))),
        lambda: make_distribution("uniform", 2, 2),
        lambda: make_distribution("product", 2, 2, row_marginals=[1.0, 2.0],
                                  col_marginals=[3.0, 1.0]),
        lambda: make_distribution("explicit", 2, 2, probs=np.full((2, 2), 0.25)),
        lambda: ObservationSet(d1=2, d2=2, indices=[[0, 1], [1, 0]], values=[0.5, -0.5]),
        lambda: PartialMatrix(d1=2, d2=2, indices=[[0, 1], [1, 0]], values=[0.5, -0.5]),
        lambda: RankEstimate(r_star=2, errors=((2, 0.1),), chosen=np.ones((2, 2))),
    ]
    for build in builders:
        x, y = build(), build()
        assert x == x
        assert not (x == y)
        assert x != y
        assert hash(x) == hash(x)


def test_dense_round_trip_exact(tmp_path):
    rng = np.random.default_rng(23)
    M = rng.normal(size=(7, 3)) * np.exp(rng.uniform(-30, 30, size=(7, 3)))
    path = tmp_path / "m.dense"
    save_dense(path, M)
    back = load_dense(path)
    assert back.shape == M.shape
    assert np.array_equal(back, M)


def test_dense_format_header_and_layout(tmp_path):
    text = _saved_text(tmp_path, np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    lines = text.splitlines()
    assert lines[0] == "3,2"
    assert lines[1] == "1,2"
    assert len(lines) == 4


def test_dense_format_is_byte_exact(tmp_path):
    values = [-0.0, 5e-324, 1e300, 2.0 ** 60, -1 / 3, 0.1]
    M = np.array([values, values[::-1]])
    lines = _saved_text(tmp_path, M).splitlines()
    assert lines[1:] == [",".join(f"{x:.17g}" for x in row) for row in M.tolist()]
    assert lines[1] == "-0,4.9406564584124654e-324,1.0000000000000001e+300,1.152921504606847e+18,-0.33333333333333331,0.10000000000000001"


def test_parse_dense_rejects_bad_shapes(tmp_path):
    with pytest.raises(ValidationError):
        _load_text(tmp_path, "2,2\n1,2\n")
    with pytest.raises(ValidationError):
        _load_text(tmp_path, "1,3\n1,2\n")
    with pytest.raises(ValidationError):
        _load_text(tmp_path, "")
    for text in ["1,2\n1,x\n",  # not a number
                 "1,2\n1,1_0\n",  # float() reads underscores; the format has none
                 "1,2\n1,2 # note\n",  # "#" starts no comment
                 "1,2\n1,2,3\n",  # too wide
                 "2,2\n1,2\n3\n",  # a row narrower than the first
                 "0,2\n"]:  # a header and no rows
        with pytest.raises(ValidationError, match="dense matrix"):
            _load_text(tmp_path, text)


def test_parse_dense_skips_blank_lines(tmp_path):
    assert np.array_equal(_load_text(tmp_path, "\n2,1\n \n1\n\t\n2\n\n"), [[1.0], [2.0]])


_ANY_FINITE = st.floats(allow_nan=False, allow_infinity=False)  # -0.0 and subnormals included
_EDGE_VALUES = [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                -1.7976931348623157e308, 0.1]


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 6).flatmap(
    lambda d2: st.lists(st.lists(_ANY_FINITE, min_size=d2, max_size=d2), min_size=1, max_size=6)))
@example([_EDGE_VALUES, _EDGE_VALUES[::-1]])
@example([[1.0]])
def test_dense_round_trip_is_bit_identical(tmp_path_factory, rows):
    M = np.array(rows, dtype=np.float64)
    path = tmp_path_factory.mktemp("dense") / "m.dense"
    save_dense(path, M)
    back = load_dense(path)
    assert back.shape == M.shape
    assert np.array_equal(back.view(np.int64), M.view(np.int64))
