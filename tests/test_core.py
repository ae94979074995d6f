import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from maxnorm_completion import (
    ConstraintSet,
    Factorization,
    ValidationError,
    factor_norms,
    matrix_norms,
    pi_weighted_sq_norm,
)
from maxnorm_completion.core import format_dense, load_dense, parse_dense, save_dense


def test_identity_norms():
    rep = matrix_norms(np.eye(2))
    assert rep.frobenius == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert rep.linf == 1.0
    assert rep.trace == pytest.approx(2.0, rel=1e-12)
    assert rep.rank_numeric == 2


def test_zero_matrix_norms():
    rep = matrix_norms(np.zeros((3, 4)))
    assert rep.frobenius == 0.0
    assert rep.linf == 0.0
    assert rep.trace == 0.0
    assert rep.rank_numeric == 0


def test_trace_norm_matches_eigensolve_oracle():
    # Independent oracle: the two nonzero singular values via the top
    # eigenvalues of M^T M (the rest are zero for a rank-2 product).
    rng = np.random.default_rng(7)
    for _ in range(20):
        M = rng.normal(size=(5, 2)) @ rng.normal(size=(5, 2)).T
        eigs = np.sort(np.linalg.eigvalsh(M.T @ M))[::-1]
        oracle_trace = np.sqrt(np.clip(eigs[:2], 0.0, None)).sum()
        rep = matrix_norms(M)
        assert rep.trace == pytest.approx(oracle_trace, rel=1e-9)
        assert rep.rank_numeric == 2


def test_non_finite_entries_rejected():
    M = np.ones((2, 2))
    M[0, 1] = np.nan
    with pytest.raises(ValidationError):
        matrix_norms(M)
    with pytest.raises(ValidationError):
        Factorization(U=np.array([[np.inf]]), V=np.array([[1.0]]))


def test_factor_norms_all_ones_column():
    F = Factorization(U=np.ones((2, 1)), V=np.ones((2, 1)))
    rep = factor_norms(F)
    assert rep.two_inf_U == 1.0
    assert rep.two_inf_V == 1.0
    assert rep.max_norm_upper == 1.0
    assert np.array_equal(F.product(), np.ones((2, 2)))


def test_factor_norms_three_four_five():
    F = Factorization(U=np.array([[3.0, 4.0], [0.0, 1.0]]), V=np.eye(2))
    assert factor_norms(F).two_inf_U == pytest.approx(5.0, rel=1e-15)


def test_product_linf_bounded_by_factor_upper():
    rng = np.random.default_rng(11)
    for _ in range(500):
        d1, d2, k = rng.integers(1, 9, size=3)
        F = Factorization(U=rng.normal(size=(d1, k)), V=rng.normal(size=(d2, k)))
        rep = factor_norms(F)
        linf = np.abs(F.product()).max()
        assert linf <= rep.max_norm_upper + 1e-9


def test_trace_over_sqrt_dims_bounded_by_factor_upper():
    rng = np.random.default_rng(13)
    for _ in range(200):
        d1, d2, k = rng.integers(1, 9, size=3)
        F = Factorization(U=rng.normal(size=(d1, k)), V=rng.normal(size=(d2, k)))
        rep = factor_norms(F)
        trace = matrix_norms(F.product()).trace
        assert trace / np.sqrt(d1 * d2) <= rep.max_norm_upper + 1e-9


def test_frobenius_trace_rank_sandwich():
    rng = np.random.default_rng(17)
    for _ in range(200):
        d1, d2 = rng.integers(1, 13, size=2)
        M = rng.normal(size=(d1, d2))
        rep = matrix_norms(M)
        scale = max(rep.frobenius, 1e-300)
        assert rep.frobenius <= rep.trace + 1e-9 * scale
        assert rep.trace <= np.sqrt(rep.rank_numeric) * rep.frobenius + 1e-9 * scale


def test_pi_weighted_uniform_identity():
    probs = np.full((2, 2), 0.25)
    assert pi_weighted_sq_norm(np.eye(2), probs) == pytest.approx(0.5, rel=1e-15)


def test_pi_weighted_uniform_equals_scaled_frobenius():
    rng = np.random.default_rng(19)
    M = rng.normal(size=(4, 6))
    probs = np.full((4, 6), 1.0 / 24)
    expected = matrix_norms(M).frobenius ** 2 / 24
    assert pi_weighted_sq_norm(M, probs) == pytest.approx(expected, abs=1e-12)


def test_pi_weighted_point_mass():
    probs = np.zeros((3, 3))
    probs[1, 1] = 1.0
    M = np.arange(9.0).reshape(3, 3)
    assert pi_weighted_sq_norm(M, probs) == pytest.approx(M[1, 1] ** 2, rel=1e-15)


def test_pi_weighted_shape_mismatch():
    with pytest.raises(ValidationError):
        pi_weighted_sq_norm(np.eye(2), np.full((3, 3), 1.0 / 9))


def test_factorization_column_mismatch():
    with pytest.raises(ValidationError):
        Factorization(U=np.ones((2, 2)), V=np.ones((2, 3)))


def test_constraint_set_requires_radius_at_least_alpha():
    with pytest.raises(ValidationError):
        ConstraintSet(alpha=2.0, radius=1.0)
    ConstraintSet(alpha=1.0, radius=1.0)  # boundary is fine


def test_factorization_is_immutable():
    F = Factorization(U=np.ones((2, 1)), V=np.ones((2, 1)))
    with pytest.raises(ValueError):
        F.U[0, 0] = 5.0


def test_dense_round_trip_exact(tmp_path):
    rng = np.random.default_rng(23)
    M = rng.normal(size=(7, 3)) * np.exp(rng.uniform(-30, 30, size=(7, 3)))
    path = tmp_path / "m.dense"
    save_dense(path, M)
    back = load_dense(path)
    assert back.shape == M.shape
    assert np.array_equal(back, M)


def test_dense_format_header_and_layout():
    text = format_dense(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    lines = text.splitlines()
    assert lines[0] == "3,2"
    assert lines[1] == "1,2"
    assert len(lines) == 4


def test_dense_format_is_byte_exact():
    values = [-0.0, 5e-324, 1e300, 2.0 ** 60, -1 / 3, 0.1]
    M = np.array([values, values[::-1]])
    lines = format_dense(M).splitlines()
    assert lines[1:] == [",".join(f"{x:.17g}" for x in row) for row in M.tolist()]
    assert lines[1] == "-0,4.9406564584124654e-324,1.0000000000000001e+300,1.152921504606847e+18,-0.33333333333333331,0.10000000000000001"


def test_parse_dense_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        parse_dense("2,2\n1,2\n")
    with pytest.raises(ValidationError):
        parse_dense("1,3\n1,2\n")
    with pytest.raises(ValidationError):
        parse_dense("")
    for text in ["1,2\n1,x\n",  # not a number
                 "1,2\n1,1_0\n",  # float() reads underscores; the format has none
                 "1,2\n1,2 # note\n",  # "#" starts no comment
                 "1,2\n1,2,3\n",  # too wide
                 "2,2\n1,2\n3\n",  # a row narrower than the first
                 "0,2\n"]:  # a header and no rows
        with pytest.raises(ValidationError, match="dense matrix"):
            parse_dense(text)


def test_parse_dense_skips_blank_lines():
    assert np.array_equal(parse_dense("\n2,1\n \n1\n\t\n2\n\n"), [[1.0], [2.0]])


_ANY_FINITE = st.floats(allow_nan=False, allow_infinity=False)  # -0.0 and subnormals included
_EDGE_VALUES = [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                -1.7976931348623157e308, 0.1]


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 6).flatmap(
    lambda d2: st.lists(st.lists(_ANY_FINITE, min_size=d2, max_size=d2), min_size=1, max_size=6)))
@example([_EDGE_VALUES, _EDGE_VALUES[::-1]])
@example([[1.0]])
def test_dense_round_trip_is_bit_identical(rows):
    M = np.array(rows, dtype=np.float64)
    back = parse_dense(format_dense(M))
    assert back.shape == M.shape
    assert np.array_equal(back.view(np.int64), M.view(np.int64))
