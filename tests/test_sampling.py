from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from maxnorm_completion import (
    NoiseModel,
    ObservationSet,
    SamplingDistribution,
    ValidationError,
    make_distribution,
    observe,
    _rng,
    sample_indices,
)
from maxnorm_completion.sampling import (
    format_distribution,
    format_observations,
    load_distribution,
    load_observations,
    parse_distribution,
    parse_observations,
    save_distribution,
    save_observations,
)


def test_uniform_distribution():
    dist = make_distribution("uniform", 4, 5)
    assert np.allclose(dist.probs, 1.0 / 20)
    assert dist.mu == pytest.approx(1.0, rel=1e-12)
    assert dist.L == pytest.approx(1.0, rel=1e-12)


def test_product_distribution_cells_and_flatness():
    dist = make_distribution("product", 2, 2,
                             row_marginals=[1 / 3, 2 / 3],
                             col_marginals=[0.5, 0.5])
    # Second row, first column cell carries (2/3) * (1/2) = 1/3.
    assert dist.probs[1, 0] == pytest.approx(1.0 / 3, rel=1e-12)
    assert dist.mu == pytest.approx(1.5, rel=1e-12)
    assert dist.L == pytest.approx(4.0 / 3, rel=1e-12)


def test_marginals_are_normalized_before_use():
    dist = make_distribution("product", 2, 2,
                             row_marginals=[2.0, 4.0], col_marginals=[3.0, 3.0])
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert dist.probs[0, 0] == pytest.approx((1 / 3) * 0.5, rel=1e-12)


def _with_zero_cells(kind, weights):
    """`weights` normalized, zero cells allowed: make_distribution rejects those."""
    w = np.asarray(weights, dtype=np.float64)
    return SamplingDistribution(d1=w.shape[0], d2=w.shape[1], probs=w / w.sum(), kind=kind)


def test_explicit_zero_cell_rejected_when_positivity_required():
    probs = np.array([[0.5, 0.5], [0.0, 0.0]])
    with pytest.raises(ValidationError, match="zero cell"):
        make_distribution("explicit", 2, 2, probs=probs)
    with pytest.raises(ValidationError, match="zero cell"):
        make_distribution("product", 2, 2, row_marginals=[1, 0], col_marginals=[1, 1])
    assert _with_zero_cells("explicit", probs).mu == np.inf


def test_flatness_parameters_never_below_one():
    rng = np.random.default_rng(3)
    for _ in range(50):
        probs = rng.uniform(0.05, 1.0, size=(3, 4))
        dist = make_distribution("explicit", 3, 4, probs=probs)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert dist.mu >= 1.0 - 1e-12
        assert dist.L >= 1.0 - 1e-12


def test_point_mass_sampling():
    probs = np.zeros((3, 4))
    probs[2, 3] = 1.0
    idx = sample_indices(_with_zero_cells("explicit", probs), 5, seed=0)
    assert np.array_equal(idx, np.tile([2, 3], (5, 1)))


def test_uniform_cell_frequencies():
    dist = make_distribution("uniform", 2, 2)
    idx = sample_indices(dist, 100_000, seed=42)
    for i in range(2):
        for j in range(2):
            freq = np.mean((idx[:, 0] == i) & (idx[:, 1] == j))
            assert 0.24 <= freq <= 0.26


def test_sampling_determinism():
    dist = make_distribution("uniform", 6, 7)
    a = sample_indices(dist, 1000, seed=9)
    b = sample_indices(dist, 1000, seed=9)
    assert np.array_equal(a, b)
    c = sample_indices(dist, 1000, seed=10)
    assert not np.array_equal(a, c)


def _choice_draws(dist, n, seed):
    """The draws of `Generator.choice` on the flattened distribution, unravelled."""
    rng = _rng.stream_rng(seed, _rng.SAMPLING)
    flat = rng.choice(dist.d1 * dist.d2, size=n, p=dist.probs.ravel())
    return np.column_stack(np.unravel_index(flat, (dist.d1, dist.d2)))


def _point_mass(d1, d2, i, j):
    probs = np.zeros((d1, d2))
    probs[i, j] = 1.0
    return _with_zero_cells("explicit", probs)


_weights = st.one_of(st.just(0.0), st.floats(0.0, 10.0))


def _weight_lists(size):
    return st.lists(_weights, min_size=size, max_size=size).filter(lambda v: sum(v) > 0)


@st.composite
def _distributions(draw):
    """Uniform, product and explicit distributions; the last two with zero cells."""
    d1, d2 = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["uniform", "product", "explicit", "point"]))
    if kind == "uniform":
        return make_distribution("uniform", d1, d2)
    if kind == "product":
        row, col = np.array(draw(_weight_lists(d1))), np.array(draw(_weight_lists(d2)))
        return _with_zero_cells("product", np.outer(row / row.sum(), col / col.sum()))
    if kind == "point":
        return _point_mass(d1, d2, draw(st.integers(0, d1 - 1)), draw(st.integers(0, d2 - 1)))
    return _with_zero_cells("explicit", np.reshape(draw(_weight_lists(d1 * d2)), (d1, d2)))


@settings(deadline=None, max_examples=200)
@given(dist=_distributions(), n=st.integers(1, 300), seed=st.integers(0, 2**63 - 1))
@example(dist=_point_mass(3, 4, 2, 3), n=1, seed=0)
@example(dist=make_distribution("uniform", 1, 1), n=1, seed=1)
def test_sample_indices_equals_generator_choice(dist, n, seed):
    idx = sample_indices(dist, n, seed)
    assert idx.dtype == np.int64 and idx.shape == (n, 2)
    assert np.array_equal(idx, _choice_draws(dist, n, seed))
    assert (dist.probs[idx[:, 0], idx[:, 1]] > 0).all()  # zero cells are never drawn


class _TieGenerator(np.random.Generator):
    """Uniforms on exact CDF values, 0 and the largest draw, where the search's side shows."""

    def random(self, size=None, dtype=np.float64, out=None):
        return np.resize([0.0, 0.25, 0.5, 0.75, 0.2, 0.6, np.nextafter(1.0, 0.0)], size)


def test_sample_indices_ties_equal_generator_choice():
    leading_zeros = np.array([[0.0, 0.25, 0.0, 0.25], [0.0, 0.0, 0.5, 0.0]])
    dists = [make_distribution("uniform", 2, 2),
             make_distribution("uniform", 2, 5),  # its unnormalized CDF ends below 1
             _with_zero_cells("explicit", leading_zeros),
             _point_mass(3, 4, 2, 3)]
    tie_rng = lambda seed, stream: _TieGenerator(np.random.PCG64(seed))
    with patch.object(_rng, "stream_rng", tie_rng):
        for dist in dists:
            idx = sample_indices(dist, 7, seed=0)
            assert np.array_equal(idx, _choice_draws(dist, 7, seed=0))
            assert (dist.probs[idx[:, 0], idx[:, 1]] > 0).all()


def test_sample_indices_pinned_draws():
    # Frozen literal: the stream must not change across numpy or package versions.
    dist = make_distribution("product", 5, 7, row_marginals=[1, 2, 3, 4, 5],
                             col_marginals=[7, 6, 5, 4, 3, 2, 1])
    assert sample_indices(dist, 8, seed=2013).tolist() == [
        [2, 0], [3, 0], [4, 0], [3, 2], [0, 4], [1, 0], [2, 2], [3, 0]]


@pytest.mark.parametrize("bad", [np.nan, -0.25, 0.5])
def test_sample_indices_rechecks_probabilities(bad):
    dist = make_distribution("uniform", 2, 2)
    probs = np.full((2, 2), 0.25)
    probs[0, 0] = bad
    if bad < 0:
        probs[0, 1] = 0.75  # a negative cell with the total still 1
    object.__setattr__(dist, "probs", probs)
    with pytest.raises(ValidationError):
        sample_indices(dist, 3, seed=0)


def test_empirical_distribution_total_variation():
    rng = np.random.default_rng(5)
    probs = rng.uniform(0.2, 1.0, size=(5, 5))
    dist = make_distribution("explicit", 5, 5, probs=probs)
    idx = sample_indices(dist, 100_000, seed=77)
    counts = np.zeros((5, 5))
    np.add.at(counts, (idx[:, 0], idx[:, 1]), 1.0)
    tv = 0.5 * np.abs(counts / idx.shape[0] - dist.probs).sum()
    assert tv < 0.02


def test_observe_noiseless_copies_entries():
    M0 = np.arange(12.0).reshape(3, 4)
    idx = np.array([[0, 0], [2, 3], [1, 1]])
    obs = observe(M0, idx, NoiseModel(kind="none", sigma=0.0), seed=4)
    assert np.array_equal(obs.values, [0.0, 11.0, 5.0])


def test_observe_gaussian_moments():
    c = 2.5
    M0 = np.full((10, 10), c)
    dist = make_distribution("uniform", 10, 10)
    idx = sample_indices(dist, 100_000, seed=12)
    obs = observe(M0, idx, NoiseModel(kind="gaussian", sigma=1.0), seed=12)
    assert abs(obs.values.mean() - c) < 0.02
    assert abs(obs.values.var() - 1.0) < 0.05


def test_laplace_noise_variance_and_exponential_moment():
    # One million draws: unit variance, and the sub-exponential moment
    # condition E exp(|xi|/K) <= e holds at K = 2.
    M0 = np.zeros((1, 1))
    idx = np.zeros((1_000_000, 2), dtype=np.int64)
    obs = observe(M0, idx, NoiseModel(kind="laplace", sigma=1.0), seed=31)
    xi = obs.values
    assert abs(xi.var() - 1.0) < 0.05
    assert np.exp(np.abs(xi) / 2.0).mean() <= np.e


def test_observe_reproducible():
    M0 = np.arange(6.0).reshape(2, 3)
    idx = np.array([[0, 0], [1, 2], [1, 1], [0, 2]])
    noise = NoiseModel(kind="gaussian", sigma=0.3)
    a = observe(M0, idx, noise, seed=8)
    b = observe(M0, idx, noise, seed=8)
    assert np.array_equal(a.values, b.values)


def test_observe_index_out_of_range():
    with pytest.raises(ValidationError):
        observe(np.ones((2, 2)), np.array([[0, 2]]), NoiseModel(kind="none"), seed=0)


def test_noise_model_validation():
    with pytest.raises(ValidationError):
        NoiseModel(kind="cauchy", sigma=1.0)
    with pytest.raises(ValidationError):
        NoiseModel(kind="gaussian", sigma=-1.0)


def test_observation_round_trip(tmp_path):
    M0 = np.arange(20.0).reshape(4, 5) / 7.0
    dist = make_distribution("uniform", 4, 5)
    idx = sample_indices(dist, 30, seed=2)
    obs = observe(M0, idx, NoiseModel(kind="gaussian", sigma=0.1), seed=2)
    path = tmp_path / "obs.csv"
    save_observations(path, obs)
    back = load_observations(path)
    assert (back.d1, back.d2, back.n) == (4, 5, 30)
    assert np.array_equal(back.indices, obs.indices)
    assert np.array_equal(back.values, obs.values)


def test_observation_format_header():
    obs = ObservationSet(d1=2, d2=2, indices=np.array([[0, 1]]), values=np.array([0.5]))
    text = format_observations(obs)
    assert text.splitlines()[0] == "2,2,1"
    assert text.splitlines()[1] == "0,1,0.5"
    with pytest.raises(ValidationError):
        parse_observations("2,2,2\n0,1,0.5\n")


def test_parse_observations_rejects_malformed_rows():
    obs = parse_observations("2,2,2\n \n0,1,0.5\n\t\n1,1,-2\n\n")  # blank lines are skipped
    assert obs.indices.tolist() == [[0, 1], [1, 1]] and obs.values.tolist() == [0.5, -2.0]
    for text in ["2,2,1\n1.5,0,1\n",  # an index is an integer
                 "2,2,1\n0,0,abc\n",  # not a number
                 "2,2,1\n0,0,1_0\n",  # float() reads underscores; the format has none
                 "2,2,1\n0,0,1 # note\n",  # "#" starts no comment
                 "2,2,1\n0,0,1,2\n",  # too wide
                 "2,2,1\n0,0\n",  # too narrow
                 "2,2,0\n",  # a header and no rows
                 "2,2,1\n"]:  # a header and a missing row
        with pytest.raises(ValidationError, match="observation"):
            parse_observations(text)


_ANY_FINITE = st.floats(allow_nan=False, allow_infinity=False)  # -0.0 and subnormals included


@st.composite
def _observation_sets(draw):
    d1, d2 = draw(st.integers(1, 2**31)), draw(st.integers(1, 2**31))
    n = draw(st.integers(1, 12))
    idx = [(draw(st.integers(0, d1 - 1)), draw(st.integers(0, d2 - 1))) for _ in range(n)]
    values = draw(st.lists(_ANY_FINITE, min_size=n, max_size=n))
    return ObservationSet(d1=d1, d2=d2, indices=np.array(idx), values=np.array(values))


@settings(deadline=None, max_examples=200)
@given(obs=_observation_sets())
@example(obs=ObservationSet(d1=3, d2=3, indices=np.array([[0, 0], [1, 2], [2, 1], [2, 2]]),
                            values=np.array([-0.0, 5e-324, 1.7976931348623157e308,
                                             -1.7976931348623157e308])))
def test_observation_round_trip_is_bit_identical(obs):
    back = parse_observations(format_observations(obs))
    assert (back.d1, back.d2) == (obs.d1, obs.d2)
    assert np.array_equal(back.indices, obs.indices)
    assert np.array_equal(back.values.view(np.int64), obs.values.view(np.int64))


def test_observation_format_is_byte_exact():
    values = [-0.0, 5e-324, 1e300, 2.0 ** 60, -1 / 3, 0.1]
    idx = np.array([[0, 1], [999_999, 1_000_000], [1_234_567, 7], [3, 2_000_000],
                    [1_999_999, 0], [5, 5]])
    obs = ObservationSet(d1=2_000_001, d2=2_000_001, indices=idx, values=np.array(values))
    old = [f"{obs.d1},{obs.d2},{obs.n}"]
    old += [f"{i},{j},{y:.17g}" for (i, j), y in zip(obs.indices, obs.values)]
    text = format_observations(obs)
    assert text == "\n".join(old) + "\n"
    assert text.splitlines()[2:4] == ["999999,1000000,4.9406564584124654e-324",
                                      "1234567,7,1.0000000000000001e+300"]


def test_distribution_round_trip(tmp_path):
    for dist in [
        make_distribution("uniform", 3, 4),
        make_distribution("product", 3, 4, row_marginals=[1, 2, 3],
                          col_marginals=[1, 1, 2, 4]),
        make_distribution("explicit", 2, 2,
                          probs=np.array([[0.1, 0.2], [0.3, 0.4]])),
    ]:
        path = tmp_path / f"{dist.kind}.dist"
        save_distribution(path, dist)
        back = load_distribution(path)
        assert back.kind == dist.kind
        assert np.allclose(back.probs, dist.probs, rtol=0, atol=1e-15)


def test_distribution_parse_errors():
    with pytest.raises(ValidationError):
        parse_distribution("2,2\ntriangular\n")
    with pytest.raises(ValidationError):
        parse_distribution("2,2\nproduct\n1,1\n")
    for text, what in [("2,2\nproduct\n1,x\n1,1\n", "row marginal"),
                       ("2,2\nproduct\n1,1\n1,1 # note\n", "column marginal"),
                       ("2,2\nexplicit\n0.1,0.2\n0.3,abc\n", "explicit distribution"),
                       ("2,2\nexplicit\n0.1,0.2\n0.3,0.2,0.2\n", "explicit distribution"),
                       ("0,2\nexplicit\n", "explicit distribution")]:
        with pytest.raises(ValidationError, match=what):
            parse_distribution(text)
