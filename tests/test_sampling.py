import tracemalloc
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
    sampling,
)
from maxnorm_completion.sampling import (
    load_distribution,
    load_observations,
    save_distribution,
    save_observations,
)


def _saved_text(directory, save, value) -> str:
    path = directory / "saved.txt"
    save(path, value)
    return path.read_text(encoding="ascii")


def _load_text(directory, load, text: str):
    path = directory / "loaded.txt"
    path.write_text(text, encoding="ascii")
    return load(path)


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


def _with_zero_cells(kind, *weights):
    """Zero cells allowed, which make_distribution rejects: explicit takes one
    d1 x d2 weight array (normalized here), product its two marginals."""
    if kind == "product":
        row, col = weights
        return SamplingDistribution(d1=len(row), d2=len(col), kind=kind,
                                    row_marginals=row, col_marginals=col)
    w = np.asarray(weights[0], dtype=np.float64)
    return SamplingDistribution(d1=w.shape[0], d2=w.shape[1], kind=kind, cell_probs=w / w.sum())


@st.composite
def _marginal_pairs(draw, weights):
    """Row and column weight vectors of lengths 1-8, each with a positive total."""
    return tuple(np.array(draw(st.lists(weights, min_size=size, max_size=size)
                               .filter(lambda v: sum(v) > 0)))
                 for size in (draw(st.integers(1, 8)), draw(st.integers(1, 8))))


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


# Subnormal to 1e300: cell ratios far beyond the float range, and products
# that round to zero.
@settings(deadline=None, max_examples=300)
@given(marginals=_marginal_pairs(st.floats(0.0, 1e300)))
@example(marginals=(np.array([5e-324, 1.0]), np.array([0.25, 1.0])))  # 1e-324 rounds to 0
@example(marginals=(np.array([1e-300, 1e300]), np.array([1e-20, 1.0, 3.0])))
def test_flatness_closed_forms_equal_dense_formulas(marginals):
    dist = _with_zero_cells("product", *marginals)
    probs = dist.probs
    d1d2 = dist.d1 * dist.d2
    pmin = float(probs.min())
    mu = float("inf") if pmin <= 0.0 else 1.0 / (d1d2 * pmin)
    assert dist.mu.hex() == mu.hex()
    assert dist.L.hex() == (d1d2 * float(probs.max())).hex()
    if (probs <= 0).any():
        with pytest.raises(ValidationError, match="zero cell"):
            make_distribution("product", dist.d1, dist.d2, row_marginals=marginals[0],
                              col_marginals=marginals[1])


@pytest.mark.parametrize("d1, d2", [(1, 1), (37, 53), (400, 300)])
def test_uniform_flatness_closed_forms_equal_dense_formulas(d1, d2):
    dist = make_distribution("uniform", d1, d2)
    assert dist.mu.hex() == (1.0 / (d1 * d2 * float(dist.probs.min()))).hex()
    assert dist.L.hex() == (d1 * d2 * float(dist.probs.max())).hex()


@pytest.mark.parametrize("kind", ["uniform", "product"])
def test_make_distribution_stores_no_dense_array(kind):
    d = 2000
    kw = {} if kind == "uniform" else dict(row_marginals=np.arange(1.0, d + 1),
                                           col_marginals=np.ones(d))
    tracemalloc.start()
    try:
        dist = make_distribution(kind, d, d, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # a float64 d x d array takes 30.5 MB
    assert dist.probs.shape == (d, d) and dist.probs.flags.writeable  # built on each read


def test_explicit_distribution_holds_one_array_of_the_grid_size():
    d = 1000
    probs = np.random.default_rng(5).uniform(0.5, 1.5, (d, d))
    tracemalloc.start()
    try:
        dist = make_distribution("explicit", d, d, probs=probs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= dist.cell_probs.nbytes + (1 << 20)
    assert not dist.cell_probs.flags.writeable
    assert np.array_equal(dist.cell_probs, probs / probs.sum())
    # The distribution holds its own quotient, never the array it is given,
    # even a read-only one.
    given = probs / probs.sum()
    for _ in range(2):
        held = SamplingDistribution(d1=d, d2=d, kind="explicit", cell_probs=given).cell_probs
        assert held is not given and not np.shares_memory(held, given)
        given.flags.writeable = False


def test_distribution_fields_follow_the_kind():
    with pytest.raises(ValidationError, match="unknown distribution kind"):
        SamplingDistribution(d1=2, d2=2, kind="triangular")
    with pytest.raises(ValidationError, match="requires col_marginals"):
        SamplingDistribution(d1=2, d2=2, kind="product", row_marginals=[1, 1])
    with pytest.raises(ValidationError, match="takes no cell_probs"):
        SamplingDistribution(d1=2, d2=2, kind="uniform", cell_probs=np.full((2, 2), 0.25))
    with pytest.raises(ValidationError, match="positive, finite total"):
        make_distribution("product", 2, 2, row_marginals=[1e308, 1e308], col_marginals=[1, 1])
    with pytest.raises(ValidationError, match="grid dimensions"):
        make_distribution("uniform", 0, 3)


def test_explicit_probabilities_need_a_positive_total():
    for probs, match in [
            (np.empty((0, 0)), "does not match"),
            ([[-1.0, 0.5], [0.0, 0.0]], "must be nonnegative and finite"),
            ([[1.0, -0.5], [1.0, 1.0]], "must be nonnegative and finite"),
            ([[np.inf, 1.0], [1.0, 1.0]], "must be nonnegative and finite"),
            (np.ones((2, 3)), "does not match"),
            # A total that overflows, of finite entries.
            (np.full((2, 2), 1e308), "positive, finite total")]:
        with pytest.raises(ValidationError, match=match):
            make_distribution("explicit", 2, 2, probs=probs)


def test_explicit_weights_are_normalized_by_the_distribution():
    w = np.ones((2, 3))
    dist = SamplingDistribution(d1=2, d2=3, kind="explicit", cell_probs=w)
    assert np.array_equal(_bits(dist.cell_probs), _bits(np.divide(w, w.sum())))
    assert dist.mu == dist.L == 1.0


def test_fortran_ordered_weights_give_c_ordered_probabilities():
    # numpy sums a Fortran-ordered array in memory order, which for these
    # weights totals other bits than C order does.
    w = np.random.default_rng(4).uniform(0.5, 1.5, (37, 53))
    expected = make_distribution("explicit", 37, 53, probs=w).cell_probs
    for make in (lambda p: make_distribution("explicit", 37, 53, probs=p),
                 lambda p: SamplingDistribution(d1=37, d2=53, kind="explicit", cell_probs=p)):
        probs = make(np.asfortranarray(w)).cell_probs
        assert probs.flags.c_contiguous and not probs.flags.writeable
        assert np.array_equal(_bits(probs), _bits(expected))


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
    """The draws of `Generator.choice` from one sampling stream: a product
    distribution's n rows from its row marginal, then n columns from its
    column marginal; an explicit one's n cells from its flattened
    probabilities, unravelled."""
    rng = _rng.stream_rng(seed, _rng.SAMPLING)
    if dist.kind == "product":
        rows = rng.choice(dist.d1, size=n, p=dist.row_probs)
        return np.column_stack([rows, rng.choice(dist.d2, size=n, p=dist.col_probs)])
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
    """Product, explicit and point-mass distributions, the first two with zero
    cells: the kinds whose draw searches a CDF."""
    d1, d2 = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["product", "explicit", "point"]))
    if kind == "product":
        row, col = np.array(draw(_weight_lists(d1))), np.array(draw(_weight_lists(d2)))
        return _with_zero_cells("product", row, col)
    if kind == "point":
        return _point_mass(d1, d2, draw(st.integers(0, d1 - 1)), draw(st.integers(0, d2 - 1)))
    return _with_zero_cells("explicit", np.reshape(draw(_weight_lists(d1 * d2)), (d1, d2)))


@settings(deadline=None, max_examples=200)
@given(dist=_distributions(), n=st.integers(1, 300), seed=st.integers(0, 2**63 - 1))
@example(dist=_point_mass(3, 4, 2, 3), n=1, seed=0)
@example(dist=make_distribution("explicit", 1, 1, probs=np.ones((1, 1))), n=1, seed=1)
def test_sample_indices_equals_generator_choice(dist, n, seed):
    idx = sample_indices(dist, n, seed)
    assert idx.dtype == np.int64 and idx.shape == (n, 2)
    assert np.array_equal(idx, _choice_draws(dist, n, seed))
    assert (dist.probs[idx[:, 0], idx[:, 1]] > 0).all()  # zero cells are never drawn


class _PatternGenerator(np.random.Generator):
    """A generator whose uniforms cycle through UNIFORMS, each call going on
    where the last one stopped, as a real stream's do."""

    UNIFORMS = ()
    drawn = 0

    def random(self, size=None, dtype=np.float64, out=None):
        u = np.resize(np.roll(self.UNIFORMS, -(self.drawn % len(self.UNIFORMS))), size)
        self.drawn += u.size
        return u


class _TieGenerator(_PatternGenerator):
    """Uniforms on exact CDF values, 0 and the largest draw, where the search's side shows."""

    UNIFORMS = (0.0, 0.25, 0.5, 0.75, 0.2, 0.6, np.nextafter(1.0, 0.0))


def test_sample_indices_ties_equal_generator_choice():
    leading_zeros = np.array([[0.0, 0.25, 0.0, 0.25], [0.0, 0.0, 0.5, 0.0]])
    dists = [make_distribution("explicit", 2, 2, probs=np.ones((2, 2))),
             make_distribution("explicit", 2, 5, probs=np.ones((2, 5))),  # its CDF ends below 1
             _with_zero_cells("explicit", leading_zeros),
             _point_mass(3, 4, 2, 3),
             # marginal CDFs with exact ties at 0.25 and 0.5, and a zero first column
             _with_zero_cells("product", [1.0, 1.0, 2.0], [0.0, 1.0, 1.0, 2.0])]
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
        [2, 4], [3, 0], [4, 1], [3, 5], [0, 1], [1, 2], [2, 0], [3, 1]]
    assert sample_indices(make_distribution("uniform", 5, 7), 8, seed=2013).tolist() == [
        [2, 3], [1, 0], [1, 1], [2, 0], [2, 6], [3, 2], [3, 0], [2, 2]]


@settings(deadline=None, max_examples=200)
@given(d1=st.integers(1, 2**33), d2=st.integers(1, 2**33), n=st.integers(1, 300),
       seed=st.integers(0, 2**63 - 1), chunk=st.sampled_from([1, 7, sampling.DRAW_CHUNK]))
@example(d1=1, d2=1, n=1, seed=0, chunk=sampling.DRAW_CHUNK)
@example(d1=1, d2=2**32, n=7, seed=1, chunk=7)
@example(d1=2**32, d2=2**32, n=300, seed=2, chunk=7)
@example(d1=2**33, d2=3, n=15, seed=3, chunk=7)
def test_uniform_sample_indices_equal_integers_reference(d1, d2, n, seed, chunk):
    # Drawn `chunk` at a time, against one Generator.integers call per column.
    with patch.object(sampling, "DRAW_CHUNK", chunk):
        idx = sample_indices(make_distribution("uniform", d1, d2), n, seed)
    rng = _rng.stream_rng(seed, _rng.SAMPLING)
    rows = rng.integers(0, d1, size=n)
    cols = rng.integers(0, d2, size=n)
    assert idx.dtype == np.int64 and idx.shape == (n, 2) and idx.flags.c_contiguous
    assert np.array_equal(idx, np.column_stack([rows, cols]))


def test_sample_indices_holds_no_dense_cdf():
    # The d1*d2 CDF alone takes 30.5 MiB at d = 2000 and 3 GiB at d = 20000.
    for d in (2000, 20_000):
        dist = make_distribution("product", d, d, row_marginals=np.arange(1.0, d + 1),
                                 col_marginals=np.ones(d))
        tracemalloc.start()
        try:
            idx = sample_indices(dist, 100_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, d
        assert idx.shape == (100_000, 2) and idx.dtype == np.int64


def test_explicit_sample_indices_memory():
    # An explicit draw holds its d1*d2 CDF and a guide table of d1*d2 + 2
    # counts, beside the output and one chunk's uniforms and temporaries:
    # about 0.2 MiB more.  All n uniforms at once would read 0.95 MiB more.
    # 1025 x 1024 cells lie just past a power of two.
    n = 100_000
    rng = np.random.default_rng(6)
    for d1, d2 in [(1000, 1000), (1025, 1024)]:
        dist = make_distribution("explicit", d1, d2, probs=rng.uniform(0.5, 1.0, (d1, d2)))
        tracemalloc.start()
        try:
            idx = sample_indices(dist, n, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * d1 * d2 + idx.nbytes + (1 << 19), (d1, d2)
        assert np.array_equal(idx, _choice_draws(dist, n, seed=3))


class _CrowdedBucketGenerator(_PatternGenerator):
    """Uniforms in the first guide bucket of `_crowded_bucket` (u < 1e-4),
    among and past its tiny cells, then two elsewhere."""

    UNIFORMS = (0.0, 1e-12, 2e-9, 2.5e-9, 2.5e-9 + 1e-12, 1e-5, 6e-5, 0.5, np.nextafter(1.0, 0.0))


def _crowded_bucket():
    """One heavy cell in the middle of 10**4: the others alternate 1e-12 and
    0, so the 5000 cells below it share the first guide bucket, and a draw
    there passes them all: its scan stops short and the binary search ends it."""
    probs = np.zeros(10_000)
    probs[::2] = 1e-12
    probs[5_000] = 1.0
    return _with_zero_cells("explicit", probs.reshape(100, 100))


@pytest.mark.parametrize("crowded_draws", [False, True])
def test_sample_indices_in_crowded_guide_bucket_equals_generator_choice(crowded_draws):
    dist = _crowded_bucket()
    stream_rng = ((lambda s, stream: _CrowdedBucketGenerator(np.random.PCG64(s)))
                  if crowded_draws else _rng.stream_rng)
    with patch.object(_rng, "stream_rng", stream_rng):
        idx = sample_indices(dist, 200_000, seed=4)
        assert np.array_equal(idx, _choice_draws(dist, 200_000, seed=4))
    if crowded_draws:  # past the tiny cells: the heavy cell, found by the search
        assert idx[5:7].tolist() == [[50, 0], [50, 0]]
    else:  # the seeded uniforms reach the first bucket too
        assert (_rng.stream_rng(4, _rng.SAMPLING).random(200_000) < 2.0 ** -14).any()


@settings(deadline=None, max_examples=100)
@given(dist=_distributions(), seed=st.integers(0, 2**63 - 1), chunk=st.integers(1, 8))
def test_sample_indices_over_several_chunks_equals_generator_choice(dist, seed, chunk):
    n = 3 * chunk + 1
    with patch.object(sampling, "DRAW_CHUNK", chunk):
        assert np.array_equal(sample_indices(dist, n, seed), _choice_draws(dist, n, seed))


def test_sample_indices_bench_size_memory():
    # The bench's largest draws.  A 400 x 400 product with row marginals
    # 1/i^0.7 and n = 4 * d1 * d2: beside the 9.77 MiB output it holds one
    # chunk's uniforms and temporaries, 0.2 MiB; uniforms for all n draws at
    # once took 5.0 MiB more, and sorting them 11 MiB.  Uniform draws,
    # n = 320k on 4000 x 4000: beside the 4.88 MiB output it holds one chunk
    # of integers; all n rows at once took 2.4 MiB more.
    d = 400
    product = make_distribution("product", d, d, row_marginals=1.0 / np.arange(1, d + 1) ** 0.7,
                                col_marginals=np.ones(d))
    for dist, n in [(product, 4 * d * d), (make_distribution("uniform", 4000, 4000), 320_000)]:
        tracemalloc.start()
        try:
            idx = sample_indices(dist, n, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert idx.shape == (n, 2)
        assert peak <= idx.nbytes + (1 << 20), dist.kind


@pytest.mark.parametrize("bad", [np.nan, -0.25, 0.5])
def test_sample_indices_rechecks_probabilities(bad):
    dist = make_distribution("explicit", 2, 2, probs=np.ones((2, 2)))
    probs = np.full((2, 2), 0.25)
    probs[0, 0] = bad
    if bad < 0:
        probs[0, 1] = 0.75  # a negative cell with the total still 1
    object.__setattr__(dist, "cell_probs", probs)
    with pytest.raises(ValidationError):
        sample_indices(dist, 3, seed=0)


def test_empirical_distribution_total_variation():
    # Against the cell probabilities, so for the skewed product the bound
    # also checks that rows and columns are drawn independently.
    rng = np.random.default_rng(5)
    dists = {"explicit": make_distribution("explicit", 5, 5,
                                           probs=rng.uniform(0.2, 1.0, size=(5, 5))),
             "product": make_distribution("product", 5, 5,
                                          row_marginals=1.0 / np.arange(1, 6) ** 0.7,
                                          col_marginals=[4.0, 1.0, 3.0, 0.5, 2.0])}
    for kind, dist in dists.items():
        idx = sample_indices(dist, 100_000, seed=77)
        counts = np.zeros((5, 5))
        np.add.at(counts, (idx[:, 0], idx[:, 1]), 1.0)
        tv = 0.5 * np.abs(counts / idx.shape[0] - dist.probs).sum()
        assert tv < 0.02, kind


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
    # Each bound of each column, on a 2 x 3 grid, behind an in-range draw.
    for bad in ([-1, 0], [0, -1], [2, 0], [0, 3]):
        idx = np.array([[1, 2], bad])
        with pytest.raises(ValidationError, match="^observation indices out of range for M0$"):
            observe(np.ones((2, 3)), idx, NoiseModel(kind="none"), seed=0)
        with pytest.raises(ValidationError, match="^observation indices out of range$"):
            ObservationSet(d1=2, d2=3, indices=idx, values=np.zeros(2))
    with pytest.raises(ValidationError, match="must have shape"):  # no draws: no min to take
        observe(np.ones((2, 3)), np.empty((0, 2), dtype=np.int64), NoiseModel(kind="none"), 0)


def test_observe_overflow_is_a_validation_error():
    # Seed 1's first noise draw is 2.49: sigma * xi overflows at sigma =
    # 1e308, and at 1e307 the truth plus the noise does.  No overflow
    # warning escapes first.
    idx = np.zeros((8, 2), dtype=np.int64)
    for M0, sigma in [(np.ones((2, 2)), 1e308), (np.full((2, 2), 1.7e308), 1e307)]:
        with pytest.raises(ValidationError, match="noisy observation values overflowed"):
            observe(M0, idx, NoiseModel(kind="gaussian", sigma=sigma), seed=1)


def test_observe_holds_one_float_array_and_gathers_any_layout():
    n = 1 << 17
    M0 = np.arange(300 * 200, dtype=np.float64).reshape(300, 200) / 7.0
    idx = sample_indices(make_distribution("uniform", 300, 200), n, seed=5)
    noise = NoiseModel(kind="gaussian", sigma=0.5)
    tracemalloc.start()
    try:
        obs = observe(M0, idx, noise, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * obs.values.nbytes  # the noise, summed in place, is the values
    xi = _rng.stream_rng(5, _rng.NOISE).standard_normal(n)
    expected = M0[idx[:, 0], idx[:, 1]] + 0.5 * xi
    assert np.array_equal(obs.values.view(np.int64), expected.view(np.int64))
    for layout in (np.asfortranarray(M0), np.repeat(M0, 2, axis=1)[:, ::2]):
        again = observe(layout, idx, noise, seed=5)
        assert np.array_equal(again.values.view(np.int64), obs.values.view(np.int64))
    assert not obs.values.flags.writeable and not obs.indices.flags.writeable


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


def test_load_observations_streams_its_file(tmp_path):
    n = 1 << 16
    rng = np.random.default_rng(5)
    obs = ObservationSet(d1=1000, d2=1000, indices=rng.integers(0, 1000, (n, 2)),
                         values=rng.normal(size=n))
    path = tmp_path / "obs.csv"
    save_observations(path, obs)
    tracemalloc.start()
    try:
        back = load_observations(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.n == n
    # The parsed records and the two returned arrays take 2x; the text and a
    # list of its lines would add about 4x more.
    assert peak <= 3 * (back.indices.nbytes + back.values.nbytes)


def test_observation_format_header(tmp_path):
    obs = ObservationSet(d1=2, d2=2, indices=np.array([[0, 1]]), values=np.array([0.5]))
    text = _saved_text(tmp_path, save_observations, obs)
    assert text.splitlines()[0] == "2,2,1"
    assert text.splitlines()[1] == "0,1,0.5"
    with pytest.raises(ValidationError):
        _load_text(tmp_path, load_observations, "2,2,2\n0,1,0.5\n")


def test_parse_observations_rejects_malformed_rows(tmp_path):
    # Blank and whitespace-only lines are skipped.
    obs = _load_text(tmp_path, load_observations, "2,2,2\n \n0,1,0.5\n\t\n1,1,-2\n\n")
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
            _load_text(tmp_path, load_observations, text)


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
def test_observation_round_trip_is_bit_identical(tmp_path_factory, obs):
    directory = tmp_path_factory.mktemp("observations")
    back = _load_text(directory, load_observations, _saved_text(directory, save_observations, obs))
    assert (back.d1, back.d2) == (obs.d1, obs.d2)
    assert np.array_equal(back.indices, obs.indices)
    assert np.array_equal(back.values.view(np.int64), obs.values.view(np.int64))


def test_observation_format_is_byte_exact(tmp_path):
    values = [-0.0, 5e-324, 1e300, 2.0 ** 60, -1 / 3, 0.1]
    idx = np.array([[0, 1], [999_999, 1_000_000], [1_234_567, 7], [3, 2_000_000],
                    [1_999_999, 0], [5, 5]])
    obs = ObservationSet(d1=2_000_001, d2=2_000_001, indices=idx, values=np.array(values))
    old = [f"{obs.d1},{obs.d2},{obs.n}"]
    old += [f"{i},{j},{y:.17g}" for (i, j), y in zip(obs.indices, obs.values)]
    text = _saved_text(tmp_path, save_observations, obs)
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


@settings(deadline=None, max_examples=200)
@given(marginals=_marginal_pairs(st.floats(0.0, 1.0).map(lambda w: w + 1e-3)))
def test_product_distribution_round_trip_is_bit_identical(tmp_path_factory, marginals):
    row, col = marginals
    dist = make_distribution("product", row.size, col.size, row_marginals=row, col_marginals=col)
    path = tmp_path_factory.mktemp("distribution") / "product.dist"
    save_distribution(path, dist)
    back = load_distribution(path)
    assert (back.kind, back.d1, back.d2) == ("product", dist.d1, dist.d2)
    assert np.array_equal(_bits(back.row_marginals), _bits(row))  # as given, not normalized
    assert np.array_equal(_bits(back.col_marginals), _bits(col))
    assert np.array_equal(_bits(back.probs), _bits(dist.probs))
    assert (back.mu, back.L) == (dist.mu, dist.L)


def test_distribution_parse_errors(tmp_path):
    with pytest.raises(ValidationError):
        _load_text(tmp_path, load_distribution, "2,2\ntriangular\n")
    with pytest.raises(ValidationError):
        _load_text(tmp_path, load_distribution, "2,2\nproduct\n1,1\n")
    for tail in ("1,2,3\n1,1,2,4\n", "uniform\n"):  # a uniform file ends at its kind line
        with pytest.raises(ValidationError, match="no line after its kind line"):
            _load_text(tmp_path, load_distribution, "3,4\nuniform\n" + tail)
    for text, what in [("2,2\nproduct\n1,x\n1,1\n", "row marginal"),
                       ("2,2\nproduct\n1,1\n1,1 # note\n", "column marginal"),
                       ("2,2\nexplicit\n0.1,0.2\n0.3,abc\n", "explicit distribution"),
                       ("2,2\nexplicit\n0.1,0.2\n0.3,0.2,0.2\n", "explicit distribution"),
                       ("0,2\nexplicit\n", "explicit distribution")]:
        with pytest.raises(ValidationError, match=what):
            _load_text(tmp_path, load_distribution, text)
    # Blank and whitespace-only lines are skipped, and each line is stripped.
    back = _load_text(tmp_path, load_distribution, "\n3,4\n product \n\n1,2,3\n \n1,1,2,4\n")
    assert back.row_marginals.tolist() == [1, 2, 3] and back.col_marginals.tolist() == [1, 1, 2, 4]


@pytest.mark.parametrize("rows", ["1,1,2\n2,1,1\n1,1,1\n", "1,1,2\n"])  # d1 + 1, d1 - 1 rows
def test_load_distribution_rejects_an_explicit_file_of_other_than_d1_rows(tmp_path, rows):
    with pytest.raises(ValidationError, match="does not match"):
        _load_text(tmp_path, load_distribution, "2,3\nexplicit\n" + rows)
