import math

import numpy as np
import pytest

from maxnorm_completion import RateParams, ValidationError, rate_bounds
from maxnorm_completion.theory import format_report, rate_report_items


def test_rate_bounds_worked_example():
    p = RateParams(alpha=1.0, sigma=1.0, R=math.sqrt(3.0), d1=50, d2=50,
                   n=2000, mu=1.0, L=1.0)
    rep = rate_bounds(p)
    expected_upper = math.sqrt(3.0) * math.sqrt(100 / 2000)
    expected_lower = math.sqrt(3.0) / 256 * math.sqrt(100 / 2000)
    assert rep.upper_rate == pytest.approx(expected_upper, abs=1e-12)
    assert rep.upper_rate == pytest.approx(0.3873, abs=5e-5)
    assert rep.lower_rate_largeN == pytest.approx(expected_lower, abs=1e-12)
    assert rep.sample_condition_ok  # n = 2000 >= 3 * 100


def test_rate_bounds_sigma_to_zero_limit():
    lowers = []
    for sigma in [1e-2, 1e-4, 1e-6]:
        p = RateParams(alpha=1.0, sigma=sigma, R=2.0, d1=40, d2=40, n=5000)
        lowers.append(rate_bounds(p).lower_rate_general)
    assert lowers[0] > lowers[1] > lowers[2]
    assert lowers[2] < 1e-8


def test_rate_bounds_lower_never_exceeds_upper_on_grid():
    rng = np.random.default_rng(13)
    for _ in range(2000):
        alpha = rng.uniform(0.1, 5.0)
        p = RateParams(
            alpha=alpha,
            sigma=rng.uniform(0.01, 5.0),
            R=alpha * rng.uniform(1.0, 10.0),
            d1=int(rng.integers(2, 300)),
            d2=int(rng.integers(2, 300)),
            n=int(rng.integers(1, 10 ** 6)),
            mu=rng.uniform(1.0, 8.0),
            L=rng.uniform(1.0, 8.0),
        )
        rep = rate_bounds(p)
        assert rep.lower_rate_largeN <= rep.upper_rate
        assert rep.lower_rate_general <= rep.upper_rate


def test_rate_bounds_monotonicity():
    base = dict(alpha=1.0, sigma=0.5, R=2.0, d1=60, d2=40, mu=2.0, L=1.5)
    r1 = rate_bounds(RateParams(n=1000, **base)).upper_rate
    r2 = rate_bounds(RateParams(n=4000, **base)).upper_rate
    assert r2 < r1
    bigger_R = dict(base, R=3.0)
    assert rate_bounds(RateParams(n=1000, **bigger_R)).upper_rate > r1
    bigger_mu = dict(base, mu=4.0)
    assert rate_bounds(RateParams(n=1000, **bigger_mu)).upper_rate > r1


def test_rate_params_validation():
    with pytest.raises(ValidationError):
        RateParams(alpha=2.0, sigma=1.0, R=1.0, d1=10, d2=10, n=100)
    with pytest.raises(ValidationError):
        RateParams(alpha=1.0, sigma=1.0, R=1.0, d1=10, d2=10, n=100, mu=0.5)


def test_quater_window_check():
    # Window: 48 alpha^2 / max(d) <= R^2 <= sigma^2 min(d) d1 d2 / (128 L n).
    p_in = RateParams(alpha=1.0, sigma=10.0, R=1.0, d1=100, d2=100, n=50)
    assert rate_bounds(p_in).quater_ok
    p_out = RateParams(alpha=1.0, sigma=0.1, R=1.0, d1=100, d2=100, n=10 ** 5)
    assert not rate_bounds(p_out).quater_ok


def test_format_report_key_value_lines():
    p = RateParams(alpha=1.0, sigma=1.0, R=2.0, d1=10, d2=12, n=100)
    text = format_report(rate_report_items(p, rate_bounds(p)))
    lines = text.strip().splitlines()
    assert all("=" in ln for ln in lines)
    keys = [ln.split("=")[0] for ln in lines]
    assert keys == ["alpha", "sigma", "R", "d1", "d2", "n", "mu", "L", "upper_rate",
                    "lower_rate_general", "lower_rate_largeN", "quater_ok",
                    "sample_condition_ok"]
    values = dict(ln.split("=", 1) for ln in lines)
    assert values["quater_ok"] in ("true", "false")
    assert float(values["upper_rate"]) > 0
