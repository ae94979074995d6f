"""The paper's risk rates as calculators, and the key=value report format.

rate_bounds evaluates the closed-form upper and lower risk rates, with the
absolute constant of the upper bound omitted (it is unknown; consumers
compare ratios and slopes, never absolute levels).  format_report renders
any report as key=value lines; the CLI writes its reports with it.
"""

import math
from dataclasses import dataclass, fields

from .core import ValidationError


@dataclass(frozen=True)
class RateParams:
    alpha: float
    sigma: float
    R: float
    d1: int
    d2: int
    n: int
    mu: float = 1.0
    L: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "sigma", "R"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValidationError(f"{name} must be positive, got {v}")
        if self.R < self.alpha:
            raise ValidationError(f"R must be >= alpha, got R={self.R} < alpha={self.alpha}")
        if self.d1 < 1 or self.d2 < 1 or self.n < 1:
            raise ValidationError("d1, d2, n must be positive integers")
        if self.mu < 1 or self.L < 1:
            raise ValidationError(f"mu and L must be >= 1, got mu={self.mu}, L={self.L}")

    @property
    def d(self) -> int:
        return self.d1 + self.d2


@dataclass(frozen=True)
class RateReport:
    upper_rate: float
    lower_rate_general: float
    lower_rate_largeN: float
    quater_ok: bool
    sample_condition_ok: bool


def rate_bounds(p: RateParams) -> RateReport:
    """Closed-form risk-rate calculators for the per-entry squared loss.

    upper_rate drops the unknown absolute constant of the high-probability
    upper bound; the two lower rates are the general minimax bound and its
    large-sample simplification, the latter valid when
    n >= (R/alpha)^2 d / L (reported as sample_condition_ok).  quater_ok
    reports whether the parameter quintuple sits in the window where the
    general lower bound's derivation applies.
    """
    d = p.d
    upper = p.mu * max(p.alpha, p.sigma) * p.R * math.sqrt(d / p.n)
    lower_general = min(p.alpha ** 2 / 16.0,
                        p.sigma * p.R / 256.0 * math.sqrt(d / (p.n * p.L)))
    lower_large = min(p.alpha, p.sigma) * p.R / 256.0 * math.sqrt(d / (p.n * p.L))
    quater_ok = (48.0 * p.alpha ** 2 / max(p.d1, p.d2)
                 <= p.R ** 2
                 <= p.sigma ** 2 * min(p.d1, p.d2) * p.d1 * p.d2 / (128.0 * p.L * p.n))
    sample_ok = p.n >= (p.R / p.alpha) ** 2 * d / p.L
    return RateReport(upper_rate=upper, lower_rate_general=lower_general,
                      lower_rate_largeN=lower_large, quater_ok=bool(quater_ok),
                      sample_condition_ok=bool(sample_ok))


def format_report(items) -> str:
    """Render a report as machine-parsable key=value lines."""
    lines = []
    for key, value in items:
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = f"{value:.17g}"
        else:
            text = str(value)
        lines.append(f"{key}={text}")
    return "\n".join(lines) + "\n"


def rate_report_items(p: RateParams, rep: RateReport):
    """(key, value) pairs: the fields of p, then those of rep, in declaration order."""
    return [(f.name, getattr(obj, f.name)) for obj in (p, rep) for f in fields(obj)]
