"""Matrix completion via max-norm constrained least squares.

Recovers approximately low-rank matrices from noisy, non-uniformly sampled
entries by minimizing the empirical quadratic loss subject to an
elementwise bound and a factor row-norm (max-norm) bound, solved in
factored form by projected gradient descent.  Also ships the rank-estimation
search used to pick the constraint radius, a seeded experiment harness that
checks the error's decay in the sample size, and calculators for the
paper's risk rates.
"""

from .core import (
    ConstraintSet,
    Factorization,
    ValidationError,
    load_dense,
    pi_weighted_sq_norm,
    save_dense,
)
from .sampling import (
    NoiseModel,
    ObservationSet,
    SamplingDistribution,
    load_distribution,
    load_observations,
    make_distribution,
    observe,
    sample_indices,
    save_distribution,
    save_observations,
)
from .solver import (
    SolveResult,
    SolverConfig,
    default_factor_width,
    fit_pgd,
)
from .model_select import (
    PartialMatrix,
    RankEstimate,
    RankSearchConfig,
    estimate_rank,
    load_rank_report,
    save_rank_report,
)
from .theory import (
    RateParams,
    RateReport,
    format_report,
    rate_bounds,
)
from .harness import (
    ExperimentConfig,
    SlopeFit,
    TrialRecord,
    fit_scaling_slope,
    load_config,
    make_ground_truth,
    median_mse_by_n,
    read_records_csv,
    run_experiment,
    run_trial,
)

__version__ = "0.1.0"
