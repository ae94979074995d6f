"""Matrix completion via max-norm constrained least squares.

Recovers approximately low-rank matrices from noisy, non-uniformly sampled
entries by minimizing the empirical quadratic loss subject to an
elementwise bound and a factor row-norm (max-norm) bound, solved in
factored form by projected gradient descent.  Also ships the rank-estimation
search used to pick the constraint radius, and verification tools for the
norm inequalities, packing construction, Rademacher complexity bound and
risk-rate formulas that back the estimator.
"""

from .core import (
    ConstraintSet,
    Factorization,
    FactorNormReport,
    GROTHENDIECK_INTERVAL,
    GROTHENDIECK_UPPER,
    NormReport,
    ValidationError,
    factor_norms,
    load_dense,
    matrix_norms,
    pi_weighted_sq_norm,
    save_dense,
    two_inf_norm,
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
    empirical_loss_and_grad,
    fit_pgd,
    init_factors,
    linf_rescale,
    project_factor_rows,
)
from .model_select import (
    PartialMatrix,
    RankEstimate,
    RankSearchConfig,
    column_mean_init,
    estimate_rank,
    load_rank_report,
    save_rank_report,
    spectral_magnitude,
)
from .theory import (
    PackingConfig,
    PackingReport,
    RademacherReport,
    RateParams,
    RateReport,
    format_report,
    packing_count,
    packing_generate,
    packing_verify,
    rademacher_sign_sup,
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
