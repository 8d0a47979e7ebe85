"""Differentially private first-order optimization with momentum.

Layers, bottom up: privacy accounting and noise (privacy_core), losses and
synthetic data (objectives), the private update loops (optimizers), budget
allocation across iterations (budget_allocator), contraction certificates
and exact quadratic rates (certification), and the experiment driver
(harness).
"""

from .budget_allocator import (
    BoundCoefficients,
    bound_value,
    masg_coefficients,
    masg_coefficients_for,
    nag_coefficients,
    optimal_schedule,
    optimized_bound_value,
    rescale_for_subsampling,
    select_horizon,
)
from .certification import (
    Certificate,
    CertificateGrid,
    QuadraticRateReport,
    certificate_matrix,
    check_certificate,
    eval_shb_bound,
    lyapunov_value,
    noise_bound,
    quadratic_bound,
    quadratic_rate,
    search_certificate,
)
from .harness import (
    ExperimentConfig,
    build_objective,
    comparison_table,
    plan_cell,
    reference_optimum,
    run_grid,
    summarize,
)
from .objectives import (
    Dataset,
    LogisticObjective,
    Objective,
    QuadraticObjective,
    generate_synthetic,
)
from .optimizers import (
    ALGORITHMS,
    HyperParams,
    StageSchedule,
    Trace,
    masg_stage_schedule,
    nesterov_momentum,
    polyak_momentum,
    polyak_stepsize,
    run,
)
from .privacy_core import (
    NoiseSchedule,
    PrivacyAccount,
    RngStream,
    epsilon_of,
    laplace_sample,
    per_iteration_epsilon,
    uniform_scale,
)

__version__ = "0.1.0"
