"""Stochastic trust-region optimizers with a verification harness.

The optimizer family normalizes steps through a gradient-norm-driven
trust-region radius instead of ratio-test adaptation; subproblems are
solved matrix-free by capped Steihaug-CG or exactly with a certified
KKT multiplier.  The harness runs experiments, tunes hyperparameters,
and empirically checks every per-step decrease contract and
convergence envelope the library claims.
"""

from .core import (
    ConfigurationError,
    EstimateSource,
    EvaluationError,
    NoiseModel,
    NumericalError,
    ProblemOracle,
    hvp_finite_difference,
    rng_stream,
)
from .subproblem import kkt_residuals
from .schedules import (
    GammaSchedule,
    StepsizeSchedule,
    gammas_at,
    validate_stepsize,
)
from .optimizer import (
    LaneRun,
    SolverSpec,
    Trajectory,
    TrishConfig,
    run_sg,
    run_trish,
    run_lanes,
    run_trish_first_order,
)
from .bounds import (
    complexity_budget,
    complexity_params_check,
    nonconvex_fixed_bound,
    pl_fixed_envelope,
    pl_geometric_envelope,
    pl_sublinear_envelope,
    pl_sublinear_fixed_gamma_envelope,
)
from .problems import (
    LogisticProblem,
    MiniBatchSampler,
    QuadraticProblem,
    QuarticBowlProblem,
    RosenbrockProblem,
    load_logistic_csv,
    load_quadratic_csv,
    make_logistic,
    make_quadratic,
    make_quartic_bowl,
)

__version__ = "0.1.0"
