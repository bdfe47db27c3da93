"""Active learning of convolved multi-output Gaussian processes.

The package provides the exact and sparse (inducing-point) multi-output GP
regression models, the entropy-based selection criterion with its cached
fast evaluation, greedy and baseline selection algorithms with spacing
certificates, brute-force verification of the near-optimality guarantee,
maximum-likelihood hyperparameter fitting, dataset handling, and a
reproducible experiment harness.
"""

from .errors import (
    ConfigError,
    DomainError,
    EnumerationGuardError,
    FitError,
    IllConditionedError,
    ModelBuildError,
    MogpalError,
)
from .kernels import (
    Hyperparams,
    TypedLocation,
    as_tuple,
    cov_matrix,
    gaussian_density,
)
from .exact import GaussianPrediction, conditional_entropy, exact_posterior, joint_entropy
from .pitc import (
    InducingSet,
    PitcModel,
    build_model,
    pitc_posterior,
    select_inducing,
    sparse_cov,
)
from .criterion import (
    CriterionCache,
    GainEvaluator,
    build_cache,
    criterion_F,
)

__version__ = "0.1.0"
