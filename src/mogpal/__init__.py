"""Active learning of convolved multi-output Gaussian processes.

The package provides the sparse (inducing-point) multi-output GP regression
model, the entropy-based selection criterion with its cached fast
evaluation, greedy and baseline selection algorithms, brute-force
verification of the near-optimality guarantee, maximum-likelihood
hyperparameter fitting, dataset handling, and a reproducible experiment
harness.
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
from .kernels import Hyperparams, TypedLocation, as_tuple
from .pitc import (
    GaussianPrediction,
    InducingSet,
    PitcModel,
    build_model,
    pitc_posterior,
    select_inducing,
)
from .criterion import build_cache, criterion_F

__version__ = "0.1.0"
