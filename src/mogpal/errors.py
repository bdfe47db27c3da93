"""Exception hierarchy shared by all mogpal modules."""


class MogpalError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(MogpalError, ValueError):
    """An input value is outside the mathematical domain of an operation."""


class ConfigError(MogpalError, ValueError):
    """A configuration value is inconsistent or out of range."""


class IllConditionedError(MogpalError, ArithmeticError):
    """A covariance matrix could not be factorized, even after one jitter pass."""


class ModelBuildError(MogpalError):
    """A model could not be constructed from the given inputs."""


class FitError(MogpalError):
    """Hyperparameter optimization evaluated no finite likelihood.

    Carries the best parameters seen so far in ``best_so_far``.
    """

    def __init__(self, message, best_so_far=None):
        super().__init__(message)
        self.best_so_far = best_so_far


class EnumerationGuardError(MogpalError):
    """An exhaustive enumeration would exceed its configured guard."""
