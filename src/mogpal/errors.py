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
    """Hyperparameter optimization evaluated no finite likelihood."""


class EnumerationGuardError(MogpalError):
    """An exhaustive enumeration would exceed its configured guard."""
