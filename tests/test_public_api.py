"""The names the ``mogpal`` package exports.

Adding a name to the package's public surface should be a deliberate,
reviewed edit: update this list together with ``mogpal/__init__.py``.
"""

import types

import mogpal

EXPORTS = [
    "ConfigError",
    "DomainError",
    "EnumerationGuardError",
    "FitError",
    "GaussianPrediction",
    "Hyperparams",
    "IllConditionedError",
    "InducingSet",
    "ModelBuildError",
    "MogpalError",
    "PitcModel",
    "TypedLocation",
    "as_tuple",
    "build_cache",
    "build_model",
    "criterion_F",
    "pitc_posterior",
    "select_inducing",
]


def test_exported_names():
    # submodules become package attributes once imported; they are not exports
    names = sorted(
        name for name, value in vars(mogpal).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == EXPORTS
