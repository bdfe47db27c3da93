import numpy as np
import pytest

from mogpal.verify import random_hyperparams, random_instance  # noqa: F401

# shared across test modules: the verification sweep's seeded instance
# family; oracles.random_instance draws it in the shapes only tests use


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
