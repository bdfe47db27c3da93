"""Greedy's telescoping identity across conditioning regimes.

One deterministic sweep over fixed axes: two pool sizes per type, inducing
counts from well spaced to dense against the locations' spread, latent
widths ``latent_prec_inv`` from 1e-2 to 10^1.5, and budgets of one pick,
half the pool and the whole pool.  Each case must return
``state.cumulative[-1]`` equal to ``criterion_F`` of the picks within 1e-8
relative (to ``max(1, |F|)``); a fix may instead make a case raise a named
``MogpalError``, which the case then expects.  A case that returns a wrong
number is a strict xfail with its measured error beside it: on this grid
they are the cases whose ``K_uu`` has a condition number near 1e11 or
above.  The whole-pool budgets exhaust the target pool, so the max-entropy
fallback and the near-tie rule run in every regime.
"""

import functools

import numpy as np
import pytest

from mogpal import Hyperparams, as_tuple, build_cache, build_model, criterion_F
from mogpal.pitc import select_inducing
from mogpal.selector import select_greedy

# locations per type (a target type and one auxiliary type)
POOLS = {"small": 8, "large": 150}
# (inducing count, spread of the locations on [0, spread))
INDUCING = {"spaced": (3, 10.0), "mid": (6, 3.0), "dense": (12, 1.0)}
LATENT = {"w0.01": 1e-2, "w1": 1.0, "w31.6": 10**1.5}
BUDGETS = ("one", "half", "whole")
RTOL = 1e-8

# case id: the measured relative error of a case that returns a wrong number
WRONG = {
    "small-mid-w31.6-one": 1.5e-4, "small-mid-w31.6-half": 8.2e-6,
    "small-mid-w31.6-whole": 2.7e-4,
    "small-dense-w1-one": 1.6e-6, "small-dense-w1-half": 1.3e-6,
    "small-dense-w1-whole": 4.8e-6,
    "small-dense-w31.6-one": 9.7e-7, "small-dense-w31.6-half": 2.7e-6,
    "small-dense-w31.6-whole": 2.4e-7,
    "large-mid-w31.6-one": 1.1e-6, "large-mid-w31.6-half": 3.2e-6,
    "large-mid-w31.6-whole": 1.5e-6,
    "large-dense-w1-one": 1.2e-6, "large-dense-w1-half": 1.2e-5,
    "large-dense-w1-whole": 1.1e-5,
    "large-dense-w31.6-one": 2.9e-6, "large-dense-w31.6-half": 2.2e-6,
    "large-dense-w31.6-whole": 6.8e-6,
}

CASES = [
    f"{pool}-{inducing}-{latent}-{budget}"
    for pool in POOLS for inducing in INDUCING for latent in LATENT for budget in BUDGETS
]


@functools.lru_cache(maxsize=None)
def _instance(pool, inducing, latent):
    n, (m, spread) = POOLS[pool], INDUCING[inducing]
    rng = np.random.default_rng(14)
    h = Hyperparams(signal_var=[1.0, 0.8], noise_var=[0.25, 0.1],
                    latent_prec_inv=[LATENT[latent]], smooth_prec_inv=[[0.1], [0.1]])
    cands = {i: [as_tuple([x], i) for x in rng.uniform(0.0, spread, size=n)] for i in range(2)}
    locs = np.array([t.location for tuples in cands.values() for t in tuples])
    model = build_model(h, select_inducing(locs, m, seed=14), cands)
    return model, build_cache(model)


def _telescoping_error(case):
    pool, inducing, latent, budget = case.split("-")
    model, cache = _instance(pool, inducing, latent)
    n = {"one": 1, "half": len(model.candidates) // 2, "whole": len(model.candidates)}[budget]
    state = select_greedy(model, cache, n)
    assert len(state.selected) == n
    value = criterion_F(model, cache, state.selected)
    return abs(state.cumulative[-1] - value) / max(1.0, abs(value))


@pytest.mark.parametrize("case", [
    pytest.param(c, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason=f"telescoping drifts by {WRONG[c]:.1e} relative"))
    if c in WRONG else c
    for c in CASES
])
def test_greedy_telescopes_to_the_objective(case):
    assert _telescoping_error(case) <= RTOL
