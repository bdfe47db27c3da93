"""Four identities of the sparse model across conditioning regimes.

One deterministic sweep over fixed axes: two pool sizes per type, inducing
counts from well spaced to dense against the locations' spread, latent
widths ``latent_prec_inv`` from 1e-2 to 10^1.5, and budgets of one pick,
half the pool and the whole pool.  Each case checks, within 1e-8 relative
(to ``max(1, |reference|)``):

- telescoping: greedy's ``state.cumulative[-1]`` equals ``criterion_F`` of
  its picks;
- posterior: ``pitc_posterior``'s mean at target locations off the pool,
  given seeded values at greedy's picks, equals the dense sparse-model
  conditional mean (the loop oracle on the small pools, the vectorized
  ``oracles.sparse_cov`` on the large ones);
- cache: ``build_cache(model).logdet`` equals the log-determinant of
  ``K_uu + W_t^T R_t^-1 W_t``, with the target residual ``R_t`` built densely
  from the kernel;
- certificate: ``check_guarantee`` is satisfied where brute force takes
  about 0.03 s a case: budgets of one pick and the whole pool on the small
  pools, one pick on the large ones (half the small pool is C(16, 8) =
  12,870 subsets, about 1 s a case).

A fix may instead make a case raise a named ``MogpalError``, which the case
then expects.  Two certificate cases raise ``IllConditionedError`` today: at
the whole pool greedy and brute force hold the same 16 tuples in other
orders, and ``criterion_F`` of that one set moves with the order by more
than the 1e-9 that ``check_guarantee`` allows.  A case that returns a wrong
number is a strict xfail with its measured error beside it.  For the
telescoping and cache identities they are the cases whose ``K_uu`` has a
condition number near 1e11 or above, where the dense ``R_t`` loses digits
too; the posterior mean drifts in one case alone.  A second posterior case,
``large-dense-w1-whole``, depends on the BLAS thread count: it passes at two
OpenBLAS threads, but at one (``OPENBLAS_NUM_THREADS=1``, the benchmark's
setting) it reads 1.09e-8 against the 1e-8 bound and fails.  It is ROADMAP
item 1's ``dense-w1`` regime and is left unmarked.  The whole-pool budgets
exhaust the target pool, so the max-entropy fallback and the near-tie rule
run in every regime.
"""

import functools

import numpy as np
import pytest

import oracles
from mogpal import (
    Hyperparams, IllConditionedError, as_tuple, build_cache, build_model, criterion_F, kernels,
    pitc_posterior,
)
from mogpal.pitc import select_inducing
from mogpal.selector import select_greedy
from mogpal.verify import check_guarantee

# locations per type (a target type and one auxiliary type)
POOLS = {"small": 8, "large": 150}
# (inducing count, spread of the locations on [0, spread))
INDUCING = {"spaced": (3, 10.0), "mid": (6, 3.0), "dense": (12, 1.0)}
LATENT = {"w0.01": 1e-2, "w1": 1.0, "w31.6": 10**1.5}
BUDGETS = ("one", "half", "whole")
RTOL = 1e-8
# target locations each posterior case predicts at
QUERIES = 10

# identity -> case id -> the measured relative error of a case that returns
# a wrong number
WRONG = {}
WRONG["telescoping"] = {
    "small-mid-w31.6-one": 1.5e-4, "small-mid-w31.6-half": 8.2e-6,
    "small-mid-w31.6-whole": 2.7e-4,
    "small-dense-w1-one": 1.6e-6, "small-dense-w1-half": 1.3e-6,
    "small-dense-w1-whole": 4.8e-6,
    "small-dense-w31.6-one": 9.7e-7, "small-dense-w31.6-half": 2.7e-6,
    "small-dense-w31.6-whole": 2.4e-7,
    "large-mid-w31.6-one": 1.1e-6, "large-mid-w31.6-half": 3.2e-6,
    "large-mid-w31.6-whole": 1.5e-6,
    "large-dense-w1-one": 1.2e-6, "large-dense-w1-half": 9.9e-6,
    "large-dense-w1-whole": 7.1e-7,
    "large-dense-w31.6-one": 2.9e-6, "large-dense-w31.6-half": 2.2e-6,
    "large-dense-w31.6-whole": 6.8e-6,
}
WRONG["posterior"] = {"small-dense-w1-whole": 6.0e-6}
# the cache is one per instance, so its three budgets measure alike; at
# ``dense-w1`` the direct matrix is not even positive definite (inf)
WRONG["cache"] = {
    f"{pool}-{regime}-{budget}": error
    for pool, regime, error in (
        ("small", "mid-w31.6", 7.5e-6), ("small", "dense-w1", np.inf),
        ("small", "dense-w31.6", 2.7e-1), ("large", "mid-w31.6", 6.8e-6),
        ("large", "dense-w1", np.inf), ("large", "dense-w31.6", 2.1e-1),
    )
    for budget in BUDGETS
}

CASES = [
    f"{pool}-{inducing}-{latent}-{budget}"
    for pool in POOLS for inducing in INDUCING for latent in LATENT for budget in BUDGETS
]
CERTIFICATE_CASES = [
    c for c in CASES if c.endswith("-one") or c.startswith("small-") and c.endswith("-whole")
]
# certificate case id -> the named error it raises
RAISES = {
    "small-mid-w31.6-whole": IllConditionedError,
    "small-dense-w31.6-whole": IllConditionedError,
}


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


def _budget(case):
    pool, inducing, latent, budget = case.split("-")
    model, cache = _instance(pool, inducing, latent)
    n = {"one": 1, "half": len(model.candidates) // 2, "whole": len(model.candidates)}[budget]
    return model, cache, n


@functools.lru_cache(maxsize=None)
def _greedy(case):
    model, cache, n = _budget(case)
    state = select_greedy(model, cache, n)
    assert len(state.selected) == n
    return model, cache, state


def _telescoping_error(case):
    model, cache, state = _greedy(case)
    value = criterion_F(model, cache, state.selected)
    return abs(state.cumulative[-1] - value) / max(1.0, abs(value))


def _posterior_error(case):
    model, _, state = _greedy(case)
    x, h = state.selected, model.h
    rng = np.random.default_rng(15)
    y = rng.standard_normal(len(x))
    spread = INDUCING[case.split("-")[1]][1]
    z = [as_tuple([v], h.target_type) for v in rng.uniform(0.0, spread, size=QUERIES)]
    fast = pitc_posterior(model, x, y, z).mean
    if case.startswith("small-"):
        dense = oracles.conditional_mean_blocked(z, x, y, h, model.inducing.locations)
    else:
        dense = oracles.sparse_cov(model, z, x) @ np.linalg.solve(oracles.sparse_cov(model, x, x), y)
    return float(np.max(np.abs(fast - dense))) / max(1.0, float(np.max(np.abs(dense))))


def _cache_error(case):
    model, cache = _instance(*case.split("-")[:3])
    h, u = model.h, model.inducing.locations
    targets = model.candidates.take(model.candidates.indices_of_type(h.target_type))
    kuu = kernels.latent_matrix(u, h)
    w = kernels.latent_cross_matrix(targets, u, h)
    r = kernels.cov_matrix(targets, targets, h) - w @ np.linalg.solve(kuu, w.T)
    sign, direct = np.linalg.slogdet(kuu + w.T @ np.linalg.solve(r, w))
    if sign <= 0:
        return np.inf
    return abs(cache.logdet - direct) / max(1.0, abs(direct))


def _cases(identity, drift):
    return [
        pytest.param(c, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason=f"{drift} by {WRONG[identity][c]:.1e} relative"))
        if c in WRONG[identity] else c
        for c in CASES
    ]


@pytest.mark.parametrize("case", _cases("telescoping", "telescoping drifts"))
def test_greedy_telescopes_to_the_objective(case):
    assert _telescoping_error(case) <= RTOL


@pytest.mark.parametrize("case", _cases("posterior", "the posterior mean drifts"))
def test_posterior_mean_matches_the_dense_conditional(case):
    assert _posterior_error(case) <= RTOL


@pytest.mark.parametrize("case", _cases("cache", "the cache drifts"))
def test_cache_matches_the_direct_log_determinant(case):
    assert _cache_error(case) <= RTOL


@pytest.mark.parametrize("case", CERTIFICATE_CASES)
def test_greedy_meets_the_certificate(case):
    model, cache, n = _budget(case)
    if case in RAISES:
        with pytest.raises(RAISES[case], match="^greedy value .* exceeds exhaustive optimum "):
            check_guarantee(model, cache, n)
    else:
        assert check_guarantee(model, cache, n).satisfied
