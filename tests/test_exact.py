"""Exact Gaussian-process algebra in the library's one-type regime.

With a single output type every covariance the sparse model uses is the
exact prior (the inducing approximation only enters across types), so the
posterior mean of ``pitc_posterior`` and the gain evaluator's variances and
entropies must reproduce exact GP regression, checked here against closed
forms and the dense oracles.
"""

import itertools
import math

import numpy as np
import pytest

import oracles
from mogpal import (
    Hyperparams,
    InducingSet,
    as_tuple,
    build_cache,
    build_model,
    pitc_posterior,
)
from mogpal.kernels import cov_matrix
from mogpal.criterion import GainEvaluator
from conftest import random_hyperparams, random_instance

LOG_2PI_E = math.log(2 * math.pi * math.e)

H1 = Hyperparams(
    signal_var=[1.0], noise_var=[0.2],
    latent_prec_inv=[0.1], smooth_prec_inv=[[0.2]],
)


def _one_type_model(h, locations, inducing=((0.0,),)):
    cands = [as_tuple([v], 0) for v in locations]
    return build_model(h, InducingSet(locations=list(inducing)), {0: cands})


def _var_given(model, x):
    """Posterior variance of every candidate given the pool tuples ``x``."""
    cols = model.positions(x)
    return GainEvaluator(model, build_cache(model)).set_state(cols).var_given_selected()


class TestExactPosterior:
    def test_empty_conditioning_returns_prior(self, rng):
        model = _one_type_model(H1, rng.uniform(0, 1, 4))
        z = [as_tuple([v], 0) for v in rng.uniform(0, 1, 3)]
        pred = pitc_posterior(model, [], [], z)
        np.testing.assert_array_equal(pred.mean, np.zeros(3))
        cands = model.candidates
        np.testing.assert_allclose(
            _var_given(model, []), np.diag(cov_matrix(cands, cands, H1)), rtol=1e-12, atol=1e-15
        )

    def test_distant_observation_leaves_variance(self):
        model = _one_type_model(H1, [0.0, 500.0])
        z, x = model.candidates.tuples
        pred = pitc_posterior(model, [x], [1.3], [z])
        assert _var_given(model, [x])[0] == pytest.approx(oracles.out_cov(z, z, H1), rel=1e-12)
        assert pred.mean[0] == pytest.approx(0.0, abs=1e-12)

    def test_scalar_algebra(self):
        model = _one_type_model(H1, [0.2, 0.5], inducing=((0.1,), (0.9,)))
        z, x = model.candidates.tuples
        y = 0.7
        pred = pitc_posterior(model, [x], [y], [z])
        s_zz = oracles.out_cov(z, z, H1)
        s_zx = oracles.out_cov(z, x, H1)
        s_xx = oracles.out_cov(x, x, H1)
        assert _var_given(model, [x])[0] == pytest.approx(s_zz - s_zx**2 / s_xx, rel=1e-10)
        assert pred.mean[0] == pytest.approx(s_zx / s_xx * y, rel=1e-10)

    def test_posterior_variance_never_exceeds_prior(self):
        for seed in range(10):
            r = np.random.default_rng(seed)
            h = random_hyperparams(r, n_types=1)
            model = _one_type_model(h, r.uniform(0, 1, 10), inducing=r.uniform(0, 1, (2, 1)))
            cands = list(model.candidates.tuples)
            var = _var_given(model, cands[:6])[6:]
            rest = model.candidates.take(np.arange(6, len(cands)))
            prior = np.diag(cov_matrix(rest, rest, h))
            assert np.all(var <= prior * (1 + 1e-10))


class TestConditionalEntropy:
    def test_empty_conditioning_is_prior_entropy(self, rng):
        model = _one_type_model(H1, rng.uniform(0, 1, 4))
        ent = GainEvaluator(model, build_cache(model)).set_state([]).entropies_given_selected()
        cands = list(model.candidates.tuples)
        expected = [0.5 * (LOG_2PI_E + math.log(oracles.out_cov(p, p, H1))) for p in cands]
        np.testing.assert_allclose(ent, expected, rtol=1e-12)

    def test_far_single_query_matches_marginal(self):
        model = _one_type_model(H1, [0.0, 0.2, 1000.0])
        cands = list(model.candidates.tuples)
        ev = GainEvaluator(model, build_cache(model)).set_state(range(2))
        far = cands[2]
        expected = 0.5 * math.log(2 * math.pi * math.e * oracles.out_cov(far, far, H1))
        assert ev.entropies_given_selected()[2] == pytest.approx(expected, rel=1e-12)

    def test_information_never_hurts(self):
        # enumerated small instances: adding a pick never raises the entropy
        # of a still unselected candidate, with or without auxiliary types
        for seed, n_per_type in [(100, (6,)), (101, (3, 3)), (102, (2, 2, 2))]:
            model, cache = random_instance(seed, n_per_type=n_per_type)
            pool = range(len(model.candidates))
            ev = GainEvaluator(model, cache)
            for k in pool:
                for subset in itertools.combinations(pool, k):
                    before = ev.set_state(subset).entropies_given_selected()
                    for extra in pool:
                        if extra in subset:
                            continue
                        after = ev.set_state([*subset, extra]).entropies_given_selected()
                        free = np.isfinite(after)
                        assert np.all(after[free] <= before[free] + 1e-9)

    def test_matches_dense_oracle(self, rng):
        model = _one_type_model(H1, rng.uniform(0, 1.5, 8), inducing=((0.3,), (1.1,)))
        cands = list(model.candidates.tuples)
        x = cands[:5]
        ent = GainEvaluator(model, build_cache(model)).set_state(range(5)).entropies_given_selected()
        for k, z in enumerate(cands):
            if z in x:
                assert ent[k] == -np.inf
            else:
                expected = oracles.entropy(oracles.conditional_cov_exact([z], x, H1))
                assert ent[k] == pytest.approx(expected, rel=1e-10)
