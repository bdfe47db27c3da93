import itertools
import math

import numpy as np
import pytest

import oracles
from mogpal import (
    DomainError,
    Hyperparams,
    IllConditionedError,
    as_tuple,
    conditional_entropy,
    cov_matrix,
    exact_posterior,
    joint_entropy,
)
from conftest import random_hyperparams

H1 = Hyperparams(
    signal_var=[1.0], noise_var=[0.2],
    latent_prec_inv=[0.1], smooth_prec_inv=[[0.2]],
)
H2 = Hyperparams(
    signal_var=[1.0, 0.8], noise_var=[0.25, 0.1],
    latent_prec_inv=[0.1], smooth_prec_inv=[[0.2], [0.15]],
)


def _random_tuples(rng, n, n_types=2, dim=1, spread=1.0):
    out = []
    while len(out) < n:
        t = as_tuple(rng.uniform(0, spread, dim), rng.integers(n_types))
        if t not in out:
            out.append(t)
    return out


class TestExactPosterior:
    def test_empty_conditioning_returns_prior(self, rng):
        z = _random_tuples(rng, 4)
        pred = exact_posterior([], [], z, H2)
        np.testing.assert_array_equal(pred.mean, np.zeros(4))
        np.testing.assert_array_equal(pred.cov, cov_matrix(z, z, H2))

    def test_distant_observation_leaves_variance(self):
        z = [as_tuple([0.0], 0)]
        x = [as_tuple([500.0], 0)]
        pred = exact_posterior(x, [1.3], z, H2)
        assert pred.cov[0, 0] == pytest.approx(oracles.out_cov(z[0], z[0], H2), rel=1e-12)

    def test_scalar_algebra(self, rng):
        z = [as_tuple([0.2], 0)]
        x = [as_tuple([0.5], 1)]
        y = 0.7
        pred = exact_posterior(x, [y], z, H2)
        s_zz = oracles.out_cov(z[0], z[0], H2)
        s_zx = oracles.out_cov(z[0], x[0], H2)
        s_xx = oracles.out_cov(x[0], x[0], H2)
        assert pred.cov[0, 0] == pytest.approx(s_zz - s_zx**2 / s_xx, rel=1e-12)
        assert pred.mean[0] == pytest.approx(s_zx / s_xx * y, rel=1e-12)

    def test_cov_independent_of_measurements(self, rng):
        x = _random_tuples(rng, 5)
        z = _random_tuples(rng, 3)
        z = [t for t in z if t not in x]
        a = exact_posterior(x, rng.normal(size=5), z, H2)
        b = exact_posterior(x, rng.normal(size=5), z, H2)
        assert np.array_equal(a.cov, b.cov)

    def test_posterior_variance_never_exceeds_prior(self, rng):
        for seed in range(10):
            r = np.random.default_rng(seed)
            h = random_hyperparams(r, n_types=2)
            x = _random_tuples(r, 6)
            z = [t for t in _random_tuples(r, 4) if t not in x]
            pred = exact_posterior(x, r.normal(size=6), z, h)
            prior = np.diag(cov_matrix(z, z, h))
            assert np.all(pred.var <= prior * (1 + 1e-10))

    def test_duplicate_tuples_named_in_error(self):
        p = as_tuple([0.1], 0)
        with pytest.raises(IllConditionedError, match="0.1"):
            exact_posterior([p, p], [0.0, 0.0], [as_tuple([0.5], 0)], H2)

    def test_rejects_overlapping_query(self):
        p = as_tuple([0.1], 0)
        with pytest.raises(DomainError):
            exact_posterior([p], [0.0], [p], H2)

    def test_rejects_length_mismatch(self):
        with pytest.raises(DomainError):
            exact_posterior([as_tuple([0.1], 0)], [0.0, 1.0], [as_tuple([0.5], 0)], H2)


class TestJointEntropy:
    def test_unit_determinant_scaling(self):
        assert joint_entropy([[1.0 / (2 * math.pi * math.e)]]) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_identity_two_by_two(self):
        assert joint_entropy(np.eye(2)) == pytest.approx(2.8378770664093453, abs=1e-12)

    def test_block_diagonal_adds(self, rng):
        a = rng.normal(size=(3, 3))
        a = a @ a.T + 3 * np.eye(3)
        b = rng.normal(size=(2, 2))
        b = b @ b.T + 3 * np.eye(2)
        full = np.block([[a, np.zeros((3, 2))], [np.zeros((2, 3)), b]])
        assert joint_entropy(full) == pytest.approx(
            joint_entropy(a) + joint_entropy(b), rel=1e-12
        )

    def test_empty_is_zero(self):
        assert joint_entropy(np.zeros((0, 0))) == 0.0

    def test_rejects_non_positive_definite(self):
        with pytest.raises(DomainError):
            joint_entropy([[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            joint_entropy([[1.0, 0.5], [0.0, 1.0]])


class TestConditionalEntropy:
    def test_empty_conditioning_is_prior_entropy(self, rng):
        z = _random_tuples(rng, 3)
        assert conditional_entropy([], z, H2) == pytest.approx(
            joint_entropy(cov_matrix(z, z, H2))
        )

    def test_far_single_query_matches_marginal(self):
        z = [as_tuple([1000.0], 0)]
        x = [as_tuple([0.0], 0), as_tuple([0.2], 1)]
        expected = 0.5 * math.log(2 * math.pi * math.e * oracles.out_cov(z[0], z[0], H2))
        assert conditional_entropy(x, z, H2) == pytest.approx(expected, rel=1e-12)

    def test_information_never_hurts(self, rng):
        # enumerated small instances: adding tuples can only shrink entropy
        for seed in range(5):
            r = np.random.default_rng(seed + 100)
            h = random_hyperparams(r, n_types=2)
            pool = _random_tuples(r, 6)
            z = _random_tuples(r, 2, spread=2.0)
            z = [t for t in z if t not in pool]
            for k in range(len(pool)):
                for subset in itertools.combinations(pool, k):
                    for extra in pool:
                        if extra in subset:
                            continue
                        bigger = list(subset) + [extra]
                        assert conditional_entropy(bigger, z, h) <= conditional_entropy(
                            list(subset), z, h
                        ) + 1e-9

    def test_matches_dense_oracle(self, rng):
        x = _random_tuples(rng, 5)
        z = [t for t in _random_tuples(rng, 3, spread=1.5) if t not in x]
        expected = oracles.entropy(
            oracles.exact_cov(z, z, H2)
            - oracles.exact_cov(z, x, H2)
            @ np.linalg.solve(oracles.exact_cov(x, x, H2), oracles.exact_cov(x, z, H2))
        )
        assert conditional_entropy(x, z, H2) == pytest.approx(expected, rel=1e-10)
