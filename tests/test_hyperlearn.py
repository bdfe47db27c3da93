import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize

from mogpal import ConfigError, FitError, Hyperparams, as_tuple, hyperlearn
from mogpal.hyperlearn import (
    PENALIZED_LML,
    FitResult,
    fit_hyperparams,
    log_marginal_likelihood,
)
from mogpal.kernels import TupleArray, cov_matrix

H1 = Hyperparams(
    signal_var=[1.0], noise_var=[0.2],
    latent_prec_inv=[0.5], smooth_prec_inv=[[0.25]],
)
H2 = Hyperparams(
    signal_var=[1.0, 0.8], noise_var=[0.25, 0.1],
    latent_prec_inv=[0.3], smooth_prec_inv=[[0.2], [0.15]],
)


def lml(h, pts, y):
    """``log_marginal_likelihood`` at a tuple list."""
    return log_marginal_likelihood(h, TupleArray.build(pts, h), y)


def cov(pts, h):
    """``cov_matrix`` of a tuple list with itself."""
    ta = TupleArray.build(pts, h)
    return cov_matrix(ta, ta, h)


class TestLogMarginalLikelihood:
    def test_single_point_closed_form(self):
        p = as_tuple([0.0], 0)
        v = cov([p], H1)[0, 0]
        assert lml(H1, [p], [0.0]) == pytest.approx(
            -0.5 * math.log(2 * math.pi * v)
        )

    def test_independent_points_add(self):
        pts = [as_tuple([100.0 * k], 0) for k in range(4)]
        y = [0.3, -0.2, 1.0, 0.5]
        total = lml(H1, pts, y)
        parts = sum(
            lml(H1, [p], [v]) for p, v in zip(pts, y)
        )
        assert total == pytest.approx(parts, rel=1e-10)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ConfigError, match="1 observations but 2 values"):
            lml(H1, [as_tuple([0.0], 0)], [0.0, 1.0])

    def test_no_observations_is_zero(self):
        assert lml(H2, [], []) == 0.0

    def test_overflowing_covariance_is_penalized(self):
        h = Hyperparams(
            signal_var=[1e300], noise_var=[0.2],
            latent_prec_inv=[0.5], smooth_prec_inv=[[0.25]],
        )
        pts = [as_tuple([v], 0) for v in (0.0, 0.5, 1.0)]
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert lml(h, pts, [0.1, -0.2, 0.3]) == PENALIZED_LML

    def test_matches_dense_quadratic_form(self, rng):
        pts = [as_tuple([v], t) for v, t in zip(rng.uniform(0, 2, 6), [0, 1] * 3)]
        y = rng.normal(size=6)
        c = cov(pts, H2)
        expected = (
            -0.5 * y @ np.linalg.solve(c, y)
            - 0.5 * np.linalg.slogdet(c)[1]
            - 3 * math.log(2 * math.pi)
        )
        assert lml(H2, pts, y) == pytest.approx(expected, rel=1e-10)


def _sample_single_type(h, n, seed, spread=6.0):
    rng = np.random.default_rng(seed)
    pts = [as_tuple([v], 0) for v in np.sort(rng.uniform(0, spread, n))]
    y = np.linalg.cholesky(cov(pts, h) + 1e-12 * np.eye(n)) @ rng.standard_normal(n)
    return pts, y


class TestFitHyperparams:
    def test_never_worse_than_init(self):
        pts, y = _sample_single_type(H1, 30, seed=0)
        init_nll = -lml(H1, pts, y)
        fit = fit_hyperparams(pts, y, H1, budget=150)
        assert fit.final_nll <= init_nll + 1e-9

    def test_fitted_variances_positive(self):
        pts, y = _sample_single_type(H1, 20, seed=1)
        fit = fit_hyperparams(pts, y, H1, budget=120)
        assert np.all(fit.h.signal_var > 0)
        assert np.all(fit.h.noise_var > 0)
        assert np.all(fit.h.latent_prec_inv > 0)

    def test_determinism(self):
        pts, y = _sample_single_type(H1, 20, seed=2)
        a = fit_hyperparams(pts, y, H1, budget=100)
        b = fit_hyperparams(pts, y, H1, budget=100)
        assert a.final_nll == b.final_nll
        assert np.array_equal(a.h.noise_var, b.h.noise_var)

    def test_recovers_noise_within_factor_two(self):
        # synthetic recovery: median fitted noise over 10 seeds within 2x,
        # and every fit converges inside its budget
        ratios, converged = [], []
        for seed in range(10):
            pts, y = _sample_single_type(H1, 200, seed=seed)
            init = Hyperparams(
                signal_var=[0.5], noise_var=[0.4],
                latent_prec_inv=[1.0], smooth_prec_inv=[[0.5]],
            )
            fit = fit_hyperparams(pts, y, init, budget=300)
            ratios.append(float(fit.h.noise_var[0]) / float(H1.noise_var[0]))
            converged.append(fit.converged)
        median = float(np.median(ratios))
        assert 0.5 <= median <= 2.0
        assert converged == [True] * 10

    def test_budget_guard(self):
        with pytest.raises(ConfigError):
            fit_hyperparams([as_tuple([0.0], 0)], [0.0], H1, budget=0)

    def test_result_fields(self):
        pts, y = _sample_single_type(H1, 15, seed=3)
        fit = fit_hyperparams(pts, y, H1, budget=80)
        assert isinstance(fit, FitResult)
        assert math.isfinite(fit.final_nll)
        assert 0 < fit.iterations <= 80

    @pytest.mark.parametrize("budget", [1, 17])
    def test_budget_caps_likelihood_evaluations(self, monkeypatch, budget):
        # 2 types: 2 signal + 2 noise + 1 latent + 2 smoothing widths
        rng = np.random.default_rng(6)
        pts = [as_tuple([v], t) for v, t in zip(rng.uniform(0, 4, 24), [0, 1] * 12)]
        y = rng.normal(size=24)
        calls = []

        def counted(h, x, y_x):
            calls.append(1)
            return log_marginal_likelihood(h, x, y_x)

        monkeypatch.setattr(hyperlearn, "log_marginal_likelihood", counted)
        fit = fit_hyperparams(pts, y, H2, budget=budget)
        assert len(hyperlearn._pack(H2)) == 7
        assert len(calls) == fit.iterations <= budget
        assert not fit.converged
        assert fit.final_nll <= -lml(H2, pts, y) + 1e-9

    def test_pack_unpack_round_trip(self):
        # every width is a search parameter: 3 + 3 variances, 2 latent, 3 x 2 smoothing
        h = Hyperparams(
            signal_var=[1.0, 0.8, 2.5], noise_var=[0.25, 0.1, 0.4],
            latent_prec_inv=[0.2, 4.0],
            smooth_prec_inv=[[0.1, 0.3], [0.15, 0.05], [0.7, 1.2]],
            target_type=2,
        )
        vec = hyperlearn._pack(h)
        assert vec.shape == (14,)
        back = hyperlearn._unpack(vec, h)
        for name in ("signal_var", "noise_var", "latent_prec_inv", "smooth_prec_inv"):
            np.testing.assert_allclose(getattr(back, name), getattr(h, name), rtol=1e-14)
        assert back.target_type == 2

    def test_degenerate_likelihood_everywhere_is_fit_error(self, monkeypatch):
        pts, y = _sample_single_type(H1, 10, seed=4)
        monkeypatch.setattr(
            hyperlearn, "log_marginal_likelihood", lambda h, x, y_x: PENALIZED_LML
        )
        with pytest.raises(FitError, match="every evaluation was a degenerate likelihood"):
            fit_hyperparams(pts, y, H1, budget=50)

    def test_a_refused_point_scores_the_penalty(self, monkeypatch):
        # every log-parameter at -800 exponentiates to 0.0 without a
        # warning, a point Hyperparams refuses
        pts, y = _sample_single_type(H1, 10, seed=5)
        scored = []

        def minimize(fun, x0, method):
            scored.append(fun(x0))
            scored.append(fun(np.full_like(x0, -800.0)))
            return SimpleNamespace(success=False)

        monkeypatch.setattr(scipy.optimize, "minimize", minimize)
        fit = fit_hyperparams(pts, y, H1, budget=10)
        assert scored == [-lml(H1, pts, y), -PENALIZED_LML]
        assert fit.iterations == 2 and not fit.converged
        assert fit.final_nll == scored[0]
        start = hyperlearn._unpack(hyperlearn._pack(H1), H1)
        for name in ("signal_var", "noise_var", "latent_prec_inv", "smooth_prec_inv"):
            assert np.array_equal(getattr(fit.h, name), getattr(start, name))
