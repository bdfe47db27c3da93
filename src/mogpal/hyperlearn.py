"""Maximum-likelihood hyperparameter fitting under the exact prior.

The likelihood factors the full prior covariance of the observations, so
each evaluation costs ``O(n^3)`` for n observations.  All positive
parameters are searched in log space with a derivative-free simplex
(Nelder-Mead), restarted from seeded perturbations of the initial point;
the best restart by (negative log likelihood, restart index) wins.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from . import kernels
from .errors import ConfigError, FitError, IllConditionedError
from .kernels import Hyperparams, TupleArray
from .linalg import chol_spd

__all__ = ["FitResult", "log_marginal_likelihood", "fit_hyperparams"]

PENALIZED_LML = -1e18


def log_marginal_likelihood(h: Hyperparams, x, y_x):
    """Gaussian log marginal density of the observations under the exact
    prior (zero mean, full covariance).

    A covariance that fails to factorize yields the large negative
    surrogate ``-1e18`` so optimizers can recover.
    """
    tx = x if isinstance(x, TupleArray) else TupleArray.build(x, h)
    y_x = np.asarray(y_x, dtype=float).ravel()
    if y_x.shape[0] != len(tx):
        raise ConfigError(f"{len(tx)} observations but {y_x.shape[0]} values")
    n = len(tx)
    if n == 0:
        return 0.0
    try:
        factor = chol_spd(kernels.cov_matrix(tx, tx, h), "prior covariance")
    except IllConditionedError:
        return PENALIZED_LML
    alpha = factor.solve(y_x)
    return float(
        -0.5 * y_x @ alpha - 0.5 * factor.logdet - 0.5 * n * math.log(2 * math.pi)
    )


# ---------------------------------------------------------------------------
# parameter packing
# ---------------------------------------------------------------------------

def _pack(h: Hyperparams, tie_dims):
    parts = [np.log(h.signal_var), np.log(h.noise_var)]
    if tie_dims:
        parts.append(np.log(h.latent_prec_inv[:1]))
        parts.append(np.log(h.smooth_prec_inv[:, 0]))
    else:
        parts.append(np.log(h.latent_prec_inv))
        parts.append(np.log(h.smooth_prec_inv).ravel())
    return np.concatenate(parts)


def _unpack(vec, template: Hyperparams, tie_dims):
    m, d = template.n_types, template.dim
    vec = np.asarray(vec, dtype=float)
    sig = np.exp(vec[:m])
    noi = np.exp(vec[m:2 * m])
    pos = 2 * m
    if tie_dims:
        lat = np.full(d, math.exp(vec[pos]))
        pos += 1
        smo = np.repeat(np.exp(vec[pos:pos + m])[:, None], d, axis=1)
    else:
        lat = np.exp(vec[pos:pos + d])
        pos += d
        smo = np.exp(vec[pos:pos + m * d]).reshape(m, d)
    return Hyperparams(
        signal_var=sig, noise_var=noi, latent_prec_inv=lat,
        smooth_prec_inv=smo, target_types=template.target_types,
    )


@dataclass(frozen=True)
class FitResult:
    """Outcome of a maximum-likelihood fit."""

    h: Hyperparams
    final_nll: float
    iterations: int
    converged: bool
    restarts_used: int


def fit_hyperparams(x, y_x, init: Hyperparams, budget=400, restarts=5, seed=0,
                    tie_dims=False) -> FitResult:
    """Minimize the negative exact log marginal likelihood over log parameters.

    ``budget`` is the total number of likelihood evaluations, split evenly
    across restarts.  Restart 0 starts exactly at ``init``; later restarts
    perturb it with seeded Gaussian noise in log space.  Convergence is
    simplex shrinkage below 1e-6 in log space or budget exhaustion.  Raises
    :class:`FitError` carrying the best parameters if every restart ends on
    the penalized (non-finite) likelihood.
    """
    if budget < 1:
        raise ConfigError("evaluation budget must be at least 1")
    if restarts < 1:
        raise ConfigError("at least one restart is required")
    tx = x if isinstance(x, TupleArray) else TupleArray.build(x, init)
    y_x = np.asarray(y_x, dtype=float).ravel()
    rng = np.random.default_rng(seed)
    x0 = _pack(init, tie_dims)
    per_restart = max(1, budget // restarts)

    def objective(vec):
        try:
            h = _unpack(vec, init, tie_dims)
        except (ConfigError, FloatingPointError, OverflowError):
            return -PENALIZED_LML
        return -log_marginal_likelihood(h, tx, y_x)

    best = None
    total_evals = 0
    any_converged = False
    for r in range(restarts):
        start = x0 if r == 0 else x0 + rng.normal(0.0, 0.3, size=x0.shape)
        res = scipy.optimize.minimize(
            objective, start, method="Nelder-Mead",
            options={"maxfev": per_restart, "xatol": 1e-6, "fatol": 1e-12},
        )
        total_evals += res.nfev
        any_converged = any_converged or bool(res.success)
        key = (float(res.fun), r)
        if best is None or key < best[0]:
            best = (key, res.x)
    final_nll, _ = best[0]
    if not math.isfinite(final_nll) or final_nll >= -PENALIZED_LML:
        raise FitError(
            "all restarts ended on a degenerate likelihood",
            best_so_far=_unpack(best[1], init, tie_dims),
        )
    return FitResult(
        h=_unpack(best[1], init, tie_dims),
        final_nll=final_nll,
        iterations=total_evals,
        converged=any_converged,
        restarts_used=restarts,
    )
