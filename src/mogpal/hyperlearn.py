"""Maximum-likelihood hyperparameter fitting under the exact prior.

The likelihood factors the full prior covariance of the observations, so
each evaluation costs ``O(n^3)`` for n observations.  All positive
parameters are searched in log space by one L-BFGS-B run from the initial
point, with finite-difference gradients, under a hard cap on likelihood
evaluations; the lowest evaluated negative log likelihood wins.
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


class _BudgetSpent(Exception):
    """Raised by the objective to stop the optimizer at the evaluation cap."""


def fit_hyperparams(x, y_x, init: Hyperparams, budget=400, tie_dims=False) -> FitResult:
    """Minimize the negative exact log marginal likelihood over log parameters.

    One L-BFGS-B run starts at ``init``; its gradient is taken by finite
    differences.  ``budget`` is a hard cap on likelihood evaluations,
    gradient evaluations included: the run stops when it is spent and the
    fit is not converged.  The result is the lowest evaluated negative log
    likelihood, so it never exceeds the one at ``init``.  Raises
    :class:`FitError` carrying the best parameters if every evaluation
    was the penalized (non-finite) likelihood.
    """
    if budget < 1:
        raise ConfigError("evaluation budget must be at least 1")
    tx = x if isinstance(x, TupleArray) else TupleArray.build(x, init)
    y_x = np.asarray(y_x, dtype=float).ravel()
    x0 = _pack(init, tie_dims)
    best = (math.inf, x0)
    evals = 0

    def objective(vec):
        nonlocal best, evals
        if evals == budget:
            raise _BudgetSpent
        evals += 1
        try:
            h = _unpack(vec, init, tie_dims)
        except (ConfigError, FloatingPointError, OverflowError):
            nll = -PENALIZED_LML
        else:
            nll = -log_marginal_likelihood(h, tx, y_x)
        if nll < best[0]:
            best = (nll, vec.copy())
        return nll

    try:
        converged = bool(scipy.optimize.minimize(objective, x0, method="L-BFGS-B").success)
    except _BudgetSpent:
        converged = False
    final_nll, vec = best
    h = _unpack(vec, init, tie_dims)
    if not final_nll < -PENALIZED_LML:
        raise FitError("every evaluation was a degenerate likelihood", best_so_far=h)
    return FitResult(h=h, final_nll=final_nll, iterations=evals, converged=converged)
