"""Maximum-likelihood hyperparameter fitting under the exact prior.

The likelihood factors the full prior covariance of the observations, so
each evaluation costs ``O(n^3)`` for n observations.  Every positive
parameter is searched in log space: the signal and noise variance of each
type, one latent width per dimension and one smoothing width per type and
dimension.  One L-BFGS-B run from the initial point, with finite-difference
gradients and a hard cap on likelihood evaluations, does the search; the
lowest evaluated negative log likelihood wins.

``scipy.optimize`` is imported inside :func:`fit_hyperparams`, so it loads
on the first fit.  Only a fit uses it; at module level it would add its
import time, about 240 modules and about 20 MB to every import of the
package, so to every ``mogpal run`` and ``mogpal verify`` that never fits.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConfigError, FitError, IllConditionedError
from .kernels import Hyperparams, TupleArray
from .linalg import chol_spd

__all__ = ["FitResult", "log_marginal_likelihood", "fit_hyperparams"]

PENALIZED_LML = -1e18
FIT_BUDGET = 400  # likelihood evaluations a fit may spend unless told otherwise


def log_marginal_likelihood(h: Hyperparams, tx: TupleArray, y_x):
    """Gaussian log marginal density of the observations ``y_x`` at the
    tuples of ``tx`` under the exact prior (zero mean, full covariance).

    A covariance that fails to factorize yields the large negative
    surrogate ``-1e18`` so optimizers can recover.
    """
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

def _pack(h: Hyperparams):
    return np.log(np.concatenate([
        h.signal_var, h.noise_var, h.latent_prec_inv, h.smooth_prec_inv.ravel(),
    ]))


def _unpack(vec, template: Hyperparams):
    m, d = template.n_types, template.dim
    vals = np.exp(vec)
    return Hyperparams(
        signal_var=vals[:m], noise_var=vals[m:2 * m], latent_prec_inv=vals[2 * m:2 * m + d],
        smooth_prec_inv=vals[2 * m + d:].reshape(m, d), target_type=template.target_type,
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


def fit_hyperparams(x, y_x, init: Hyperparams, budget=FIT_BUDGET) -> FitResult:
    """Minimize the negative exact log marginal likelihood over log parameters.

    One L-BFGS-B run starts at ``init``, whose every width, per dimension,
    is a search parameter; the gradient is taken by finite differences.
    ``budget`` is a hard cap on likelihood evaluations, gradient
    evaluations included: the run stops when it is spent and the fit is
    not converged.  The result is the lowest evaluated negative log
    likelihood, and ``init`` is the first point evaluated, so for every
    caller it never exceeds the one at ``init``.  Raises
    :class:`FitError` if every evaluation was the penalized (non-finite)
    likelihood.
    """
    import scipy.optimize  # loads on the first fit, see the module docstring

    if budget < 1:
        raise ConfigError("evaluation budget must be at least 1")
    tx = TupleArray.build(x, init)
    y_x = np.asarray(y_x, dtype=float).ravel()
    x0 = _pack(init)
    best = (math.inf, x0)
    evals = 0

    def objective(vec):
        nonlocal best, evals
        if evals == budget:
            raise _BudgetSpent
        evals += 1
        try:
            h = _unpack(vec, init)
        except ConfigError:
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
    if not final_nll < -PENALIZED_LML:
        raise FitError("every evaluation was a degenerate likelihood")
    return FitResult(h=_unpack(vec, init), final_nll=final_nll, iterations=evals,
                     converged=converged)
