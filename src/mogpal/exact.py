"""Exact multi-output GP posterior and Gaussian entropies.

This is the dense reference model: it scales cubically in the number of
observations and serves as the correctness oracle for the sparse model and
for the brute-force selection criteria.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainError, IllConditionedError
from .kernels import LOG_2PI_E, Hyperparams, TupleArray
from .linalg import chol_spd


@dataclass(frozen=True)
class GaussianPrediction:
    """Posterior mean vector and covariance matrix over queried tuples."""

    mean: np.ndarray
    cov: np.ndarray

    @property
    def var(self):
        return np.diag(self.cov).copy()


def find_duplicates(tuples):
    """Exact duplicate tuples in a list, in first-seen order."""
    seen, dups = set(), []
    for t in tuples:
        if t in seen and t not in dups:
            dups.append(t)
        seen.add(t)
    return dups


def check_conditioning_set(x):
    """Reject a conditioning set that observes one tuple twice."""
    dups = find_duplicates(x.tuples)
    if dups:
        raise IllConditionedError(
            "observation covariance is singular: duplicate tuples "
            + ", ".join(repr(d) for d in dups)
        )


def exact_posterior(x, y_x, z, h: Hyperparams) -> GaussianPrediction:
    """Exact posterior of the measurements at ``z`` given observations at ``x``.

    The prior mean is zero (measurements are assumed normalized).  The
    covariance is independent of the observed values.
    """
    tx = x if isinstance(x, TupleArray) else TupleArray.build(x, h)
    tz = z if isinstance(z, TupleArray) else TupleArray.build(z, h)
    y_x = np.asarray(y_x, dtype=float).ravel()
    if y_x.shape[0] != len(tx):
        raise DomainError(f"{len(tx)} observations but {y_x.shape[0]} values")
    if set(tx.tuples) & set(tz.tuples):
        raise DomainError("query tuples overlap the observed tuples")

    k_zz = kernels.cov_matrix(tz, tz, h)
    if len(tx) == 0:
        return GaussianPrediction(mean=np.zeros(len(tz)), cov=k_zz)

    check_conditioning_set(tx)
    k_xx = kernels.cov_matrix(tx, tx, h)
    k_zx = kernels.cov_matrix(tz, tx, h)
    factor = chol_spd(k_xx, "observation covariance")
    mean = k_zx @ factor.solve(y_x)
    cov = k_zz - factor.quad(k_zx.T)
    return GaussianPrediction(mean=mean, cov=cov)


def joint_entropy(cov):
    """Entropy of a Gaussian with the given covariance matrix.

    ``0.5 * (n log(2 pi e) + log det cov)``, with the log-determinant taken
    from a Cholesky factorization.  A 0x0 covariance has entropy 0.
    """
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0]
    if n == 0:
        return 0.0
    if not np.allclose(cov, cov.T, rtol=1e-10, atol=1e-12):
        raise DomainError("covariance matrix is not symmetric")
    try:
        logdet = chol_spd(cov, "entropy covariance").logdet
    except IllConditionedError as exc:
        raise DomainError(f"covariance is not positive definite: {exc}") from None
    return 0.5 * (n * LOG_2PI_E + logdet)


def conditional_entropy(x, z, h: Hyperparams):
    """Posterior joint entropy of ``z`` given observations at ``x``.

    Independent of the measurement values, so none are taken.
    """
    tz = z if isinstance(z, TupleArray) else TupleArray.build(z, h)
    pred = exact_posterior(x, np.zeros(len(x)), tz, h)
    return joint_entropy(pred.cov)
