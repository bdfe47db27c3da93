"""Symmetric positive-definite factorizations with a bounded jitter fallback.

All solves and log-determinants in the package go through this module so the
numerical policy lives in one place: try a Cholesky factorization, on failure
add ``1e-10 * trace/n`` to the diagonal exactly once, then fail hard.
"""

import logging

import numpy as np
import scipy.linalg

from .errors import IllConditionedError

logger = logging.getLogger(__name__)

JITTER_SCALE = 1e-10


class SpdFactor:
    """Cholesky factor of an SPD matrix with cached log-determinant."""

    __slots__ = ("lower", "jitter", "n")

    def __init__(self, lower, jitter):
        self.lower = lower
        self.jitter = jitter
        self.n = lower.shape[0]

    @property
    def logdet(self):
        if self.n == 0:
            return 0.0
        return 2.0 * float(np.sum(np.log(np.diag(self.lower))))

    def solve(self, b):
        """Solve A x = b for the factorized matrix A."""
        if self.n == 0:
            return np.zeros_like(b)
        return scipy.linalg.cho_solve((self.lower, True), b, check_finite=False)

    def quad(self, b):
        """Quadratic form b^T A^{-1} b (b may be a matrix of columns)."""
        if self.n == 0:
            return 0.0 if b.ndim == 1 else np.zeros((b.shape[1], b.shape[1]))
        half = scipy.linalg.solve_triangular(
            self.lower, b, lower=True, check_finite=False
        )
        return half.T @ half


def chol_spd(a, name="matrix"):
    """Factorize a symmetric positive-definite matrix.

    Returns an :class:`SpdFactor`.  A 0x0 input is valid and yields an empty
    factor with log-determinant 0 (the empty-determinant convention used by
    the entropy code).  Raises :class:`IllConditionedError` if the matrix is
    not positive definite after one jitter pass.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n == 0:
        return SpdFactor(np.zeros((0, 0)), 0.0)
    try:
        return SpdFactor(np.linalg.cholesky(a), 0.0)
    except np.linalg.LinAlgError:
        pass
    jitter = JITTER_SCALE * float(np.trace(a)) / n
    logger.info("jitter pass on %s (n=%d, jitter=%.3e)", name, n, jitter)
    try:
        lower = np.linalg.cholesky(a + jitter * np.eye(n))
    except np.linalg.LinAlgError:
        raise IllConditionedError(
            f"{name} ({n}x{n}) is not positive definite, even after "
            f"adding jitter {jitter:.3e}"
        ) from None
    return SpdFactor(lower, jitter)
