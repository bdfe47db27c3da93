"""Symmetric positive-definite factorizations with a bounded jitter fallback.

All solves and log-determinants in the package go through this module so the
numerical policy lives in one place: try a Cholesky factorization, on failure
add ``1e-10 * trace/n`` to the diagonal exactly once, then fail hard.

``chol_spd`` returns a factor in a new array; ``spd_inverse`` inverts in that
factor's buffer; ``spd_info_in_place``, for the target pool's large residual,
factors in the matrix's own buffer, keeps only ``W^T A^-1 W`` and has the
caller rewrite the buffer.
"""

import logging

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrf, dpotri

from .errors import IllConditionedError

logger = logging.getLogger(__name__)

JITTER_SCALE = 1e-10


class SpdFactor:
    """Cholesky factor of an SPD matrix with cached log-determinant."""

    __slots__ = ("lower", "jitter")

    def __init__(self, lower, jitter):
        self.lower = lower
        self.jitter = jitter

    @property
    def logdet(self):
        return 2.0 * float(np.sum(np.log(np.diag(self.lower))))

    def solve(self, b):
        """Solve A x = b for the factorized matrix A."""
        return scipy.linalg.cho_solve((self.lower, True), b, check_finite=False)


def chol_spd(a, name="matrix"):
    """Factorize a symmetric positive-definite matrix.

    Returns an :class:`SpdFactor`.  A 0x0 input is valid and yields an empty
    factor with log-determinant 0 (the empty-determinant convention used by
    the entropy code).  Raises :class:`IllConditionedError` if the matrix is
    not positive definite after one jitter pass; a non-finite pivot (a NaN
    or an infinity in the lower triangle) counts as a failed factorization.
    """
    a = np.asarray(a, dtype=float)
    try:
        return SpdFactor(_cholesky(a), 0.0)
    except np.linalg.LinAlgError:
        return SpdFactor(*_jitter_pass(a.copy(), name, _cholesky))


def _cholesky(a):
    """``np.linalg.cholesky(a)``; a LinAlgError unless every pivot is finite."""
    lower = np.linalg.cholesky(a)
    if not np.all(np.isfinite(np.diagonal(lower))):
        raise np.linalg.LinAlgError("non-finite pivot")
    return lower


def _jitter_pass(a, name, factor):
    """Add ``JITTER_SCALE * trace / n`` to ``a``'s diagonal in place, log the
    pass, return ``factor(a), jitter``; a LinAlgError is IllConditionedError."""
    n = a.shape[0]
    jitter = JITTER_SCALE * float(np.trace(a)) / n
    logger.info("jitter pass on %s (n=%d, jitter=%.3e)", name, n, jitter)
    a.flat[::n + 1] += jitter
    try:
        return factor(a), jitter
    except np.linalg.LinAlgError:
        # a NaN or infinite trace makes the jitter itself non-finite
        reason = (f", even after adding jitter {jitter:.3e}" if np.isfinite(jitter)
                  else " and its trace is not finite")
        raise IllConditionedError(f"{name} ({n}x{n}) is not positive definite{reason}") from None


def _potrf_in_place(a):
    """Cholesky factor of the C-ordered ``a`` over its lower triangle (the
    one ``np.linalg.cholesky`` reads), in place; a LinAlgError unless every
    pivot is finite and positive."""
    out, info = dpotrf(a.T, lower=0, clean=0, overwrite_a=1)
    if not np.may_share_memory(out, a):
        # the factor would be lost in the copy and the solve would read ``a``
        raise ValueError("dpotrf copied its input; pass a C-contiguous float64 array")
    if info != 0 or not np.all(np.isfinite(np.diagonal(a))):
        raise np.linalg.LinAlgError(f"dpotrf info {info}")


def spd_inverse(a, name="matrix"):
    """Inverse of an SPD matrix ``a``, in the lower triangle of the
    C-ordered array returned (its strict upper triangle is zero).

    ``a`` is factored with :func:`chol_spd`'s jitter policy, log line and
    errors, and LAPACK ``dpotri`` inverts in the factor's own buffer, so the
    inverse needs no array beside the factor.  A 0x0 input gives a 0x0
    inverse.
    """
    n = len(a)
    if n == 0:
        return np.zeros((0, 0))
    lower = chol_spd(a, name).lower
    out, info = dpotri(lower.T, lower=0, overwrite_c=1)
    if not np.may_share_memory(out, lower):
        raise ValueError("dpotri copied its input; the factor must be C-contiguous float64")
    if info != 0:
        raise IllConditionedError(f"{name} ({n}x{n}) has no inverse (dpotri info {info})")
    return lower


def spd_info_in_place(a, w, refill, name="matrix"):
    """Information ``W^T A^-1 W`` of the columns of ``w`` under an SPD
    matrix ``a``, factored in ``a``'s own buffer.

    The factor overwrites ``a``'s lower triangle, so ``refill(a)`` must
    rewrite ``a`` bit for bit; it runs before the jitter pass and before
    returning or raising.  No other array of ``a``'s size is held.  The
    jitter policy and log line are :func:`chol_spd`'s; a non-finite pivot
    (a NaN in ``a``) counts as a failed factorization.
    """
    if a.shape[0] == 0:
        return np.zeros((w.shape[1], w.shape[1]))
    try:
        try:
            _potrf_in_place(a)
        except np.linalg.LinAlgError:
            refill(a)
            _jitter_pass(a, name, _potrf_in_place)
        half = scipy.linalg.solve_triangular(a, w, lower=True, check_finite=False)
    finally:
        refill(a)
    return half.T @ half
