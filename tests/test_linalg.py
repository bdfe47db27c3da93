import logging

import numpy as np
import pytest

from mogpal.errors import IllConditionedError
from mogpal.linalg import chol_spd, spd_info_in_place

NAME = "type-0 residual block"


def _in_place(a, w):
    """``spd_info_in_place`` on ``a`` with a refill that restores a saved
    copy; returns the information and the saved copy."""
    saved = a.copy()
    info = spd_info_in_place(a, w, lambda r: np.copyto(r, saved), NAME)
    return info, saved


def _singular():
    # X X^T with X = [[1, 0], [0, 1], [1, 1]]: the last pivot is exactly 0
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    return x @ x.T


class TestSpdInfoInPlace:
    def test_matches_copying_cholesky_and_restores(self, rng):
        n = 300
        b = rng.normal(size=(n, n))
        a = b @ b.T / n + np.eye(n)
        # not bitwise symmetric, as a residual C - W G is not
        a[np.tril_indices(n, -1)] *= 1.0 + np.spacing(1.0) * rng.integers(-1, 2, size=n * (n - 1) // 2)
        w = rng.normal(size=(n, 7))
        info, saved = _in_place(a, w)
        assert np.array_equal(a, saved)
        expected = chol_spd(saved).quad(w)
        assert np.max(np.abs(info - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_jitter_pass_follows_chol_spd(self, caplog):
        w = np.array([[1.0, 0.5], [-0.3, 2.0], [0.7, 0.1]])
        caplog.set_level(logging.INFO, logger="mogpal.linalg")
        factor = chol_spd(_singular(), NAME)
        copied = [r.getMessage() for r in caplog.records]
        caplog.clear()
        info, saved = _in_place(_singular(), w)
        assert [r.getMessage() for r in caplog.records] == copied
        assert copied == [f"jitter pass on {NAME} (n=3, jitter={factor.jitter:.3e})"]
        expected = w.T @ np.linalg.solve(saved + factor.jitter * np.eye(3), w)
        np.testing.assert_allclose(info, expected, rtol=1e-6)

    def test_jitter_pass_restores(self):
        a = _singular()
        _, saved = _in_place(a, np.ones((3, 1)))
        assert np.array_equal(a, saved)

    def test_indefinite_raises_and_restores(self):
        a = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        saved = a.copy()
        with pytest.raises(IllConditionedError, match="not positive definite"):
            spd_info_in_place(a, np.ones((3, 2)), lambda r: np.copyto(r, saved), NAME)
        assert np.array_equal(a, saved)

    @pytest.mark.parametrize("where", [(0, 0), (5, 2), (39, 38), (39, 39)])
    def test_nan_raises_and_restores(self, rng, where):
        # a NaN the factorization reads: on the diagonal or below it
        b = rng.normal(size=(40, 40))
        a = b @ b.T + 40 * np.eye(40)
        a[where] = np.nan
        saved = a.copy()
        with pytest.raises(IllConditionedError):
            spd_info_in_place(a, np.ones((40, 2)), lambda r: np.copyto(r, saved), NAME)
        assert np.array_equal(a, saved, equal_nan=True)

    def test_empty(self):
        info = spd_info_in_place(np.zeros((0, 0)), np.zeros((0, 4)), None, NAME)
        assert np.array_equal(info, np.zeros((4, 4)))

    def test_refuses_a_copied_factorization(self):
        # a Fortran-ordered matrix would be factored in a copy, which the
        # solve would never read
        a = np.asfortranarray(np.eye(3) + 0.5)
        with pytest.raises(ValueError, match="copied"):
            spd_info_in_place(a, np.ones((3, 1)), lambda r: None, NAME)
