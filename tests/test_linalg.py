import logging
import math

import numpy as np
import pytest
import scipy.linalg

from mogpal.errors import IllConditionedError
from mogpal import linalg
from mogpal.linalg import JITTER_SCALE, chol_spd, spd_info_in_place, spd_inverse

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


def _entropy(factor):
    """Joint Gaussian entropy from a factor's log-determinant, as the
    criterion computes it."""
    return 0.5 * (len(factor.lower) * math.log(2 * math.pi * math.e) + factor.logdet)


class TestCholSpd:
    def test_unit_determinant_scaling(self):
        factor = chol_spd([[1.0 / (2 * math.pi * math.e)]])
        assert _entropy(factor) == pytest.approx(0.0, abs=1e-12)

    def test_identity_two_by_two(self):
        factor = chol_spd(np.eye(2))
        assert factor.logdet == 0.0
        assert _entropy(factor) == pytest.approx(2.8378770664093453, abs=1e-12)

    def test_block_diagonal_adds(self, rng):
        a = rng.normal(size=(3, 3))
        a = a @ a.T + 3 * np.eye(3)
        b = rng.normal(size=(2, 2))
        b = b @ b.T + 3 * np.eye(2)
        full = np.block([[a, np.zeros((3, 2))], [np.zeros((2, 3)), b]])
        assert chol_spd(full).logdet == pytest.approx(
            chol_spd(a).logdet + chol_spd(b).logdet, rel=1e-12
        )
        assert chol_spd(full).logdet == pytest.approx(np.linalg.slogdet(full)[1], rel=1e-12)

    def test_empty_is_zero(self):
        factor = chol_spd(np.zeros((0, 0)))
        assert factor.logdet == 0.0
        assert factor.jitter == 0.0
        assert factor.solve(np.zeros((0, 3))).shape == (0, 3)

    def test_solve_matches_dense_solve(self, rng):
        b = rng.normal(size=(6, 6))
        a = b @ b.T + np.eye(6)
        rhs = rng.normal(size=(6, 2))
        factor = chol_spd(a)
        np.testing.assert_allclose(factor.solve(rhs), np.linalg.solve(a, rhs), rtol=1e-10)
        np.testing.assert_allclose(
            factor.solve(rhs[:, 0]), np.linalg.solve(a, rhs[:, 0]), rtol=1e-10
        )

    def test_reads_the_lower_triangle(self):
        # spd_info_in_place factors the same triangle, so the two agree on a
        # residual that is not bitwise symmetric
        sym = np.array([[2.0, 0.5], [0.5, 1.0]])
        upper_changed = sym.copy()
        upper_changed[0, 1] = 9.0
        np.testing.assert_array_equal(chol_spd(upper_changed).lower, chol_spd(sym).lower)

    def test_jitter_pass_recorded(self, caplog):
        a = _singular()
        caplog.set_level(logging.INFO, logger="mogpal.linalg")
        factor = chol_spd(a, NAME)
        assert factor.jitter == JITTER_SCALE * np.trace(a) / 3
        np.testing.assert_allclose(
            factor.lower @ factor.lower.T, a + factor.jitter * np.eye(3), atol=1e-12
        )
        assert [r.getMessage() for r in caplog.records] == [
            f"jitter pass on {NAME} (n=3, jitter={factor.jitter:.3e})"
        ]

    def test_rejects_non_positive_definite(self):
        with pytest.raises(IllConditionedError, match=f"{NAME} \\(2x2\\) is not positive definite"):
            chol_spd([[1.0, 2.0], [2.0, 1.0]], NAME)

    @pytest.mark.parametrize("where, value, message", [
        ((1, 1), np.nan, "and its trace is not finite"),
        ((2, 1), np.nan, "even after adding jitter 1.500e-10"),
        ((3, 3), np.inf, "and its trace is not finite"),
    ])
    def test_non_finite_raises(self, where, value, message):
        # a non-finite entry the factorization reads: on the diagonal or below it
        a = np.eye(4) + 0.5
        a[where] = value
        with pytest.raises(IllConditionedError) as exc:
            chol_spd(a, NAME)
        assert str(exc.value).startswith(f"{NAME} (4x4) is not positive definite")
        assert str(exc.value).endswith(message)


class TestSpdInverse:
    def test_matches_the_dense_inverse(self, rng):
        b = rng.normal(size=(60, 60))
        a = b @ b.T / 60 + np.eye(60)
        inverse = spd_inverse(a, NAME)
        expected = np.linalg.inv(a)
        lower = np.tri(60, dtype=bool)
        assert np.max(np.abs(inverse - expected)[lower]) <= 1e-12 * np.max(np.abs(expected))
        assert np.all(inverse[~lower] == 0.0)

    def test_jitter_pass_inverts_what_chol_spd_factors(self, caplog):
        caplog.set_level(logging.INFO, logger="mogpal.linalg")
        factor = chol_spd(_singular(), NAME)
        copied = [r.getMessage() for r in caplog.records]
        caplog.clear()
        inverse = spd_inverse(_singular(), NAME)
        assert [r.getMessage() for r in caplog.records] == copied
        assert copied == [f"jitter pass on {NAME} (n=3, jitter={factor.jitter:.3e})"]
        expected = np.linalg.inv(_singular() + factor.jitter * np.eye(3))
        lower = np.tri(3, dtype=bool)
        np.testing.assert_allclose(inverse[lower], expected[lower], rtol=1e-6)

    def test_inverts_in_the_factor_buffer(self, monkeypatch):
        factors = []

        def spy(a, name):
            factors.append(chol_spd(a, name))
            return factors[-1]

        monkeypatch.setattr(linalg, "chol_spd", spy)
        inverse = spd_inverse(np.eye(4) + 0.5, NAME)
        assert len(factors) == 1 and inverse is factors[0].lower

    def test_rejects_non_positive_definite(self):
        with pytest.raises(IllConditionedError, match=f"^{NAME} \\(2x2\\) is not positive definite"):
            spd_inverse(np.array([[1.0, 2.0], [2.0, 1.0]]), NAME)

    def test_failed_inversion_names_the_matrix(self, monkeypatch):
        monkeypatch.setattr(linalg, "dpotri", lambda c, lower, overwrite_c: (c, 2))
        with pytest.raises(IllConditionedError, match=f"^{NAME} \\(3x3\\) has no inverse "
                                                      "\\(dpotri info 2\\)$"):
            spd_inverse(np.eye(3), NAME)

    def test_refuses_a_copied_inversion(self, monkeypatch):
        monkeypatch.setattr(linalg, "dpotri", lambda c, lower, overwrite_c: (c.copy(), 0))
        with pytest.raises(ValueError, match="copied"):
            spd_inverse(np.eye(3), NAME)

    def test_empty(self):
        assert spd_inverse(np.zeros((0, 0)), NAME).shape == (0, 0)


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
        half = scipy.linalg.solve_triangular(chol_spd(saved).lower, w, lower=True)
        expected = half.T @ half
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
