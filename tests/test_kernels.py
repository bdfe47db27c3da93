import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mogpal import (
    ConfigError,
    DomainError,
    Hyperparams,
    as_tuple,
)
from mogpal.kernels import (
    TWO_PI,
    TupleArray,
    _pairwise_density,
    cov_matrix,
    latent_cross_matrix,
    latent_matrix,
)
from mogpal.linalg import chol_spd, spd_inverse

H2 = Hyperparams(
    signal_var=[1.0, 0.8],
    noise_var=[0.25, 0.1],
    latent_prec_inv=[0.1],
    smooth_prec_inv=[[0.2], [0.15]],
    target_type=0,
)


def cov(a, b, h):
    """``cov_matrix`` of two tuple lists."""
    return cov_matrix(TupleArray.build(a, h), TupleArray.build(b, h), h)


def output_cov(p, q, h):
    """Covariance of two typed tuples, as cov_matrix on one-element inputs."""
    return cov([p], [q], h)[0, 0]


def latent_cross_cov(p, u, h):
    return latent_cross_matrix(TupleArray.build([p], h), [u], h)[0, 0]


def latent_cov(u, v, h):
    return latent_matrix([u, v], h)[0, 1]


def density(delta, diag_cov):
    """The kernels' normal density at one difference vector."""
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    return _pairwise_density(delta[None, :], np.zeros((1, delta.size)), diag_cov)[0, 0]


class TestPairwiseDensity:
    def test_peak_with_unit_determinant(self):
        assert density([0.0], [1.0 / (2 * math.pi)]) == pytest.approx(1.0)

    def test_two_dim_origin(self):
        assert density([0.0, 0.0], [1.0, 1.0]) == pytest.approx(
            0.15915494309189535, abs=1e-12
        )

    def test_standard_normal_at_one(self):
        assert density([1.0], [1.0]) == pytest.approx(0.24197072451914337, abs=1e-12)

    @given(
        delta=st.floats(-3, 3),
        cov=st.floats(0.05, 10),
    )
    def test_strictly_positive(self, delta, cov):
        # domain bounded away from the exp underflow threshold
        assert density([delta], [cov]) > 0

    def test_fills_the_given_buffer(self, rng):
        xa = rng.uniform(-1, 1, size=(4, 2))
        xb = rng.uniform(-1, 1, size=(3, 2))
        width = [0.3, 0.7]
        out = np.full((4, 3), np.nan)
        assert _pairwise_density(xa, xb, width, out=out) is out
        expected = [[oracles.gd(a - b, width) for b in xb] for a in xa]
        np.testing.assert_allclose(out, expected, rtol=1e-13)


class TestOutputCov:
    def test_same_tuple_adds_noise(self):
        h = Hyperparams(
            signal_var=[1.0], noise_var=[0.25],
            latent_prec_inv=[0.1], smooth_prec_inv=[[0.2]],
        )
        p = as_tuple([0.0], 0)
        expected = 1.0 / math.sqrt(math.pi) + 0.25  # density at 0 with width 0.5
        assert output_cov(p, p, h) == pytest.approx(expected, abs=1e-12)

    def test_no_noise_across_types_at_same_location(self):
        p = as_tuple([0.3], 0)
        q = as_tuple([0.3], 1)
        width = H2.pair_width(0, 1)
        smooth = math.sqrt(H2.signal_var[0] * H2.signal_var[1]) * oracles.gd([0.0], width)
        assert output_cov(p, q, H2) == pytest.approx(smooth, abs=1e-15)

    def test_vanishes_at_large_separation(self):
        p = as_tuple([0.0], 0)
        q = as_tuple([100.0], 1)
        assert output_cov(p, q, H2) < 1e-300

    def test_symmetry(self, rng):
        for _ in range(20):
            p = as_tuple(rng.uniform(0, 1, 1), rng.integers(2))
            q = as_tuple(rng.uniform(0, 1, 1), rng.integers(2))
            assert output_cov(p, q, H2) == pytest.approx(output_cov(q, p, H2), rel=1e-14)

    def test_noise_decomposition(self):
        p = as_tuple([0.7], 1)
        smooth = output_cov(p, p, H2) - H2.noise_var[1]
        width = H2.pair_width(1, 1)
        assert smooth == pytest.approx(H2.signal_var[1] * oracles.gd([0.0], width))

    @given(shift=st.floats(-3, 3), x=st.floats(-1, 1), y=st.floats(-1, 1))
    @settings(max_examples=50)
    def test_stationarity(self, shift, x, y):
        p = as_tuple([x], 0)
        q = as_tuple([y], 1)
        p2 = as_tuple([x + shift], 0)
        q2 = as_tuple([y + shift], 1)
        assert output_cov(p, q, H2) == pytest.approx(output_cov(p2, q2, H2), rel=1e-10)


class TestLatentCov:
    def test_cross_peak(self):
        h = Hyperparams(
            signal_var=[1.0], noise_var=[0.1],
            latent_prec_inv=[1.0 / (4 * math.pi)],
            smooth_prec_inv=[[1.0 / (4 * math.pi)]],
        )
        p = as_tuple([0.5], 0)
        assert latent_cross_cov(p, [0.5], h) == pytest.approx(1.0)

    def test_cross_scales_with_signal(self):
        h = Hyperparams(
            signal_var=[4.0], noise_var=[0.1],
            latent_prec_inv=[0.5], smooth_prec_inv=[[0.5]],
        )
        p = as_tuple([1.0], 0)
        assert latent_cross_cov(p, [0.0], h) == pytest.approx(
            2 * 0.24197072451914337, abs=1e-12
        )

    def test_latent_peak_and_symmetry(self):
        h = Hyperparams(
            signal_var=[1.0], noise_var=[0.1],
            latent_prec_inv=[1.0, 1.0], smooth_prec_inv=[[0.2, 0.2]],
        )
        assert latent_matrix([[0.3, 0.3]], h)[0, 0] == pytest.approx(
            0.15915494309189535
        )
        a, b = [0.1, 0.9], [0.4, 0.2]
        assert latent_cov(a, b, h) == latent_cov(b, a, h)


class TestCovMatrix:
    def test_single_tuple(self):
        p = as_tuple([0.2], 0)
        mat = cov([p], [p], H2)
        assert mat.shape == (1, 1)
        assert mat[0, 0] == pytest.approx(oracles.out_cov(p, p, H2), rel=1e-14)

    def test_symmetric_bitwise(self, rng):
        tuples = [as_tuple(rng.uniform(0, 1, 1), rng.integers(2)) for _ in range(6)]
        mat = cov(tuples, tuples, H2)
        assert np.array_equal(mat, mat.T)

    def test_positive_definite(self, rng):
        tuples = [as_tuple(rng.uniform(0, 1, 1), rng.integers(2)) for _ in range(3)]
        mat = cov(tuples, tuples, H2)
        assert np.linalg.eigvalsh(mat).min() > 0

    def test_min_eigenvalue_at_least_noise(self, rng):
        for _ in range(5):
            tuples = list({
                as_tuple(rng.uniform(0, 1, 2), rng.integers(2)) for _ in range(15)
            })
            h = Hyperparams(
                signal_var=[1.0, 0.8], noise_var=[0.25, 0.1],
                latent_prec_inv=[0.1, 0.1], smooth_prec_inv=[[0.2, 0.2], [0.15, 0.15]],
            )
            mat = cov(tuples, tuples, h)
            assert np.linalg.eigvalsh(mat).min() >= min(h.noise_var) - 1e-10

    def test_matches_scalar_oracle(self, rng):
        a = [as_tuple(rng.uniform(0, 1, 1), rng.integers(2)) for _ in range(5)]
        b = [as_tuple(rng.uniform(0, 1, 1), rng.integers(2)) for _ in range(4)]
        np.testing.assert_allclose(
            cov(a, b, H2), oracles.exact_cov(a, b, H2), rtol=1e-13, atol=1e-15
        )

    def test_latent_matrices_match_oracle(self, rng):
        a = [as_tuple(rng.uniform(0, 1, 1), rng.integers(2)) for _ in range(5)]
        u = rng.uniform(0, 1, size=(3, 1))
        ta = TupleArray.build(a, H2)
        np.testing.assert_allclose(
            latent_cross_matrix(ta, u, H2),
            oracles.cross_to_inducing(a, u, H2),
            rtol=1e-13,
        )
        np.testing.assert_allclose(
            latent_matrix(u, H2), oracles.inducing_cov(u, H2), rtol=1e-13
        )


class TestTupleArray:
    def test_build_validates_each_tuple(self):
        message = r"^location \(0\.0, 1\.0\) has dimension 2, model expects 1$"
        with pytest.raises(DomainError, match=message):
            TupleArray.build([as_tuple([0.0], 0), as_tuple([0.0, 1.0], 1)], H2)
        with pytest.raises(DomainError, match=r"^type index 2 out of range \[0, 2\)$"):
            TupleArray.build([as_tuple([0.0], 2)], H2)

    def test_empty_build_has_the_model_dimension(self):
        h = Hyperparams(signal_var=[1.0], noise_var=[0.1], latent_prec_inv=[0.1, 0.2],
                        smooth_prec_inv=[[0.1, 0.1]])
        ta = TupleArray.build([], h)
        assert ta.coords.shape == (0, 2) and len(ta) == 0 and ta.type_set == ()


def _random_tuples(rng, n, types, dim, spread=5.0):
    """``n`` tuples of each type, at distinct uniform locations."""
    return [
        as_tuple(rng.uniform(0, spread, dim), i) for i in types for _ in range(n)
    ]


def _hyper(n_types, dim, rng):
    return Hyperparams(
        signal_var=rng.uniform(0.5, 2.0, n_types),
        noise_var=rng.uniform(0.1, 0.3, n_types),
        latent_prec_inv=rng.uniform(0.05, 0.5, dim),
        smooth_prec_inv=rng.uniform(0.02, 0.3, (n_types, dim)),
    )


class TestInPlaceAssembly:
    """``cov_matrix`` fills its output in place; it must keep the bits of
    the whole-array reference assembly in ``oracles.cov_matrix``."""

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("n_types", [1, 2, 3])
    def test_bitwise_equal_to_reference(self, dim, n_types):
        rng = np.random.default_rng(100 * dim + n_types)
        h = _hyper(n_types, dim, rng)
        # a spread of 60 puts most pairs where the density underflows to zero
        a = _random_tuples(rng, 40, range(n_types), dim, spread=60.0)
        b = _random_tuples(rng, 30, range(n_types), dim)
        rng.shuffle(a)
        for x, y in ((a, a), (a, b), (b, a)):
            assert np.array_equal(cov(x, y, h), oracles.cov_matrix(x, y, h))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_shared_location_across_types(self, dim):
        # the noise is shared by the same tuple only, not by another type
        # measured at the same location
        rng = np.random.default_rng(7)
        h = _hyper(2, dim, rng)
        locs = rng.uniform(0, 3, (6, dim))
        tuples = [as_tuple(loc, i) for loc in locs for i in (0, 1)]
        mat = cov(tuples, tuples, h)
        assert np.array_equal(mat, oracles.cov_matrix(tuples, tuples, h))
        for k in range(0, len(tuples), 2):
            assert mat[k, k + 1] == pytest.approx(
                oracles.out_cov(tuples[k], tuples[k + 1], h), rel=1e-14
            )

    @pytest.mark.parametrize("dim", [1, 2])
    def test_one_tuple_row_matches_full_block(self, dim):
        rng = np.random.default_rng(11 + dim)
        h = _hyper(1, dim, rng)
        ta = TupleArray.build(_random_tuples(rng, 300, [0], dim, spread=80.0), h)
        full = cov_matrix(ta, ta, h)
        for k in (0, 17, 299):
            assert np.array_equal(cov_matrix(ta.take([k]), ta, h)[0], full[k])

    def test_three_dims_documented_gap(self):
        # np.einsum adds the per-dimension terms of the reference in another
        # order for d >= 3, so only the last bits may differ there
        rng = np.random.default_rng(3)
        h = _hyper(2, 3, rng)
        a = _random_tuples(rng, 25, (0, 1), 3, spread=2.0)
        np.testing.assert_allclose(
            cov(a, a, h), oracles.cov_matrix(a, a, h), rtol=1e-13, atol=0
        )

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("types", [(0,), (0, 1)], ids=["one-type", "two-types"])
    def test_peak_allocation_bounded(self, types, dim):
        # 1000 tuples either way; the whole-array assembly peaked at 5x the
        # output's bytes on one type in one dimension
        rng = np.random.default_rng(5)
        h = _hyper(2, dim, rng)
        ta = TupleArray.build(_random_tuples(rng, 1000 // len(types), types, dim), h)
        tracemalloc.start()
        try:
            out = cov_matrix(ta, ta, h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * out.nbytes


LOG_TINY = 0.5 * math.log(np.finfo(float).tiny)


def _unflushed(xa, xb, width):
    """The exponent and the normal density of ``xa[r] - xb[c]`` without the
    zero rule, assembled as ``oracles._pairwise_density`` assembles them."""
    width = np.asarray(width, dtype=float)
    diff = xa[:, None, :] - xb[None, :, :]
    expo = -0.5 * np.einsum("rcv,v->rc", diff * diff, 1.0 / width)
    norm = TWO_PI ** (-0.5 * width.size) * float(np.prod(width)) ** -0.5
    return expo, norm * np.exp(expo)


def _edge_offsets(width, dim):
    """Two offsets from the origin along the first axis: the largest whose
    exponent under ``width`` is at or above ``LOG_TINY``, and the next
    double, whose exponent is below it."""
    def expo(x):
        return _unflushed(np.zeros((1, dim)), np.array([[x] + [0.0] * (dim - 1)]), width)[0][0, 0]
    x = math.sqrt(-2.0 * width[0] * LOG_TINY)
    while expo(x) < LOG_TINY:
        x = np.nextafter(x, 0.0)
    while expo(np.nextafter(x, np.inf)) >= LOG_TINY:
        x = np.nextafter(x, np.inf)
    assert 0.0 <= expo(x) - LOG_TINY <= 4 * np.spacing(-LOG_TINY)
    return [[x] + [0.0] * (dim - 1), [np.nextafter(x, np.inf)] + [0.0] * (dim - 1)]


class TestUnderflowRule:
    """An entry whose exponent is below 0.5 * log(DBL_MIN) is exactly 0.0,
    where the unflushed formula gives a value under sqrt(DBL_MIN) times the
    density's peak, normal or subnormal; every other entry keeps the bits of
    the unflushed formula, up to an exponent a few ulps above the
    threshold."""

    H = {
        1: Hyperparams(signal_var=[1.3, 0.7], noise_var=[0.2, 0.1],
                       latent_prec_inv=[0.3], smooth_prec_inv=[[0.2], [0.35]]),
        2: Hyperparams(signal_var=[1.3, 0.7], noise_var=[0.2, 0.1],
                       latent_prec_inv=[0.3, 0.45],
                       smooth_prec_inv=[[0.2, 0.1], [0.35, 0.15]]),
    }

    @staticmethod
    def _check(got, expo, unflushed):
        flushed = expo < LOG_TINY
        # the band: the unflushed formula is not zero there, and it holds
        # normal values as well as subnormal ones
        assert np.any(flushed & (unflushed >= np.finfo(float).tiny))
        assert np.any(flushed & (unflushed < np.finfo(float).tiny) & (unflushed != 0.0))
        assert np.all(got[flushed] == 0.0)
        assert np.array_equal(got[~flushed], unflushed[~flushed])

    @staticmethod
    def _coords(dim, n, seed):
        # separations from 0 to over 50 span every width's band, from the
        # threshold (15 to 27) to the last nonzero unflushed value (21 to 39)
        return np.random.default_rng(seed).uniform(0.0, 50.0, (n, dim))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_cov_matrix(self, dim):
        h = self.H[dim]
        xa = np.vstack([self._coords(dim, 60, dim), np.zeros((1, dim))])
        xb = np.vstack([self._coords(dim, 50, 10 + dim), _edge_offsets(h.pair_width(0, 0), dim)])
        a = [as_tuple(x, k % 2) for k, x in enumerate(xa[:-1])] + [as_tuple(xa[-1], 0)]
        b = [as_tuple(x, k % 2) for k, x in enumerate(xb[:-2])] + [as_tuple(x, 0) for x in xb[-2:]]
        ta, tb = TupleArray.build(a, h), TupleArray.build(b, h)
        got = cov_matrix(ta, tb, h)
        for i in (0, 1):
            for j in (0, 1):
                ra, rb = ta.indices_of_type(i), tb.indices_of_type(j)
                expo, dens = _unflushed(ta.coords[ra], tb.coords[rb], h.pair_width(i, j))
                amp = math.sqrt(h.signal_var[i] * h.signal_var[j])
                self._check(got[np.ix_(ra, rb)], expo, amp * dens)
        # the zero tuple against the two edge tuples: kept, then zero
        assert got[-1, -2] > 0.0 and got[-1, -1] == 0.0

    @pytest.mark.parametrize("dim", [1, 2])
    def test_latent_cross_matrix(self, dim):
        h = self.H[dim]
        xa = np.vstack([self._coords(dim, 60, dim), _edge_offsets(h.latent_width(0), dim)])
        u = np.vstack([self._coords(dim, 40, 10 + dim), np.zeros((1, dim))])
        a = [as_tuple(x, k % 2) for k, x in enumerate(xa[:-2])] + [as_tuple(x, 0) for x in xa[-2:]]
        ta = TupleArray.build(a, h)
        got = latent_cross_matrix(ta, u, h)
        for i in (0, 1):
            ra = ta.indices_of_type(i)
            expo, dens = _unflushed(ta.coords[ra], u, h.latent_width(i))
            self._check(got[ra], expo, math.sqrt(h.signal_var[i]) * dens)
        assert got[-2, -1] > 0.0 and got[-1, -1] == 0.0

    @pytest.mark.parametrize("dim", [1, 2])
    def test_latent_matrix(self, dim):
        h = self.H[dim]
        u = np.vstack([np.zeros((1, dim)), self._coords(dim, 80, dim),
                       _edge_offsets(h.latent_prec_inv, dim)])
        got = latent_matrix(u, h)
        self._check(got, *_unflushed(u, u, h.latent_prec_inv))
        assert got[0, -2] > 0.0 and got[0, -1] == 0.0


class TestUnderflowRuleKeepsFactoredResults:
    """The entries the rule drops are too small to move what the package
    computes from a factored prior: on a grid whose band is populated, the
    synthetic draw ``L @ z`` and the s-MI inverse keep the bits they have
    under the unflushed formula."""

    # the hyperparameters of perfbench/experiment.ini; over extent 60 the
    # band runs from separation 39.5 to 57
    H = Hyperparams(signal_var=[1.0, 0.8], noise_var=[0.25, 0.1],
                    latent_prec_inv=[2.0], smooth_prec_inv=[[0.1], [0.1]])

    @staticmethod
    def _priors(ta, h):
        """``cov_matrix(ta, ta, h)`` and the same matrix from the unflushed
        formula, with the band's size and its count of normal values."""
        got = cov_matrix(ta, ta, h)
        unflushed = np.empty_like(got)
        band = normal = 0
        for i in ta.type_set:
            ra = ta.indices_of_type(i)
            for j in ta.type_set:
                rb = ta.indices_of_type(j)
                expo, dens = _unflushed(ta.coords[ra], ta.coords[rb], h.pair_width(i, j))
                block = math.sqrt(h.signal_var[i] * h.signal_var[j]) * dens
                in_band = (expo < LOG_TINY) & (block != 0.0)
                band += int(in_band.sum())
                normal += int((in_band & (block >= np.finfo(float).tiny)).sum())
                unflushed[np.ix_(ra, rb)] = block
        # a grid repeats no location, so the noise sits on the diagonal alone
        unflushed.flat[::len(ta) + 1] += h.noise_var[ta.types]
        return got, unflushed, band, normal

    @staticmethod
    def _grid(h, n_types):
        x = np.linspace(0.0, 60.0, 150)
        return TupleArray.build(
            [as_tuple(c, ti) for ti in range(n_types) for c in x], h
        )

    def test_prior_draw(self):
        # the synthetic draw's prior: noise-free, plus 1e-10 jitter
        ta = self._grid(self.H, 2)
        got, unflushed, band, normal = self._priors(ta, self.H)
        assert band > 0 and normal > 0
        lowers = []
        for prior in (got, unflushed):
            prior.flat[::len(ta) + 1] -= self.H.noise_var[ta.types]
            prior.flat[::len(ta) + 1] += 1e-10
            lowers.append(chol_spd(prior, "synthetic prior").lower)
        rng = np.random.default_rng(0)
        for _ in range(5):
            z = rng.standard_normal(len(ta))
            assert np.array_equal(lowers[0] @ z, lowers[1] @ z)

    def test_single_output_inverse(self):
        h = self.H.single_output(0)
        ta = self._grid(h, 1)
        got, unflushed, band, normal = self._priors(ta, h)
        assert band > 0 and normal > 0
        inverses = [spd_inverse(prior, "single-output pool prior")
                    for prior in (got, unflushed)]
        assert np.array_equal(np.tril(inverses[0]), np.tril(inverses[1]))


class TestHyperparams:
    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ConfigError):
            Hyperparams(
                signal_var=[1.0, -1.0], noise_var=[0.1, 0.1],
                latent_prec_inv=[0.1], smooth_prec_inv=[[0.1], [0.1]],
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ConfigError):
            Hyperparams(
                signal_var=[1.0, 1.0], noise_var=[0.1],
                latent_prec_inv=[0.1], smooth_prec_inv=[[0.1], [0.1]],
            )

    def test_rejects_bad_target(self):
        with pytest.raises(ConfigError):
            Hyperparams(
                signal_var=[1.0], noise_var=[0.1],
                latent_prec_inv=[0.1], smooth_prec_inv=[[0.1]],
                target_type=2,
            )

    def test_rejects_zero_dimensions(self):
        with pytest.raises(ConfigError, match="at least one dimension"):
            Hyperparams(signal_var=[1.0], noise_var=[0.1], latent_prec_inv=[],
                        smooth_prec_inv=np.empty((1, 0)))

    @pytest.mark.parametrize("field,value", [
        ("signal_var", [1.0, np.inf]),
        ("noise_var", [np.nan, 0.1]),
        ("smooth_prec_inv", [[0.1], [0.0]]),
    ])
    def test_rejects_non_finite_or_zero(self, field, value):
        kw = dict(signal_var=[1.0, 1.0], noise_var=[0.1, 0.1],
                  latent_prec_inv=[0.1], smooth_prec_inv=[[0.1], [0.1]])
        kw[field] = value
        with pytest.raises(ConfigError, match="finite and strictly positive"):
            Hyperparams(**kw)

    def test_single_output_reproduces_the_type_kernel(self, rng):
        pts = [as_tuple([v], 1) for v in rng.uniform(0, 2, 5)]
        single = H2.single_output(1)
        remapped = [as_tuple(p.location, 0) for p in pts]
        assert single.n_types == 1 and single.target_type == 0
        np.testing.assert_allclose(
            cov(remapped, remapped, single), cov(pts, pts, H2), rtol=1e-12
        )

    def test_rejects_mixed_dimension_tuple(self):
        with pytest.raises(DomainError):
            H2.validate_tuple(as_tuple([0.0, 1.0], 0))

    @pytest.mark.parametrize("type_index", [-1, 2])
    def test_rejects_type_index_out_of_range(self, type_index):
        with pytest.raises(DomainError, match=rf"^type index {type_index} out of range \[0, 2\)$"):
            H2.validate_tuple(as_tuple([0.0], type_index))


@pytest.mark.parametrize("coords, shown", [
    ([np.nan], "(nan,)"), ([0.0, np.inf], "(0.0, inf)"), (-np.inf, "(-inf,)"),
])
def test_as_tuple_rejects_non_finite_coordinates(coords, shown):
    with pytest.raises(DomainError, match=rf"^non-finite coordinates: {re.escape(shown)}$"):
        as_tuple(coords, 0)
