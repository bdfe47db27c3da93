import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import oracles
from mogpal import (
    ConfigError,
    DomainError,
    Hyperparams,
    InducingSet,
    ModelBuildError,
    as_tuple,
    build_cache,
    build_model,
    kernels,
    pitc_posterior,
    select_inducing,
)
from mogpal.kernels import TupleArray, cov_matrix, latent_cross_matrix
from mogpal.linalg import spd_info_in_place
from mogpal.pitc import RESIDUAL_CHUNK, fill_residual, sparse_cov
from conftest import random_instance

H1 = Hyperparams(
    signal_var=[1.0], noise_var=[0.2],
    latent_prec_inv=[0.15], smooth_prec_inv=[[0.1]],
)


def _model_1type(n=6, m=3, seed=0, spread=1.0):
    rng = np.random.default_rng(seed)
    cands = [as_tuple([x], 0) for x in rng.uniform(0, spread, n)]
    inducing = select_inducing(np.array([t.location for t in cands]), m, seed=seed)
    return build_model(H1, inducing, {0: cands})


def _own(model, i):
    return model.candidates.take(model.candidates.indices_of_type(i))


def _type_blocks(model, i):
    """Type ``i``'s ``(W, G, prior_var, R)`` built afresh from the kernels,
    without factoring anything.  ``G`` is the type's own Fortran-ordered
    solve, the one ``build_model`` fills ``R`` from."""
    ta = _own(model, i)
    w = latent_cross_matrix(ta, model.inducing.locations, model.h)
    g = model.kuu_factor.solve(w.T)
    r = np.empty((len(ta), len(ta)))
    prior_var = np.empty(len(ta))
    fill_residual(model.h, ta, w, g, r, prior_var)
    return w, g, prior_var, r


class TestSelectInducing:
    def test_all_points_are_centers(self, rng):
        pts = rng.uniform(0, 1, size=(5, 2))
        ind = select_inducing(pts, 5, seed=3)
        assert sorted(map(tuple, ind.locations.tolist())) == sorted(
            map(tuple, pts.tolist())
        )

    def test_two_separated_clusters(self):
        a = np.array([[0.0], [0.1], [0.2], [0.3], [0.4]])
        b = a + 100.0
        ind = select_inducing(np.vstack([a, b]), 2, seed=1)
        centers = sorted(ind.locations[:, 0].tolist())
        assert centers[0] == pytest.approx(0.2)
        assert centers[1] == pytest.approx(100.2)

    def test_seed_determinism(self, rng):
        pts = rng.uniform(0, 1, size=(30, 2))
        a = select_inducing(pts, 7, seed=42)
        b = select_inducing(pts, 7, seed=42)
        assert np.array_equal(a.locations, b.locations)

    def test_guard(self, rng):
        with pytest.raises(ConfigError):
            select_inducing(rng.uniform(0, 1, size=(4, 1)), 5, seed=0)

    @pytest.mark.parametrize("m", [0, -1])
    def test_rejects_fewer_than_one(self, rng, m):
        with pytest.raises(ConfigError, match="at least one"):
            select_inducing(rng.uniform(0, 1, size=(4, 1)), m, seed=0)

    @pytest.mark.parametrize("seed, dim, n, m", [(1511, 2, 33, 10), (6626, 1, 33, 12)])
    def test_an_emptied_cluster_takes_the_worst_fit_point(self, seed, dim, n, m):
        # Lloyd's second iteration empties a cluster of these seeded inputs;
        # the repair moves its center onto the worst-fit candidate, so every
        # inducing location is still the nearest one to some candidate
        pts = np.random.default_rng(seed).uniform(0.0, 1.0, (n, dim))
        locs = select_inducing(pts, m, seed=seed).locations
        nearest = np.argmin(((pts[:, None, :] - locs[None]) ** 2).sum(axis=2), axis=1)
        assert np.bincount(nearest, minlength=m).min() >= 1

    def test_duplicates_collapsed(self):
        pts = np.array([[0.0], [0.0], [1.0], [1.0]])
        ind = select_inducing(pts, 2, seed=0)
        assert sorted(ind.locations[:, 0].tolist()) == [0.0, 1.0]


class TestBuildModel:
    def test_duplicate_inducing_rejected(self):
        with pytest.raises(ModelBuildError):
            InducingSet(locations=[[0.1], [0.1]])

    def test_rebuild_identical(self):
        m1 = _model_1type()
        m2 = _model_1type()
        assert np.array_equal(m1.kuu, m2.kuu)
        for i in m1.R:
            assert np.array_equal(m1.R[i], m2.R[i])

    @pytest.mark.parametrize("dim", [1, 2])
    def test_blocks_bitwise_from_reference_kernel(self, dim):
        model, _ = oracles.random_instance(31 + dim, n_per_type=(12, 9, 7), dim=dim, n_inducing=4)
        for i, rows in model.type_slices.items():
            ta = _own(model, i)
            c = oracles.cov_matrix(ta, ta, model.h)
            g = _type_blocks(model, i)[1]
            assert np.array_equal(model.R[i], c - model.W[rows] @ g)
            assert np.array_equal(model.prior_var[rows], np.diag(c))

    def test_keeps_no_prior_block(self):
        # per type the residual is the only candidate-by-candidate array
        model, _ = oracles.random_instance(33, n_per_type=(12, 9), n_inducing=4)
        assert not hasattr(model, "C")
        sizes = {rows.stop - rows.start for rows in model.type_slices.values()}
        square = []
        for f in dataclasses.fields(model):
            value = getattr(model, f.name)
            items = value.items() if isinstance(value, dict) else [(None, value)]
            square += [
                (f.name, key) for key, arr in items
                if isinstance(arr, np.ndarray) and arr.ndim == 2
                and arr.shape[0] == arr.shape[1] and arr.shape[0] in sizes
            ]
        assert sorted(square) == [("R", i) for i in sorted(model.type_slices)]

    def test_single_inducing_scalar(self):
        model = _model_1type(m=1)
        expected = oracles.gd([0.0], list(H1.latent_prec_inv))
        assert model.kuu[0, 0] == pytest.approx(expected, rel=1e-14)

    def test_duplicate_candidates_rejected(self):
        p = as_tuple([0.3], 0)
        ind = InducingSet(locations=[[0.5]])
        with pytest.raises(ModelBuildError):
            build_model(H1, ind, {0: [p, p]})

    def test_empty_target_pool_rejected(self):
        ind = InducingSet(locations=[[0.5]])
        with pytest.raises(ModelBuildError):
            build_model(H1, ind, {0: []})

    def test_inducing_set_needs_a_location(self):
        with pytest.raises(ModelBuildError, match="^inducing set must contain at least one "
                                                  "location$"):
            InducingSet(locations=np.empty((0, 1)))

    @pytest.mark.parametrize("per_type, inducing, message", [
        ({0: [([0.3], 0)], 1: [([0.4], 1)]}, [[0.5]], r"^candidate type 1 out of range \[0, 1\)$"),
        ({0: [([0.3], 0)], -1: []}, [[0.5]], r"^candidate type -1 out of range \[0, 1\)$"),
        ({0: [([0.3], 0)]}, [[0.5, 0.5]],
         "^inducing locations are 2-dimensional, model expects 1$"),
    ])
    def test_refuses_a_pool_or_inducing_set_off_the_model(self, per_type, inducing, message):
        cands = {i: [as_tuple(*p) for p in tuples] for i, tuples in per_type.items()}
        with pytest.raises(ConfigError, match=message):
            build_model(H1, InducingSet(locations=inducing), cands)

    def test_refuses_a_tuple_listed_under_another_type(self):
        h = Hyperparams(signal_var=[1.0, 0.8], noise_var=[0.2, 0.1],
                        latent_prec_inv=[0.15], smooth_prec_inv=[[0.1], [0.1]])
        p = as_tuple([0.3], 1)
        with pytest.raises(ConfigError, match=f"^tuple {re.escape(repr(p))} listed under type 0$"):
            build_model(h, InducingSet(locations=[[0.5]]), {0: [p], 1: [as_tuple([0.4], 1)]})

    def test_refuses_a_pool_tuple_of_another_dimension(self):
        message = r"^location \(0\.3, 0\.1\) has dimension 2, model expects 1$"
        with pytest.raises(DomainError, match=message):
            build_model(H1, InducingSet(locations=[[0.5]]),
                        {0: [as_tuple([0.4], 0), as_tuple([0.3, 0.1], 0)]})

    def test_singular_inducing_covariance_is_a_build_error(self):
        # in 1000 dimensions the latent density's (2 pi)^(-d/2) underflows to
        # zero, so K_uu is all zeros and a jitter of a share of its trace is 0
        d = 1000
        h = Hyperparams(signal_var=[1.0], noise_var=[0.2], latent_prec_inv=[1.0] * d,
                        smooth_prec_inv=[[0.1] * d])
        with pytest.raises(ModelBuildError, match="^inducing covariance is singular: "):
            build_model(h, InducingSet(locations=np.eye(2, d)), {0: [as_tuple(np.zeros(d), 0)]})

    def test_low_noise_warns(self):
        h = Hyperparams(
            signal_var=[1.0], noise_var=[0.01],
            latent_prec_inv=[0.15], smooth_prec_inv=[[0.1]],
        )
        ind = InducingSet(locations=[[0.5]])
        with pytest.warns(UserWarning, match="noise"):
            build_model(h, ind, {0: [as_tuple([0.3], 0)]})


def _cholesky_summary(model):
    """The target summary through a copying Cholesky factor of the target R."""
    t = model.h.target_type
    low = np.linalg.cholesky(model.R[t])
    w = model.W[model.type_slices[t]]
    return w.T @ scipy.linalg.cho_solve((low, True), w)


def _refactor(model):
    """Factor the target R of a built model in place again, as
    ``build_model`` does; returns its information."""
    t = model.h.target_type
    ta, w = _own(model, t), model.W[model.type_slices[t]]
    g = model.kuu_factor.solve(w.T)
    return spd_info_in_place(model.R[t], w, lambda r: fill_residual(model.h, ta, w, g, r))


class TestTargetSummaryInPlace:
    # a target type spanning two residual chunks and two auxiliary types
    SHAPE = dict(n_per_type=(300, 40, 27), n_inducing=5)

    def test_blocks_unchanged_by_factorization(self):
        model, cache = oracles.random_instance(61, **self.SHAPE)
        for i, rows in model.type_slices.items():
            w, g, prior_var, r = _type_blocks(model, i)
            assert np.array_equal(model.W[rows], w)
            assert np.array_equal(model.G[:, rows], g)
            assert np.array_equal(model.prior_var[rows], prior_var)
            assert np.array_equal(model.R[i], r)
        assert np.array_equal(build_cache(model).lower, cache.lower)
        saved = {i: r.copy() for i, r in model.R.items()}
        assert np.array_equal(_refactor(model), model.target_summary)
        for i, r in model.R.items():
            assert np.array_equal(r, saved[i])

    def test_summary_matches_copying_cholesky(self):
        for seed in (62, 63):
            model, _ = oracles.random_instance(seed, dim=2, **self.SHAPE)
            expected = _cholesky_summary(model)
            gap = np.max(np.abs(model.target_summary - expected))
            assert gap <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 511, 513])
    def test_chunk_boundaries(self, n):
        rng = np.random.default_rng(n)
        cands = [as_tuple([x], 0) for x in rng.uniform(0, 10, n)]
        inducing = InducingSet(locations=np.linspace(0, 10, 3)[:, None])
        model = build_model(H1, inducing, {0: cands})
        ta = _own(model, 0)
        c = oracles.cov_matrix(ta, ta, H1)
        assert np.array_equal(model.prior_var, np.diag(c))
        _, g, _, fresh = _type_blocks(model, 0)
        for start in range(0, n, RESIDUAL_CHUNK):
            rows = np.arange(start, min(start + RESIDUAL_CHUNK, n))
            expected = c[rows] - model.W[rows] @ g
            assert np.array_equal(model.R[0][rows], expected)
        # the factored R was refilled with the bits of a fresh build
        assert np.array_equal(model.R[0], fresh)

    def test_setup_holds_no_second_residual(self):
        # a full W G temporary, a Cholesky factor or a Fortran copy of R
        # each add n^2 doubles; the chunked build and the in-place factor
        # add a few chunks of rows
        n, h = 1000, Hyperparams(
            signal_var=[1.0], noise_var=[0.2],
            latent_prec_inv=[0.15, 0.1], smooth_prec_inv=[[0.1, 0.2]],
        )
        rng = np.random.default_rng(5)
        cands = [as_tuple(x, 0) for x in rng.uniform(0, 3, size=(n, 2))]
        inducing = select_inducing(np.array([t.location for t in cands]), 20, seed=5)
        tracemalloc.start()
        try:
            model = build_model(h, inducing, {0: cands})
            build_cache(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= model.R[0].nbytes + 3 * RESIDUAL_CHUNK * n * 8


class TestPoolLayout:
    """The model is the one owner of the pool layout: W and G over the whole
    pool, each type a contiguous range, and a cache that adds no copy."""

    SHAPE = dict(n_per_type=(9, 7, 5, 6), n_inducing=4, target_type=2)

    def test_type_slices_tile_pool_in_type_order(self):
        model, _ = oracles.random_instance(41, **self.SHAPE)
        slices = list(model.type_slices.items())
        assert [i for i, _ in slices] == sorted(model.type_slices)
        covered = [k for _, s in slices for k in range(s.start, s.stop)]
        assert covered == list(range(len(model.candidates)))
        for i, s in slices:
            assert np.all(model.candidates.types[s] == i)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_w_and_g_bitwise_from_fresh_kernels(self, dim):
        model, _ = oracles.random_instance(42, dim=dim, **self.SHAPE)
        for i, s in model.type_slices.items():
            w = latent_cross_matrix(_own(model, i), model.inducing.locations, model.h)
            assert np.array_equal(model.W[s], w)
            assert np.array_equal(model.G[:, s], model.kuu_factor.solve(w.T))

    def test_g_is_the_only_pool_wide_solve(self):
        model, cache = oracles.random_instance(43, **self.SHAPE)
        m, n = model.n_inducing, len(model.candidates)
        assert model.W.shape == (n, m)
        assert model.G.shape == (m, n) and model.G.flags.c_contiguous
        wide = []
        for f in dataclasses.fields(model):
            value = getattr(model, f.name)
            items = value.items() if isinstance(value, dict) else [(None, value)]
            wide += [
                (f.name, key) for key, arr in items
                if isinstance(arr, np.ndarray) and arr.shape == (m, n)
            ]
        assert wide == [("G", None)]
        assert cache.lower.shape == (m, m)


def _lowrank(model, a, b):
    return oracles.lowrank_cov(a, b, model.h, model.inducing.locations)


def _sparse_cov(model, a, b):
    """``sparse_cov`` of tuples ``a`` with pool tuples ``b``."""
    return sparse_cov(model, TupleArray.build(a, model.h), model.positions(b))


class TestGammaLambda:
    """The two parts of the sparse covariance: the low rank through the
    inducing measurements and the per-type residual blocks."""

    def test_gamma_psd_low_rank(self, rng):
        model, _ = oracles.random_instance(5, n_per_type=(5, 5), n_inducing=2)
        a = list(model.candidates.tuples)
        g = _sparse_cov(model, a, a) - scipy.linalg.block_diag(
            *(model.R[i] for i in sorted(model.R))
        )
        eig = np.linalg.eigvalsh(g)
        assert eig.min() > -1e-10
        assert np.sum(eig > 1e-10) <= 2

    def test_gamma_far_from_inducing(self):
        # a shared location still couples two types under the exact prior,
        # but far from every inducing location the sparse model cannot
        model, _ = random_instance(5)
        far0, far1 = as_tuple([1e4], 0), as_tuple([1e4], 1)
        assert oracles.out_cov(far0, far1, model.h) > 0.1
        assert abs(oracles.sparse_cov(model, [far0], [far1])[0, 0]) < 1e-200

    def test_gamma_transpose(self, rng):
        model, _ = random_instance(6)
        a = model.candidates.tuples[:3]
        b = model.candidates.tuples[3:6]
        np.testing.assert_allclose(
            _sparse_cov(model, a, b), _sparse_cov(model, b, a).T, rtol=1e-12, atol=1e-15
        )

    def test_lambda_single_type_full_residual(self):
        model = _model_1type()
        a = list(model.candidates.tuples)
        expected = oracles.exact_cov(a, a, H1) - _lowrank(model, a, a)
        np.testing.assert_allclose(model.R[0], expected, rtol=1e-10, atol=1e-12)

    def test_lambda_cross_type_exactly_zero(self):
        # given the inducing measurements the types are independent: across
        # types the sparse covariance is the low rank alone
        model, _ = random_instance(7, n_per_type=(3, 3))
        a = list(model.candidates.tuples)
        resid = _sparse_cov(model, a, a) - _lowrank(model, a, a)
        types = np.array([t.type_index for t in a])
        cross = types[:, None] != types[None, :]
        np.testing.assert_allclose(resid[cross], 0.0, atol=1e-12)

    def test_lambda_diag_floor(self, rng):
        model, _ = random_instance(9, n_per_type=(6, 6))
        for i, r in model.R.items():
            assert np.all(np.diag(r) >= model.h.noise_var[i] - 1e-10)


class TestPitcPosterior:
    def test_single_type_matches_exact(self):
        # exactness holds for any inducing set when there is one type
        for seed in range(8):
            rng = np.random.default_rng(seed)
            model = _model_1type(n=8, m=2, seed=seed)
            x = model.candidates.tuples[:5]
            z = [as_tuple([v], 0) for v in rng.uniform(2, 3, size=3)]
            y = rng.normal(size=5)
            sparse = pitc_posterior(model, x, y, z)
            np.testing.assert_allclose(
                sparse.mean, oracles.conditional_mean_exact(z, x, y, H1),
                rtol=1e-8, atol=1e-12,
            )

    def test_empty_conditioning(self, rng):
        model, _ = random_instance(3, n_per_type=(4, 4))
        z = model.candidates.tuples[:4]
        pred = pitc_posterior(model, [], [], z)
        np.testing.assert_array_equal(pred.mean, np.zeros(4))

    @pytest.mark.parametrize("n_per_type, target_type, shapes", [
        ((20, 20), 0,
         [((0, 1), 1), ((0, 1), 8), ((0, 1), 35), ((1,), 1), ((0,), 8), ((1,), 15)]),
        # target type 1 is queried but observed only through types 0 and 2
        ((12, 10, 8), 1, [((0, 2), 1), ((0, 2), 14), ((2,), 6), ((0, 1, 2), 25)]),
    ], ids=["2-types", "3-types"])
    def test_fast_equals_dense(self, n_per_type, target_type, shapes):
        # the Woodbury posterior mean against the dense oracle, for
        # conditioning sets of one tuple, fewer and more than 3m tuples
        # (m = 4), and of a single type or mixed types; queried at pool
        # tuples and, as an experiment's test split is, off the pool
        for seed in range(6):
            r = np.random.default_rng(seed)
            model, _ = oracles.random_instance(
                seed, n_per_type=n_per_type, n_inducing=4, target_type=target_type
            )
            h, u = model.h, model.inducing.locations
            off_pool = [as_tuple(r.uniform(0, 1.5, size=1), i)
                        for i in range(len(n_per_type)) for _ in range(2)]
            for types, size in shapes:
                pool = [t for t in model.candidates.tuples if t.type_index in types]
                x = [pool[i] for i in r.permutation(len(pool))[:size]]
                rest = [t for t in model.candidates.tuples if t not in set(x)]
                z = [rest[i] for i in r.permutation(len(rest))[:5]] + off_pool
                y = r.normal(size=len(x))
                pred = pitc_posterior(model, x, y, z)
                np.testing.assert_allclose(
                    pred.mean, oracles.conditional_mean_blocked(z, x, y, h, u),
                    rtol=1e-8, atol=1e-10,
                )

    def test_kernel_reaches_the_query_rows_alone(self, monkeypatch):
        # the observed side of the cross covariance is read from the model
        model, _ = oracles.random_instance(17, n_per_type=(6, 6), n_inducing=3)
        x = model.candidates.tuples[:5]
        z = [model.candidates.tuples[8], as_tuple([0.3], 0), as_tuple([0.7], 1)]
        calls, real = [], kernels.latent_cross_matrix

        def counted(a, u_coords, h):
            calls.append(a)
            return real(a, u_coords, h)

        monkeypatch.setattr(kernels, "latent_cross_matrix", counted)
        pitc_posterior(model, x, np.ones(5), z)
        assert [ta.tuples for ta in calls] == [tuple(z)]

    def test_matches_blocked_oracle(self, rng):
        model, _ = random_instance(13, n_per_type=(4, 4))
        cands = list(model.candidates.tuples)
        x, z = cands[:4], cands[4:7]
        y = rng.normal(size=4)
        pred = pitc_posterior(model, x, y, z)
        u = model.inducing.locations
        h = model.h
        c_xx = oracles.blocked_cov(x, x, h, u)
        c_zx = oracles.blocked_cov(z, x, h, u)
        np.testing.assert_allclose(
            pred.mean, c_zx @ np.linalg.solve(c_xx, y), rtol=1e-9, atol=1e-12
        )

    def test_observed_tuples_must_be_pool_candidates(self):
        model = _model_1type()
        x = [model.candidates.tuples[0], as_tuple([5.0], 0)]
        with pytest.raises(DomainError, match="not in the candidate pool"):
            pitc_posterior(model, x, [0.0, 0.0], [as_tuple([6.0], 0)])

    def test_duplicate_observations_rejected(self):
        model = _model_1type()
        p = model.candidates.tuples[0]
        z = [as_tuple([5.0], 0)]
        with pytest.raises(DomainError, match=re.escape(repr(p))):
            pitc_posterior(model, [p, p], [0.0, 0.0], z)

    def test_positions_follow_the_given_order(self):
        model = _model_1type()
        pool = model.candidates.tuples
        np.testing.assert_array_equal(model.positions([pool[3], pool[0], pool[5]]), [3, 0, 5])
        assert model.positions([]).size == 0

    def test_positions_reject_a_missing_tuple(self):
        model = _model_1type()
        far = as_tuple([5.0], 0)
        with pytest.raises(DomainError, match=re.escape(repr(far))):
            model.positions([model.candidates.tuples[0], far])

    def test_positions_reject_a_repeated_tuple(self):
        model = _model_1type()
        p = model.candidates.tuples[2]
        with pytest.raises(DomainError, match=re.escape(repr(p))):
            model.positions([p, model.candidates.tuples[0], p])

    def test_rejects_overlapping_query(self):
        model = _model_1type()
        p = model.candidates.tuples[0]
        with pytest.raises(DomainError, match="overlap"):
            pitc_posterior(model, [p], [0.0], [p])

    def test_rejects_a_query_of_another_dimension(self):
        model = _model_1type()
        message = r"^location \(5\.0, 1\.0\) has dimension 2, model expects 1$"
        with pytest.raises(DomainError, match=message):
            pitc_posterior(model, model.candidates.tuples[:1], [0.0], [as_tuple([5.0, 1.0], 0)])

    def test_rejects_length_mismatch(self):
        model = _model_1type()
        with pytest.raises(DomainError, match="1 observations but 2 values"):
            pitc_posterior(model, model.candidates.tuples[:1], [0.0, 1.0], [as_tuple([5.0], 0)])


class TestSparseCov:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_kernel_built_reference(self, dim):
        # queries in and off the pool against the reference that builds
        # both sides from the kernels
        model, _ = oracles.random_instance(
            24 + dim, n_per_type=(7, 6, 5), dim=dim, n_inducing=4, target_type=2
        )
        r = np.random.default_rng(dim)
        pool = list(model.candidates.tuples)
        off_pool = [as_tuple(r.uniform(0, 1.5, size=dim), i) for i in (0, 1, 2, 2)]
        b = [pool[k] for k in r.permutation(len(pool))[:9]]
        for a in (pool, off_pool, off_pool + pool[:4]):
            np.testing.assert_allclose(
                _sparse_cov(model, a, b), oracles.sparse_cov(model, a, b),
                rtol=1e-12, atol=1e-15,
            )

    def test_same_type_exact_cross_type_lowrank(self, rng):
        model, _ = random_instance(23, n_per_type=(3, 3))
        a = list(model.candidates.tuples)
        c = _sparse_cov(model, a, a)
        exact = cov_matrix(model.candidates, model.candidates, model.h)
        g = _lowrank(model, a, a)
        types = np.array([t.type_index for t in a])
        same = types[:, None] == types[None, :]
        np.testing.assert_allclose(c[same], exact[same], rtol=1e-12)
        np.testing.assert_allclose(c[~same], g[~same], rtol=1e-12)
