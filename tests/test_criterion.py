import itertools
import math

import numpy as np
import pytest

import oracles
from mogpal import (
    DomainError,
    GainEvaluator,
    as_tuple,
    build_cache,
    build_model,
    criterion_F,
    greedy_gain,
    joint_entropy,
    mi_inducing_given,
    pitc_posterior,
    sparse_cov,
)
from mogpal.kernels import LOG_2PI_E
from conftest import random_instance


def _entropy_given_inducing(model, cache, x):
    """The first term of criterion_F, H(Y_{x_t} | inducing measurements):
    the objective plus the remaining information minus the constant."""
    return criterion_F(model, cache, x) + mi_inducing_given(model, cache, x) - cache.f_constant


def _residual_var(p, model):
    h, u = model.h, model.inducing.locations
    return oracles.out_cov(p, p, h) - oracles.lowrank_cov([p], [p], h, u)[0, 0]


class TestEntropyGivenInducing:
    def test_empty_set_is_zero(self):
        model, cache = random_instance(0)
        assert _entropy_given_inducing(model, cache, []) == pytest.approx(0.0, abs=1e-12)

    def test_single_tuple_formula_and_floor(self):
        model, cache = random_instance(1)
        p = model.candidate_list([0])[0]
        val = _entropy_given_inducing(model, cache, [p])
        resid = _residual_var(p, model)
        assert val == pytest.approx(0.5 * math.log(2 * math.pi * math.e * resid))
        floor = 0.5 * math.log(2 * math.pi * math.e * model.h.noise_var[0])
        assert val >= floor - 1e-12

    def test_far_tuple_adds_marginal_entropy(self):
        small, _ = random_instance(2, n_per_type=(4, 4))
        far = as_tuple([1e5], 0)
        model = build_model(
            small.h, small.inducing,
            {0: small.candidate_list([0]) + [far], 1: small.candidate_list([1])},
        )
        cache = build_cache(model)
        near = model.candidate_list([0])[:2]
        base = _entropy_given_inducing(model, cache, near)
        expected = base + 0.5 * math.log(2 * math.pi * math.e * _residual_var(far, model))
        assert _entropy_given_inducing(model, cache, near + [far]) == pytest.approx(
            expected, rel=1e-10
        )

    def test_auxiliary_tuples_add_no_target_entropy(self):
        model, cache = random_instance(3)
        near = model.candidate_list([0])[:2]
        aux = model.candidate_list([1])[0]
        assert _entropy_given_inducing(model, cache, near + [aux]) == pytest.approx(
            _entropy_given_inducing(model, cache, near), rel=1e-10
        )


class TestMutualInformation:
    def test_fully_selected_target_pool_is_zero(self):
        model, cache = random_instance(4, n_per_type=(4, 4))
        all_targets = model.candidate_list([0])
        assert mi_inducing_given(model, cache, all_targets) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_nonnegative(self, rng):
        for seed in range(10):
            model, cache = random_instance(seed, n_per_type=(4, 3))
            cands = model.candidate_list()
            r = np.random.default_rng(seed)
            k = int(r.integers(0, 5))
            x = [cands[i] for i in r.choice(len(cands), size=k, replace=False)]
            assert mi_inducing_given(model, cache, x) >= 0.0

    def test_matches_dense_oracle(self):
        for seed in range(6):
            model, cache = random_instance(seed + 30, n_per_type=(5, 4))
            h, u = model.h, model.inducing.locations
            cands = model.candidate_list()
            r = np.random.default_rng(seed)
            x = [cands[i] for i in r.choice(len(cands), size=4, replace=False)]
            rest = [
                t for t in model.candidate_list([0]) if t not in set(x)
            ]
            expected = oracles.latent_entropy_given(x, h, u) - oracles.latent_entropy_given(
                x + rest, h, u
            )
            assert mi_inducing_given(model, cache, x) == pytest.approx(
                expected, abs=1e-6
            )


class TestCriterionF:
    def test_empty_set_exactly_zero(self):
        for seed in range(5):
            model, cache = random_instance(seed, n_per_type=(5, 4))
            assert criterion_F(model, cache, []) == 0.0

    def test_nondecreasing_along_chains(self):
        for seed in range(6):
            model, cache = random_instance(seed + 60, n_per_type=(4, 4))
            r = np.random.default_rng(seed)
            order = list(r.permutation(len(model.candidate_list())))
            cands = model.candidate_list()
            prev = 0.0
            chain = []
            for i in order[:6]:
                chain.append(cands[i])
                val = criterion_F(model, cache, chain)
                assert val >= prev - 1e-9
                prev = val

    def test_matches_dense_oracle(self):
        for seed in range(6):
            model, cache = random_instance(seed + 90, n_per_type=(4, 3))
            cands = model.candidate_list()
            r = np.random.default_rng(seed)
            k = int(r.integers(1, 6))
            x = [cands[i] for i in r.choice(len(cands), size=k, replace=False)]
            assert criterion_F(model, cache, x) == pytest.approx(
                oracles.dense_F(x, model), abs=1e-8
            )

    def test_cache_and_direct_agree(self):
        # criterion_F reads the cached target-pool summary; the dense oracle
        # computes the same objective directly, rebuilding it from scratch
        model, cache = random_instance(7, n_per_type=(5, 5))
        cands = model.candidate_list()
        r = np.random.default_rng(7)
        x = [cands[i] for i in r.choice(len(cands), size=5, replace=False)]
        assert criterion_F(model, cache, x) == pytest.approx(
            oracles.dense_F(x, model), abs=1e-8
        )

    def test_telescoping(self):
        for seed in range(5):
            model, cache = random_instance(seed + 120, n_per_type=(4, 4))
            cands = model.candidate_list()
            r = np.random.default_rng(seed)
            order = r.permutation(len(cands))[:6]
            total, chain = 0.0, []
            for i in order:
                total += greedy_gain(model, cache, chain, cands[i])
                chain.append(cands[i])
            assert total == pytest.approx(criterion_F(model, cache, chain), abs=1e-6)

    def test_multi_target_types(self):
        # two target types plus one auxiliary: same identities must hold
        model, cache = random_instance(
            11, n_per_type=(3, 3, 3), target_types=(0, 2)
        )
        assert criterion_F(model, cache, []) == 0.0
        cands = model.candidate_list()
        r = np.random.default_rng(11)
        chain, total = [], 0.0
        for i in r.permutation(len(cands))[:5]:
            total += greedy_gain(model, cache, chain, cands[i])
            chain.append(cands[i])
            assert criterion_F(model, cache, chain) == pytest.approx(
                oracles.dense_F(chain, model), abs=1e-8
            )
        assert total == pytest.approx(criterion_F(model, cache, chain), abs=1e-6)


class TestGreedyGain:
    def test_equals_objective_difference(self):
        checked = 0
        for seed in range(25):
            shape = [(5, 4), (4, 4, 3), (8,)][seed % 3]
            tt = (0,) if len(shape) < 3 else (0, 1)
            model, cache = random_instance(seed, n_per_type=shape, target_types=tt)
            cands = model.candidate_list()
            r = np.random.default_rng(seed)
            k = int(r.integers(0, min(5, len(cands) - 1)))
            x = [cands[i] for i in r.choice(len(cands), size=k, replace=False)]
            rest = [t for t in cands if t not in set(x)]
            cand = rest[int(r.integers(len(rest)))]
            gain = greedy_gain(model, cache, x, cand)
            direct = criterion_F(model, cache, x + [cand]) - criterion_F(model, cache, x)
            assert gain == pytest.approx(direct, abs=1e-6)
            checked += 1
        assert checked == 25

    def test_target_gain_on_empty_state_is_prior_entropy(self):
        model, cache = random_instance(40, n_per_type=(4, 4))
        p = model.candidate_list([0])[2]
        expected = 0.5 * (LOG_2PI_E + math.log(oracles.out_cov(p, p, model.h)))
        assert greedy_gain(model, cache, [], p) == pytest.approx(expected, rel=1e-10)

    def test_auxiliary_gain_nonnegative(self):
        for seed in range(8):
            model, cache = random_instance(seed + 200, n_per_type=(4, 4))
            cands = model.candidate_list()
            r = np.random.default_rng(seed)
            x = [cands[i] for i in r.choice(len(cands), size=3, replace=False)]
            for cand in model.candidate_list([1]):
                if cand in x:
                    continue
                assert greedy_gain(model, cache, x, cand) >= -1e-10

    def test_rejects_selected_candidate(self):
        model, cache = random_instance(41)
        p = model.candidate_list()[0]
        with pytest.raises(DomainError):
            greedy_gain(model, cache, [p], p)


class TestOldCriterion:
    def test_target_fully_selected_single_type(self):
        model, cache = random_instance(50, n_per_type=(5,))
        assert oracles.old_criterion(model, model.candidate_list()) == 0.0

    def test_single_type_max_entropy_reduction(self):
        # with one type, ranking subsets by prior entropy H(Y_X) reverses the
        # ranking by posterior entropy of the remainder
        model, cache = random_instance(51, n_per_type=(7,))
        cands = model.candidate_list()
        h = model.h
        from mogpal import cov_matrix

        subsets = list(itertools.combinations(range(len(cands)), 2))
        prior_h = []
        post_h = []
        for s in subsets:
            x = [cands[i] for i in s]
            prior_h.append(joint_entropy(cov_matrix(x, x, h)))
            post_h.append(oracles.old_criterion(model, x))
        assert np.argmax(prior_h) == np.argmin(post_h)
        # full equivalence: ordering agrees pairwise
        order_a = np.argsort(prior_h)
        order_b = np.argsort(post_h)[::-1]
        np.testing.assert_array_equal(order_a, order_b)

    def test_argmax_equivalence_with_objective(self):
        # the subset maximizing the augmented objective minimizes the
        # posterior entropy of the unsampled target pool
        for seed in range(8):
            model, cache = random_instance(seed + 300, n_per_type=(5, 4))
            cands = model.candidate_list()
            best_f, best_old = None, None
            for s in itertools.combinations(range(len(cands)), 2):
                x = [cands[i] for i in s]
                f = criterion_F(model, cache, x)
                o = oracles.old_criterion(model, x)
                if best_f is None or f > best_f[0]:
                    best_f = (f, s)
                if best_old is None or o < best_old[0]:
                    best_old = (o, s)
            assert best_f[1] == best_old[1]

    def test_value_identity_with_objective(self):
        # F and the old criterion sum to the prior entropy of the target pool
        model, cache = random_instance(60, n_per_type=(4, 4))
        cands = model.candidate_list()
        v_t = model.candidate_list([0])
        const = joint_entropy(sparse_cov(model, v_t, v_t))
        r = np.random.default_rng(60)
        for k in (0, 1, 3):
            x = [cands[i] for i in r.choice(len(cands), size=k, replace=False)]
            assert criterion_F(model, cache, x) + oracles.old_criterion(
                model, x
            ) == pytest.approx(const, abs=1e-8)

    def test_exact_variant_differs_but_runs(self):
        model, cache = random_instance(61, n_per_type=(4, 4))
        x = model.candidate_list()[:2]
        val = oracles.old_criterion(model, x, use_exact=True)
        assert np.isfinite(val)


class TestGainEvaluator:
    def test_batched_matches_single(self):
        model, cache = random_instance(70, n_per_type=(5, 5))
        cands = model.candidate_list()
        x = [cands[0], cands[7], cands[3]]
        ev = GainEvaluator(model, cache).set_state(x)
        gains = ev.gains()
        for i, cand in enumerate(cands):
            if cand in x:
                assert gains[i] == -np.inf
            else:
                direct = criterion_F(model, cache, x + [cand]) - criterion_F(
                    model, cache, x
                )
                assert gains[i] == pytest.approx(direct, abs=1e-6)

    def test_variances_match_posterior(self):
        model, cache = random_instance(71, n_per_type=(4, 4))
        cands = model.candidate_list()
        x = cands[:3]
        ev = GainEvaluator(model, cache).set_state(x)
        var = ev.var_given_selected()
        for i, cand in enumerate(cands):
            if cand in x:
                continue
            pred = pitc_posterior(model, x, np.zeros(3), [cand])
            assert var[i] == pytest.approx(pred.cov[0, 0], rel=1e-9)

    def test_incremental_variances_along_mixed_chain(self):
        # two target types (0, 2) and two auxiliary types (1, 3); the chain
        # mixes target and auxiliary picks, with repeats of each auxiliary
        # type so both the same-type residual and the cross-type low rank of
        # the augmented covariance are exercised
        model, cache = random_instance(
            72, n_per_type=(5, 4, 5, 4), target_types=(0, 2), n_inducing=4
        )
        h, u = model.h, model.inducing.locations
        by_type = {i: model.candidate_list([i]) for i in range(4)}
        chain = [
            by_type[1][0], by_type[0][1], by_type[1][2], by_type[3][0],
            by_type[2][3], by_type[3][1], by_type[1][3], by_type[0][4],
        ]
        targets = by_type[0] + by_type[2]
        aux_pos = {model.candidates.tuples[c]: p for p, c in enumerate(cache.aux_cols)}
        ev = GainEvaluator(model, cache).set_state([])
        for k, pick in enumerate(chain):
            ev.add(pick)
            x = chain[:k + 1]
            free = [t for t in model.candidate_list() if t not in x]
            idx = [model.tuple_index[t] for t in free]
            pred = pitc_posterior(model, x, np.zeros(len(x)), free)
            np.testing.assert_allclose(
                ev.var_given_selected()[idx], np.diag(pred.cov), rtol=1e-9, atol=0
            )
            free_aux = [t for t in free if t.type_index in (1, 3)]
            x_aux = [t for t in x if t.type_index in (1, 3)]
            dense = oracles.conditional_cov_blocked(free_aux, x_aux + targets, h, u)
            np.testing.assert_allclose(
                ev.var_given_augmented()[[aux_pos[t] for t in free_aux]],
                np.diag(dense), rtol=1e-9, atol=0,
            )
