import contextlib
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from mogpal import (
    DomainError,
    Hyperparams,
    IllConditionedError,
    as_tuple,
    build_cache,
    build_model,
    criterion,
    criterion_F,
    linalg,
    pitc,
)
from mogpal.criterion import GainEvaluator
from mogpal.kernels import LOG_2PI_E, NOISE_FLOOR, cov_matrix
from mogpal.linalg import chol_spd
from mogpal.pitc import InducingSet, sparse_cov
from mogpal.selector import TIE_ATOL
from conftest import random_instance


def _entropy_given_inducing(model, cache, x):
    """The first term of criterion_F, H(Y_{x_t} | inducing measurements):
    the objective plus the remaining information minus the constant."""
    remaining = oracles.mi_inducing_given(model, x)
    return (criterion_F(model, cache, x) + remaining
            - 0.5 * (cache.logdet - model.kuu_factor.logdet))


def _residual_var(p, model):
    h, u = model.h, model.inducing.locations
    return oracles.out_cov(p, p, h) - oracles.lowrank_cov([p], [p], h, u)[0, 0]


class TestEntropyGivenInducing:
    def test_empty_set_is_zero(self):
        model, cache = random_instance(0)
        assert _entropy_given_inducing(model, cache, []) == pytest.approx(0.0, abs=1e-12)

    def test_single_tuple_formula_and_floor(self):
        model, cache = random_instance(1)
        p = model.candidates.tuples[model.type_slices[0]][0]
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
            {0: [*small.candidates.tuples[small.type_slices[0]], far],
             1: small.candidates.tuples[small.type_slices[1]]},
        )
        cache = build_cache(model)
        near = model.candidates.tuples[model.type_slices[0]][:2]
        base = _entropy_given_inducing(model, cache, near)
        expected = base + 0.5 * math.log(2 * math.pi * math.e * _residual_var(far, model))
        assert _entropy_given_inducing(model, cache, [*near, far]) == pytest.approx(
            expected, rel=1e-10
        )

    def test_auxiliary_tuples_add_no_target_entropy(self):
        model, cache = random_instance(3)
        near = model.candidates.tuples[model.type_slices[0]][:2]
        aux = model.candidates.tuples[model.type_slices[1]][0]
        assert _entropy_given_inducing(model, cache, [*near, aux]) == pytest.approx(
            _entropy_given_inducing(model, cache, near), rel=1e-10
        )


class TestMutualInformation:
    def test_fully_selected_target_pool_is_zero(self):
        model, cache = random_instance(4, n_per_type=(4, 4))
        all_targets = list(model.candidates.tuples[model.type_slices[0]])
        assert oracles.mi_inducing_given(model, all_targets) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_nonnegative(self, rng):
        for seed in range(10):
            model, cache = random_instance(seed, n_per_type=(4, 3))
            cands = list(model.candidates.tuples)
            r = np.random.default_rng(seed)
            k = int(r.integers(0, 5))
            x = [cands[i] for i in r.choice(len(cands), size=k, replace=False)]
            assert oracles.mi_inducing_given(model, x) >= 0.0

    def test_matches_dense_oracle(self):
        for seed in range(6):
            model, cache = random_instance(seed + 30, n_per_type=(5, 4))
            h, u = model.h, model.inducing.locations
            cands = list(model.candidates.tuples)
            r = np.random.default_rng(seed)
            x = [cands[i] for i in r.choice(len(cands), size=4, replace=False)]
            rest = [
                t for t in model.candidates.tuples[model.type_slices[0]] if t not in set(x)
            ]
            expected = oracles.latent_entropy_given(x, h, u) - oracles.latent_entropy_given(
                x + rest, h, u
            )
            assert oracles.mi_inducing_given(model, x) == pytest.approx(
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
            order = list(r.permutation(len(list(model.candidates.tuples))))
            cands = list(model.candidates.tuples)
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
            cands = list(model.candidates.tuples)
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
        cands = list(model.candidates.tuples)
        r = np.random.default_rng(7)
        x = [cands[i] for i in r.choice(len(cands), size=5, replace=False)]
        assert criterion_F(model, cache, x) == pytest.approx(
            oracles.dense_F(x, model), abs=1e-8
        )

    def test_telescoping(self):
        for seed in range(5):
            model, cache = random_instance(seed + 120, n_per_type=(4, 4))
            cands = list(model.candidates.tuples)
            r = np.random.default_rng(seed)
            order = r.permutation(len(cands))[:6]
            total, chain = 0.0, []
            for i in order:
                total += oracles.greedy_gain(model, cache, chain, cands[i])
                chain.append(cands[i])
            assert total == pytest.approx(criterion_F(model, cache, chain), abs=1e-6)

    def test_last_type_targeted_after_two_auxiliary(self):
        # the target type last in the pool, after two auxiliary types: the
        # same identities must hold
        model, cache = oracles.random_instance(
            11, n_per_type=(3, 3, 3), target_type=2
        )
        assert criterion_F(model, cache, []) == 0.0
        cands = list(model.candidates.tuples)
        r = np.random.default_rng(11)
        chain, total = [], 0.0
        for i in r.permutation(len(cands))[:5]:
            total += oracles.greedy_gain(model, cache, chain, cands[i])
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
            tt = 0 if len(shape) < 3 else 1
            model, cache = oracles.random_instance(seed, n_per_type=shape, target_type=tt)
            cands = list(model.candidates.tuples)
            r = np.random.default_rng(seed)
            k = int(r.integers(0, min(5, len(cands) - 1)))
            x = [cands[i] for i in r.choice(len(cands), size=k, replace=False)]
            rest = [t for t in cands if t not in set(x)]
            cand = rest[int(r.integers(len(rest)))]
            gain = oracles.greedy_gain(model, cache, x, cand)
            direct = criterion_F(model, cache, x + [cand]) - criterion_F(model, cache, x)
            assert gain == pytest.approx(direct, abs=1e-6)
            checked += 1
        assert checked == 25

    def test_target_gain_on_empty_state_is_prior_entropy(self):
        model, cache = random_instance(40, n_per_type=(4, 4))
        p = model.candidates.tuples[model.type_slices[0]][2]
        expected = 0.5 * (LOG_2PI_E + math.log(oracles.out_cov(p, p, model.h)))
        assert oracles.greedy_gain(model, cache, [], p) == pytest.approx(expected, rel=1e-10)

    def test_auxiliary_gain_nonnegative(self):
        for seed in range(8):
            model, cache = random_instance(seed + 200, n_per_type=(4, 4))
            cands = list(model.candidates.tuples)
            r = np.random.default_rng(seed)
            x = [cands[i] for i in r.choice(len(cands), size=3, replace=False)]
            for cand in model.candidates.tuples[model.type_slices[1]]:
                if cand in x:
                    continue
                assert oracles.greedy_gain(model, cache, x, cand) >= -1e-10

    def test_rejects_selected_candidate(self):
        model, cache = random_instance(41)
        p = model.candidates.tuples[0]
        with pytest.raises(DomainError):
            oracles.greedy_gain(model, cache, [p], p)


class TestOldCriterion:
    def test_target_fully_selected_single_type(self):
        model, cache = random_instance(50, n_per_type=(5,))
        assert oracles.old_criterion(model, list(model.candidates.tuples)) == 0.0

    def test_single_type_max_entropy_reduction(self):
        # with one type, ranking subsets by prior entropy H(Y_X) reverses the
        # ranking by posterior entropy of the remainder
        model, cache = random_instance(51, n_per_type=(7,))
        cands = list(model.candidates.tuples)
        h = model.h
        subsets = list(itertools.combinations(range(len(cands)), 2))
        prior_h = []
        post_h = []
        for s in subsets:
            x = [cands[i] for i in s]
            tx = model.candidates.take(s)
            # log-det from a Cholesky factor: slogdet rounds differently
            # and could flip near-tied subsets in the ordering below
            prior_h.append(0.5 * (2 * LOG_2PI_E + chol_spd(cov_matrix(tx, tx, h)).logdet))
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
            cands = list(model.candidates.tuples)
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
        cands = list(model.candidates.tuples)
        v_t = np.arange(len(cands))[model.type_slices[0]]
        const = oracles.entropy(sparse_cov(model, model.candidates.take(v_t), v_t))
        r = np.random.default_rng(60)
        for k in (0, 1, 3):
            x = [cands[i] for i in r.choice(len(cands), size=k, replace=False)]
            assert criterion_F(model, cache, x) + oracles.old_criterion(
                model, x
            ) == pytest.approx(const, abs=1e-8)

    def test_exact_variant_differs_but_runs(self):
        model, cache = random_instance(61, n_per_type=(4, 4))
        x = model.candidates.tuples[:2]
        val = oracles.old_criterion(model, x, use_exact=True)
        assert np.isfinite(val)


class TestGainEvaluator:
    def test_batched_matches_single(self):
        model, cache = random_instance(70, n_per_type=(5, 5))
        cands = list(model.candidates.tuples)
        x = [cands[0], cands[7], cands[3]]
        ev = GainEvaluator(model, cache).set_state([0, 7, 3])
        gains = ev.gains()
        for i, cand in enumerate(cands):
            if cand in x:
                assert gains[i] == -np.inf
            else:
                direct = criterion_F(model, cache, x + [cand]) - criterion_F(
                    model, cache, x
                )
                assert gains[i] == pytest.approx(direct, abs=1e-6)

    @pytest.mark.parametrize("make", [
        lambda: random_instance(72, n_per_type=(9, 6)),
        lambda: random_instance(85, n_per_type=(12, 10, 8)),
    ], ids=["one-auxiliary-type", "two-auxiliary-types"])
    def test_sweep_matches_exact_kernel_oracle(self, make):
        # the exact sweep reads the picks' covariance as W G + R from the
        # model; the oracle computes the picks' own-type block from the kernel
        model, cache = make()
        picks = np.arange(0, len(model.candidates), 2)
        ev = GainEvaluator(model, cache).set_state(picks)
        ref = oracles.ScratchGainEvaluator(model).set_state(picks)
        free = np.flatnonzero(ev._free)
        free_aux = free[~ev._is_target[free]]
        assert free_aux.size
        blocks = pitc.BlockFactors(model, picks)
        np.testing.assert_allclose(
            ev._sweep(blocks, free, target_blocks=False),
            ref._sweep(free, False, ref._blocks.selection), rtol=1e-12,
        )
        np.testing.assert_allclose(
            ev._sweep(blocks, free_aux, target_blocks=True),
            ref._sweep(free_aux, True, ref._blocks.augmented), rtol=1e-12,
        )

    def test_scores_factor_no_selection(self, monkeypatch):
        # gains and entropies are the incremental scores, near-ties included;
        # only the exact rescoring that the greedy loop asks for factors the
        # selection, once a call
        h = Hyperparams(signal_var=[1.0, 1.0], noise_var=[0.2, 0.2],
                        latent_prec_inv=[0.3], smooth_prec_inv=[[0.1], [0.1]])
        cands = {i: [as_tuple([float(k)], i) for k in range(3)] for i in range(2)}
        model = build_model(h, InducingSet(locations=[[0.0], [2.0]]), cands)
        ev = GainEvaluator(model, build_cache(model))
        built = []
        factors = criterion.BlockFactors

        def counted(model, cols):
            built.append(list(cols))
            return factors(model, cols)

        monkeypatch.setattr(criterion, "BlockFactors", counted)
        for picks in ([], [1, 4]):  # a mirror-symmetric pool and selection
            ev.set_state(picks)
            for scores in (ev.gains(), ev.entropies_given_selected()):
                assert np.count_nonzero(scores >= scores.max() - TIE_ATOL) > 1
        assert built == []
        near = np.array([0, 2, 3, 5])
        ev.exact_gains(near)
        ev.exact_entropies(near)
        assert built == [[1, 4], [1, 4]]

    def test_add_rejects_positions_outside_the_pool(self):
        # a negative position would otherwise wrap around to the pool's end
        model, cache = random_instance(73, n_per_type=(4, 4))
        ev = GainEvaluator(model, cache).set_state([])
        for j in (-1, len(model.candidates)):
            with pytest.raises(DomainError, match=f"pool position {j} is outside"):
                ev.add(j)
        assert ev.selected == [] and ev._free.all()

    def test_add_rejects_a_selected_position(self):
        model, cache = random_instance(73, n_per_type=(4, 4))
        ev = GainEvaluator(model, cache).set_state([5])
        with pytest.raises(DomainError, match="pool position 5 is already selected"):
            ev.add(5)
        with pytest.raises(DomainError, match="already selected"):
            ev.set_state([1, 1])

    def test_construction_reuses_cached_factor(self, monkeypatch):
        # K_uu + T is factored once, by build_cache; the evaluator solves
        # with that factor
        model, cache = random_instance(71, n_per_type=(4, 4))
        calls = []

        def counted(a, name="matrix"):
            calls.append(name)
            return chol_spd(a, name)

        for module in (criterion, linalg, pitc):
            monkeypatch.setattr(module, "chol_spd", counted)
        GainEvaluator(model, cache)
        assert calls == []

    def test_variances_match_posterior(self):
        model, cache = random_instance(71, n_per_type=(4, 4))
        h, u = model.h, model.inducing.locations
        cands = list(model.candidates.tuples)
        x = cands[:3]
        var = GainEvaluator(model, cache).set_state(range(3)).var_given_selected()
        for i, cand in enumerate(cands):
            if cand in x:
                continue
            dense = oracles.conditional_cov_blocked([cand], x, h, u)
            assert var[i] == pytest.approx(dense[0, 0], rel=1e-9)

    def test_incremental_variances_along_mixed_chain(self):
        # target type 0 and three auxiliary types (1, 2, 3); the chain mixes
        # target and auxiliary picks, with repeats of each auxiliary type so
        # both the same-type residual and the cross-type low rank of the
        # augmented covariance are exercised
        model, cache = oracles.random_instance(72, n_per_type=(5, 4, 5, 4), n_inducing=4)
        h, u = model.h, model.inducing.locations
        by_type = {i: list(model.candidates.tuples[model.type_slices[i]]) for i in range(4)}
        chain = [
            by_type[1][0], by_type[0][1], by_type[1][2], by_type[3][0],
            by_type[2][3], by_type[3][1], by_type[1][3], by_type[0][4],
        ]
        targets = by_type[0]
        aux_pos = {model.candidates.tuples[c]: p for p, c in enumerate(model.aux_cols)}
        ev = GainEvaluator(model, cache).set_state([])
        for k, j in enumerate(model.positions(chain)):
            ev.add(j)
            x = chain[:k + 1]
            free = [t for t in model.candidates.tuples if t not in x]
            dense = oracles.conditional_cov_blocked(free, x, h, u)
            np.testing.assert_allclose(
                ev.var_given_selected()[model.positions(free)], np.diag(dense),
                rtol=1e-9, atol=0,
            )
            free_aux = [t for t in free if t.type_index != 0]
            x_aux = [t for t in x if t.type_index != 0]
            dense = oracles.conditional_cov_blocked(free_aux, x_aux + targets, h, u)
            np.testing.assert_allclose(
                ev._aug.var[[aux_pos[t] for t in free_aux]],
                np.diag(dense), rtol=1e-9, atol=0,
            )


class TestPairGains:
    @pytest.mark.parametrize("make", [
        lambda: random_instance(70, n_per_type=(5, 5)),
        lambda: random_instance(70, n_per_type=(4, 4, 4)),
        lambda: random_instance(68, n_per_type=(8,)),
        lambda: oracles.random_instance(71, n_per_type=(3, 3, 3), target_type=2),
    ], ids=["two-types", "three-types", "one-type", "last-type-targeted"])
    def test_rows_match_one_more_add(self, make):
        # row b is the gain sweep after add(start + b); the tails start in
        # the target range and inside an auxiliary one
        model, cache = make()
        n = len(model.candidates)
        ev, replay = GainEvaluator(model, cache), GainEvaluator(model, cache)
        for x, start in (([], 0), ([1], 2), ([0, 3], 4), ([0, 3], n - 3)):
            pairs = ev.set_state(x).pair_gains(start)
            assert pairs.shape == (n - start, n - start)
            assert np.all(np.diagonal(pairs) == -np.inf)
            for b in range(n - start):
                np.testing.assert_allclose(
                    pairs[b], replay.set_state(x + [start + b]).gains()[start:],
                    rtol=1e-12, atol=0,
                )

    @pytest.mark.parametrize("x, start", [([], 0), ([0], 1), ([0, 1], 2)],
                             ids=["root", "after-a-target", "target-pool-selected"])
    def test_row_of_the_last_free_target_is_zero(self, x, start):
        # two target candidates, 0 and 1: the objective is constant once
        # both are selected, so every gain after it is exactly zero
        model, cache = random_instance(66, n_per_type=(2, 5))
        ev = GainEvaluator(model, cache).set_state(x)
        pairs = ev.pair_gains(start)
        replay = GainEvaluator(model, cache)
        for b in range(pairs.shape[0]):
            exhausts = not (set(range(2)) - set(x) - {start + b})
            np.testing.assert_allclose(
                pairs[b], replay.set_state(x + [start + b]).gains()[start:],
                rtol=1e-12, atol=0,
            )
            assert np.all(np.delete(pairs[b], b) == 0.0) == exhausts

    @pytest.mark.parametrize("state, pick, what", [
        ("_sel", 7, "variance of the pick given the selection"),
        ("_aug", 2, "augmented variance of the pick"),
    ], ids=["selection", "augmented"])
    def test_nonpositive_pivot_raises_as_add_does(self, state, pick, what):
        # pool position 7 is the auxiliary candidate at auxiliary position 2
        model, cache = random_instance(70, n_per_type=(5, 5))
        ev = GainEvaluator(model, cache).set_state([1])
        getattr(ev, state).var[pick] = 0.0
        with pytest.raises(IllConditionedError, match=what):
            ev.pair_gains(2)
        with pytest.raises(IllConditionedError, match=what):
            ev.add(7)

    def test_start_below_a_selected_position_is_refused(self):
        model, cache = random_instance(70, n_per_type=(5, 5))
        ev = GainEvaluator(model, cache).set_state([1, 6])
        for start in (0, 6):
            with pytest.raises(DomainError, match="holds a selected position"):
                ev.pair_gains(start)
        for start in (-1, 11):
            with pytest.raises(DomainError, match="outside"):
                ev.pair_gains(start)
        assert ev.pair_gains(7).shape == (3, 3)
        assert ev.pair_gains(10).shape == (0, 0)


class TestVarGivenSelected:
    """The posterior variances of the gain state against the dense oracles."""

    def test_fast_equals_dense(self):
        # selections of one tuple, fewer and more than 3m tuples (m = 4), of
        # a single type or mixed types
        shapes = [((0, 1), 1), ((0, 1), 8), ((0, 1), 35), ((1,), 1), ((0,), 8), ((1,), 15)]
        for seed in range(6):
            r = np.random.default_rng(seed)
            model, cache = oracles.random_instance(seed, n_per_type=(20, 20), n_inducing=4)
            h, u = model.h, model.inducing.locations
            ev = GainEvaluator(model, cache)
            for types, size in shapes:
                pool = [t for t in model.candidates.tuples if t.type_index in types]
                x = [pool[i] for i in r.permutation(len(pool))[:size]]
                rest = [t for t in model.candidates.tuples if t not in set(x)]
                z = [rest[i] for i in r.permutation(len(rest))[:5]]
                var = ev.set_state(model.positions(x)).var_given_selected()
                np.testing.assert_allclose(
                    var[model.positions(z)],
                    np.diag(oracles.conditional_cov_blocked(z, x, h, u)),
                    rtol=1e-8, atol=1e-10,
                )

    def test_single_type_matches_exact(self):
        # with one type the sparse model is exact, for any inducing set
        for seed in range(8):
            model, cache = oracles.random_instance(seed + 200, n_per_type=(8,), n_inducing=2)
            cands = list(model.candidates.tuples)
            x, z = cands[:5], cands[5:]
            var = GainEvaluator(model, cache).set_state(range(5)).var_given_selected()
            np.testing.assert_allclose(
                var[5:], np.diag(oracles.conditional_cov_exact(z, x, model.h)),
                rtol=1e-8, atol=1e-12,
            )

    def test_variance_floor(self):
        for seed in range(10):
            r = np.random.default_rng(seed)
            model, cache = random_instance(seed + 50, n_per_type=(5, 5))
            cands = list(model.candidates.tuples)
            pick = r.permutation(len(cands))
            ev = GainEvaluator(model, cache).set_state(pick[:6])
            free = pick[6:]
            noise = model.h.noise_var[model.candidates.types[free]]
            assert np.all(ev.var_given_selected()[free] >= noise - 1e-10)

    def test_conditioning_monotone(self):
        model, cache = random_instance(17, n_per_type=(4, 4))
        cands = list(model.candidates.tuples)
        h, u = model.h, model.inducing.locations
        ev = GainEvaluator(model, cache).set_state([])
        prev = ev.var_given_selected()[-2:].copy()
        for k in range(5):
            var = ev.add(k).var_given_selected()[-2:].copy()
            assert np.all(var <= prev + 1e-10)
            prev = var
        dense = oracles.conditional_cov_blocked(cands[-2:], cands[:5], h, u)
        np.testing.assert_allclose(prev, np.diag(dense), rtol=1e-9)


class TestDataScale:
    """Scaling the data by c scales every variance by c^2: each target gain,
    a marginal entropy, shifts by 1/2 log c^2, each auxiliary gain, a log
    ratio of variances, stays, and so the scale sets the exchange rate
    between target and auxiliary picks."""

    @pytest.mark.parametrize("c2", [0.3, 4.0])
    def test_target_gains_shift_and_auxiliary_gains_stay(self, c2):
        model, cache = random_instance(5, n_per_type=(12, 12))
        h = model.h
        scaled_h = replace(h, signal_var=c2 * h.signal_var, noise_var=c2 * h.noise_var)
        per_type = {i: list(model.candidates.tuples[s]) for i, s in model.type_slices.items()}
        below_floor = float(np.min(scaled_h.noise_var)) < NOISE_FLOOR
        with pytest.warns(UserWarning, match="noise") if below_floor else contextlib.nullcontext():
            scaled = build_model(scaled_h, model.inducing, per_type)
        scaled_cache = build_cache(scaled)
        shift = 0.5 * math.log(c2)

        picks = np.random.default_rng(5).permutation(len(model.candidates))[:4]
        gains = GainEvaluator(model, cache).set_state(picks).gains()
        scaled_gains = GainEvaluator(scaled, scaled_cache).set_state(picks).gains()
        # selected candidates score -inf in both
        free = np.isfinite(gains)
        assert np.array_equal(np.isfinite(scaled_gains), free)
        is_target = model.candidates.types == h.target_type
        target, aux = free & is_target, free & ~is_target
        assert target.any() and aux.any()
        np.testing.assert_allclose(scaled_gains[target] - gains[target], shift, rtol=0, atol=1e-12)
        np.testing.assert_allclose(scaled_gains[aux], gains[aux], rtol=0, atol=1e-12)

        cands = model.candidates.tuples
        chain = [cands[k] for k in np.random.default_rng(6).permutation(len(cands))[:8]]
        for k in range(len(chain) + 1):
            x = chain[:k]
            n_t = sum(p.type_index == h.target_type for p in x)
            assert criterion_F(scaled, scaled_cache, x) - criterion_F(model, cache, x) == (
                pytest.approx(n_t * shift, rel=0, abs=1e-12)
            )
