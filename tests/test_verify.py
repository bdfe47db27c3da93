import dataclasses
import math

import numpy as np
import pytest

import oracles
from mogpal import (
    ConfigError,
    DomainError,
    EnumerationGuardError,
    Hyperparams,
    IllConditionedError,
    as_tuple,
    build_cache,
    build_model,
    criterion_F,
)
from mogpal import criterion, verify
from mogpal.criterion import GainEvaluator
from mogpal.pitc import InducingSet, select_inducing
from mogpal.selector import select_greedy
from mogpal.verify import (
    brute_force_optimum,
    check_guarantee,
    estimate_epsilon1,
    random_instance,
)


def _modular_instance():
    """Far-separated candidates: gains are independent, so greedy is optimal."""
    h = Hyperparams(
        signal_var=[1.0], noise_var=[0.2],
        latent_prec_inv=[0.05], smooth_prec_inv=[[0.05]],
    )
    cands = {0: [as_tuple([100.0 * k], 0) for k in range(6)]}
    model = build_model(h, InducingSet(locations=[[0.0], [250.0], [500.0]]), cands)
    return model, build_cache(model)


@pytest.mark.parametrize("seed, shape", [(5, (4, 4)), (11, (7,)), (70, (4, 4, 4))])
def test_oracle_instance_is_the_library_instance_at_its_defaults(seed, shape):
    # tests draw the other shapes through the oracle, so it must draw the
    # seed's stream exactly as the library does
    model, cache = random_instance(seed, n_per_type=shape)
    other, other_cache = oracles.random_instance(seed, n_per_type=shape)
    for f in dataclasses.fields(model.h):
        assert np.array_equal(getattr(model.h, f.name), getattr(other.h, f.name))
    assert model.candidates.tuples == other.candidates.tuples
    assert np.array_equal(model.inducing.locations, other.inducing.locations)
    assert np.array_equal(model.W, other.W)
    for i, r in model.R.items():
        assert np.array_equal(r, other.R[i])
    assert np.array_equal(cache.lower, other_cache.lower)


class TestBruteForce:
    def test_single_pick_argmax(self):
        model, cache = random_instance(61, n_per_type=(4, 3))
        best, value = brute_force_optimum(model, cache, 1)
        singles = [
            (criterion_F(model, cache, [t]), t) for t in model.candidates.tuples
        ]
        expected = max(singles, key=lambda s: s[0])
        assert best == [expected[1]]
        assert value == pytest.approx(expected[0])

    def test_never_below_greedy(self):
        for seed in range(8):
            model, cache = random_instance(seed + 700, n_per_type=(4, 4))
            greedy = select_greedy(model, cache, 3)
            f_greedy = criterion_F(model, cache, greedy.selected)
            _, f_opt = brute_force_optimum(model, cache, 3)
            assert f_opt >= f_greedy - 1e-9

    def test_matches_greedy_on_modular_instance(self):
        model, cache = _modular_instance()
        greedy = select_greedy(model, cache, 3)
        best, f_opt = brute_force_optimum(model, cache, 3)
        assert sorted(best, key=lambda t: t.sort_key) == sorted(
            greedy.selected, key=lambda t: t.sort_key
        )
        assert f_opt == pytest.approx(criterion_F(model, cache, greedy.selected), abs=1e-9)

    def test_guard(self):
        model, cache = random_instance(62, n_per_type=(20, 20))
        with pytest.raises(EnumerationGuardError):
            brute_force_optimum(model, cache, 12)

    def test_values_recompute_identically(self):
        model, cache = random_instance(63, n_per_type=(4, 3))
        best, value = brute_force_optimum(model, cache, 2)
        assert criterion_F(model, cache, best) == pytest.approx(value, abs=1e-12)

    def test_budget_beyond_pool_raises(self):
        model, cache = random_instance(64, n_per_type=(3, 3))
        with pytest.raises(ConfigError, match="budget 7 exceeds the candidate pool size 6"):
            brute_force_optimum(model, cache, 7)

    def test_negative_budget_raises(self):
        model, cache = random_instance(64, n_per_type=(3, 3))
        with pytest.raises(ConfigError, match="nonnegative"):
            brute_force_optimum(model, cache, -1)

    def test_zero_budget_is_empty_selection(self):
        model, cache = random_instance(64, n_per_type=(3, 3))
        assert brute_force_optimum(model, cache, 0) == ([], 0.0)

    def test_rescores_only_near_ties(self, monkeypatch):
        model, cache = random_instance(65, n_per_type=(6, 6))
        calls = []

        def counted(*args):
            calls.append(args)
            return criterion_F(*args)

        monkeypatch.setattr(verify, "criterion_F", counted)
        best, value = brute_force_optimum(model, cache, 3)
        assert 1 <= len(calls) < math.comb(12, 3) // 10
        assert (best, value) == oracles.brute_force_optimum(model, cache, 3)

    def test_one_state_per_prefix_and_one_pair_sweep_below_the_leaves(self, monkeypatch):
        # the root's state grows the 10 one-pick prefixes, and each of those
        # scores its subsets' last two picks from one state and one pair sweep
        model, cache = random_instance(65, n_per_type=(6, 6))
        states, sweeps = [], []
        set_state, pair_gains = GainEvaluator.set_state, GainEvaluator.pair_gains

        def counted_state(self, cols):
            states.append(tuple(cols))
            return set_state(self, cols)

        def counted_sweep(self, start):
            sweeps.append(start)
            return pair_gains(self, start)

        monkeypatch.setattr(GainEvaluator, "set_state", counted_state)
        monkeypatch.setattr(GainEvaluator, "pair_gains", counted_sweep)
        best, value = brute_force_optimum(model, cache, 3)
        assert states == [()] + [(j,) for j in range(10)]
        assert sweeps == list(range(1, 11))
        assert (best, value) == oracles.brute_force_optimum(model, cache, 3)

    def test_one_selection_factor_per_leaf_rescoring(self, monkeypatch):
        # the prefix sweeps read incremental gains, so only criterion_F's
        # leaf rescoring factors a selection, once a call
        built, rescored = [], []
        factors, objective = criterion.BlockFactors, verify.criterion_F

        def counted_factors(*args):
            built.append(args)
            return factors(*args)

        def counted_objective(*args):
            rescored.append(args)
            return objective(*args)

        monkeypatch.setattr(criterion, "BlockFactors", counted_factors)
        monkeypatch.setattr(verify, "criterion_F", counted_objective)
        for seed in range(30):
            brute_force_optimum(*random_instance(seed, n_per_type=(6, 6)), 3)
        assert len(rescored) >= 30
        assert len(built) == len(rescored)


def _mirror_instance():
    """Two types on a mirror-symmetric grid: subsets tie up to roundoff, and
    the telescoped and rescored values order them differently."""
    h = Hyperparams(
        signal_var=[1.0, 1.0], noise_var=[0.2, 0.2],
        latent_prec_inv=[1.0], smooth_prec_inv=[[0.05], [0.05]],
    )
    cands = {i: [as_tuple([3.0 * k], i) for k in range(4)] for i in range(2)}
    model = build_model(h, InducingSet(locations=[[0.0], [9.0]]), cands)
    return model, build_cache(model)


def _exhausted_target_instance():
    # two target candidates: a size-4 prefix tree extends prefixes that
    # hold both, where every gain is exactly zero
    return random_instance(66, n_per_type=(2, 5))


@pytest.mark.parametrize("build, n", [
    (lambda: random_instance(67, n_per_type=(5, 4)), 0),
    (lambda: random_instance(67, n_per_type=(5, 4)), 1),
    (lambda: random_instance(67, n_per_type=(5, 4)), 3),
    (lambda: random_instance(67, n_per_type=(5, 4)), 9),
    (_modular_instance, 3),
    (_mirror_instance, 3),
    (lambda: random_instance(68, n_per_type=(8,)), 3),
    (lambda: random_instance(69, n_per_type=(6, 6)), 3),
    (lambda: random_instance(70, n_per_type=(4, 4, 4)), 3),
    (lambda: oracles.random_instance(71, n_per_type=(3, 3, 3), target_type=2), 4),
    (_exhausted_target_instance, 4),
    (lambda: random_instance(72, n_per_type=(1, 5)), 2),
    (lambda: random_instance(72, n_per_type=(1, 5)), 3),
    (lambda: random_instance(69, n_per_type=(6, 6)), 2),
], ids=[
    "n0", "n1", "n3", "whole-pool", "modular-exact-ties", "mirror-near-ties",
    "one-type", "two-types", "three-types", "last-type-targeted", "target-exhausted",
    "pair-exhausts-target-n2", "pair-exhausts-target-n3", "pairs-from-the-root",
])
def test_prefix_tree_matches_full_enumeration(build, n):
    model, cache = build()
    best, value = brute_force_optimum(model, cache, n)
    best_ref, value_ref = oracles.brute_force_optimum(model, cache, n)
    assert best == best_ref
    assert value == value_ref


class TestEstimateEpsilon1:
    def test_empty_selection_is_zero(self):
        model, cache = random_instance(71, n_per_type=(4, 4))
        assert estimate_epsilon1(model, cache, []) == 0.0

    def test_single_type_is_zero(self):
        model, cache = random_instance(72, n_per_type=(6,))
        x = model.candidates.tuples[:3]
        assert estimate_epsilon1(model, cache, x) == 0.0

    def test_nonnegative_and_monotone_in_selection(self):
        model, cache = random_instance(73, n_per_type=(4, 4))
        cands = list(model.candidates.tuples)
        chain = []
        prev = 0.0
        for t in cands[:4]:
            chain.append(t)
            val = estimate_epsilon1(model, cache, chain)
            assert val >= prev - 1e-12
            prev = val

    @pytest.mark.parametrize("shape", [(6, 6), (4, 8), (5, 5, 5), (8, 4)])
    def test_matches_subset_enumeration(self, shape):
        # the two-state value against the oracle's worst over every subset
        got = []
        for seed in range(10):
            model, cache = random_instance(seed + 700, n_per_type=shape)
            for budget in (3, 6):
                x = select_greedy(model, cache, budget).selected
                value = estimate_epsilon1(model, cache, x)
                assert value == pytest.approx(
                    oracles.estimate_epsilon1(model, cache, x), rel=1e-12
                )
                got.append(value)
        assert min(got) >= 0.0 and max(got) > 0.0

    def test_one_evaluator_pass(self, monkeypatch):
        # one add per unsampled target position, then one per pick
        model, cache = random_instance(75, n_per_type=(6, 6))
        x = select_greedy(model, cache, 4).selected
        expected = oracles.estimate_epsilon1(model, cache, x)
        calls = []
        add = GainEvaluator.add

        def counting(self, j):
            calls.append(j)
            return add(self, j)

        monkeypatch.setattr(GainEvaluator, "add", counting)
        value = estimate_epsilon1(model, cache, x)
        unsampled = 6 - sum(t.type_index == model.h.target_type for t in x)
        assert 0 < unsampled < 6
        assert len(calls) == unsampled + len(x)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_selection_beyond_subset_enumeration(self):
        # 2^13 subsets: the definition's worst subset is the empty one
        model, cache = random_instance(74, n_per_type=(8, 8))
        cands = model.candidates.tuples
        x = cands[:13]
        rest = [t for t in cands[13:] if t.type_index == 0]
        pre = oracles._PreconditionedVar(model, rest, [t for t in cands if t not in rest])
        aux = [t for t in cands[13:] if t.type_index != 0]
        expected = max(pre.var(z, []) - pre.var(z, x) for z in aux)
        assert estimate_epsilon1(model, cache, x) == pytest.approx(expected, rel=1e-10)

    def test_repeated_tuple_rejected(self):
        # a repeated tuple makes every subset block holding it singular
        model, cache = random_instance(73, n_per_type=(4, 4))
        c = model.candidates.tuples[0]
        with pytest.raises(DomainError, match="duplicate"):
            estimate_epsilon1(model, cache, [c, c])

    def test_spaced_instance_meets_requested_bound(self):
        # build a pool spaced per the certified multiplier, run greedy, and
        # measure that the variance-reduction bound indeed holds
        h = Hyperparams(
            signal_var=[1.0, 0.8], noise_var=[0.2, 0.15],
            latent_prec_inv=[0.5], smooth_prec_inv=[[0.25], [0.25]],
        )
        eps1 = 0.05
        n_budget = 4
        p = oracles.min_spacing_p(h, n_budget, epsilon1=eps1)
        # greedy packing of a sorted integer grid at spacing p keeps every
        # ceil(p)-th point
        pool = [as_tuple([float(k)], k % 2) for k in range(40)]
        kept = pool[::math.ceil(p)]
        assert len(kept) >= 2 * n_budget
        by_type = {}
        for t in kept:
            by_type.setdefault(t.type_index, []).append(t)
        locs = np.array([t.location for t in kept])
        model = build_model(h, select_inducing(locs, 3, seed=0), by_type)
        cache = build_cache(model)
        state = select_greedy(model, cache, n_budget)
        assert estimate_epsilon1(model, cache, state.selected) <= eps1


class TestCheckGuarantee:
    def test_modular_instance_trivially_satisfied(self):
        model, cache = _modular_instance()
        report = check_guarantee(model, cache, 3, instance="modular")
        assert report.satisfied
        assert report.to_line().endswith(" satisfied=true status=pass")
        assert report.f_greedy == pytest.approx(report.f_opt, abs=1e-9)

    def test_report_fields_consistent(self):
        model, cache = random_instance(81, n_per_type=(4, 4))
        report = check_guarantee(model, cache, 2, instance="r81")
        recomputed = (1 - 1 / math.e) * (report.f_opt - report.budget * report.epsilon)
        assert report.bound == pytest.approx(recomputed, abs=1e-12)
        assert report.epsilon == pytest.approx(
            0.5 * math.log1p(report.epsilon1_hat / float(np.min(model.h.noise_var))),
            abs=1e-12,
        )

    def test_random_family_all_satisfied(self):
        for seed in range(30):
            shape = [(6, 6), (5, 4), (4, 4, 4)][seed % 3]
            model, cache = random_instance(seed + 900, n_per_type=shape)
            report = check_guarantee(model, cache, 3, instance=f"s{seed}")
            assert report.satisfied, report.to_line()

    def test_selection_beyond_subset_enumeration_certified(self):
        model, cache = random_instance(74, n_per_type=(8, 8))
        report = check_guarantee(model, cache, 13, instance="s74")
        assert report.satisfied, report.to_line()

    def test_line_serialization_round_trips(self):
        model, cache = random_instance(82, n_per_type=(4, 3))
        report = check_guarantee(model, cache, 2, instance="abc")
        line = report.to_line()
        fields = dict(kv.split("=") for kv in line.split())
        assert fields["instance"] == "abc"
        assert float(fields["f_greedy"]) == pytest.approx(report.f_greedy, rel=1e-10)
        assert fields["satisfied"] == "true"


    def test_greedy_above_optimum_raises(self, monkeypatch):
        # greedy can only beat the exhaustive optimum if the numerics broke;
        # the objective is nonnegative, so any greedy value beats -1
        model, cache = random_instance(84, n_per_type=(4, 3))
        monkeypatch.setattr(verify, "brute_force_optimum", lambda model, cache, n: ([], -1.0))
        with pytest.raises(IllConditionedError, match="exceeds exhaustive optimum"):
            check_guarantee(model, cache, 2)


class TestAuditEpsSubmodularity:
    def test_single_type_exactly_submodular(self):
        violations = []
        for seed in range(6):
            model, cache = random_instance(seed + 1000, n_per_type=(7,))
            excess, _ = oracles.audit_eps_submodularity(model, cache, samples=40, seed=seed)
            if excess > 1e-9:
                violations.append((seed, excess))
        # single-type instances: gains are plain conditional entropies, for
        # which diminishing returns is exact; record rather than hide
        assert violations == []

    def test_excess_within_required_epsilon(self):
        for seed in range(6):
            model, cache = random_instance(seed + 1100, n_per_type=(4, 4))
            excess, eps_required = oracles.audit_eps_submodularity(
                model, cache, samples=60, seed=seed
            )
            assert excess <= eps_required + 1e-9

    def test_variance_difference_matches_direct(self):
        model, cache = random_instance(83, n_per_type=(4, 4))
        cands = list(model.candidates.tuples)
        z = model.candidates.tuples[model.type_slices[1]][0]
        cond = [t for t in cands[:4] if t != z]
        direct = oracles.conditional_cov_blocked([z], cond, model.h, model.inducing.locations)
        var = GainEvaluator(model, cache).set_state(model.positions(cond)).var_given_selected()
        assert direct[0, 0] == pytest.approx(var[model.positions([z])[0]], rel=1e-10)
