import math
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from mogpal import (
    ConfigError, Hyperparams, IllConditionedError, as_tuple,
    build_cache, build_model, criterion_F,
)
from mogpal import criterion, pitc, selector
from mogpal.criterion import GainEvaluator
from mogpal.pitc import InducingSet, select_inducing
from mogpal.selector import (
    select_greedy,
    select_mvar,
    select_smi,
    select_svar,
    write_selection_log,
)
from mogpal.linalg import SpdFactor
from conftest import random_hyperparams, random_instance
import test_regimes


def _grid_model(n=8, m=3, n_types=1, seed=0, target_type=0, noise=(0.2, 0.12)):
    h = Hyperparams(
        signal_var=[1.0] * n_types,
        noise_var=list(noise[:n_types]),
        latent_prec_inv=[0.5],
        smooth_prec_inv=[[0.3]] * n_types,
        target_type=target_type,
    )
    cands = {
        i: [as_tuple([float(k)], i) for k in range(n)] for i in range(n_types)
    }
    locs = np.array([[float(k)] for k in range(n)])
    model = build_model(h, select_inducing(locs, m, seed=seed), cands)
    return model, build_cache(model)


def _tie_model():
    h = Hyperparams(
        signal_var=[1.0, 1.0], noise_var=[0.2, 0.2],
        latent_prec_inv=[0.3], smooth_prec_inv=[[0.1], [0.1]],
    )
    cands = {i: [as_tuple([float(k)], i) for k in range(3)] for i in range(2)}
    model = build_model(h, InducingSet(locations=[[0.0], [2.0]]), cands)
    return model, build_cache(model)


def _experiment_grid_model():
    # the shape of perfbench/experiment.ini: 600 grid locations over [0, 60]
    # for both types, 50 target locations held out, 20 inducing points
    h = Hyperparams(
        signal_var=[1.0, 0.8], noise_var=[0.25, 0.1], latent_prec_inv=[2.0],
        smooth_prec_inv=[[0.1], [0.1]], target_type=0,
    )
    grid = np.linspace(0.0, 60.0, 600)
    cands = {
        0: [as_tuple([x], 0) for k, x in enumerate(grid) if k % 12 != 5],
        1: [as_tuple([x], 1) for x in grid],
    }
    model = build_model(h, select_inducing(grid[:, None], 20, seed=0), cands)
    return model, build_cache(model)


# (model, cache) builder and budget of each instance checked against the
# per-pick rebuild; a budget of the whole pool exercises greedy's
# max-entropy fallback once the target pool is exhausted
REBUILD_CASES = {
    "one-type-whole-pool": (lambda: random_instance(81, n_per_type=(9,)), 9),
    "two-types-whole-pool": (lambda: random_instance(82, n_per_type=(6, 6)), 12),
    "two-types": (lambda: oracles.random_instance(83, n_per_type=(12, 10), n_inducing=4), 10),
    "three-types-middle-target-whole-pool": (
        lambda: oracles.random_instance(84, n_per_type=(5, 6, 4), target_type=1), 15,
    ),
    "three-types": (lambda: random_instance(85, n_per_type=(12, 10, 8)), 14),
    "symmetric-grid": (lambda: _grid_model(n=9, m=3), 9),
    "symmetric-grid-two-types": (
        lambda: _grid_model(n=8, m=3, n_types=2, noise=(0.2, 0.2)), 16,
    ),
    "tie-instance": (_tie_model, 6),
    "experiment-grid": (_experiment_grid_model, 40),
}


class TestIncrementalGainState:
    # s-Var runs here too: its NumPy log must break the exact ties of these
    # instances as the libm log of the from-scratch oracle does
    @pytest.mark.parametrize("algorithm", ["m-greedy", "m-var", "s-var"])
    @pytest.mark.parametrize("case", sorted(REBUILD_CASES))
    def test_matches_per_pick_rebuild(self, algorithm, case):
        build, budget = REBUILD_CASES[case]
        model, cache = build()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if algorithm == "m-greedy":
                state = select_greedy(model, cache, budget)
                reference = oracles.select_greedy_scratch(model, cache, budget)
            elif algorithm == "m-var":
                state = select_mvar(model, cache, budget)
                reference = oracles.select_mvar_scratch(model, cache, budget)
            else:
                budget = min(budget, len(model.R[model.h.target_type]))
                state = select_svar(model, budget)
                reference = oracles.select_single_output_scratch(model, budget, "s-var")
        assert state.selected == reference.selected
        for gain, expected in zip(state.gains, reference.gains):
            assert gain == pytest.approx(expected, rel=0, abs=1e-9)

    def test_exhausted_target_pool_needs_no_target_sweep(self, monkeypatch):
        # once every target candidate is picked the objective is constant:
        # greedy falls back to max-entropy picks and records zero gains
        # without rescoring the auxiliary pool against the target pool
        model, cache = oracles.random_instance(5, n_per_type=(30, 60), spread=20.0)
        sweeps = []
        sweep = GainEvaluator._sweep

        def spy(self, blocks, cols, target_blocks):
            sweeps.append((len(self.selected), target_blocks))
            return sweep(self, blocks, cols, target_blocks)

        monkeypatch.setattr(GainEvaluator, "_sweep", spy)
        state = select_greedy(model, cache, 90)
        reference = oracles.select_greedy_scratch(model, cache, 90)
        assert state.selected == reference.selected
        for gain, expected in zip(state.gains, reference.gains):
            assert gain == pytest.approx(expected, rel=0, abs=1e-9)
        assert state.cumulative[-1] == pytest.approx(
            criterion_F(model, cache, state.selected), rel=1e-12
        )
        assert all(t.type_index == 0 for t in state.selected[:30])
        assert [n for n, target in sweeps if target and n >= 30] == []
        assert any(n >= 30 for n, _ in sweeps)

    def test_mvar_ties_factor_no_augmented_information(self, monkeypatch):
        # m-Var's near-tie sweeps condition on the selection alone, so the
        # factor of K_uu + T + S_aux is never needed
        model, cache = _tie_model()
        names = []
        for module in (criterion, pitc):
            def spy(a, name="matrix", factor=module.chol_spd):
                names.append(name)
                return factor(a, name)
            monkeypatch.setattr(module, "chol_spd", spy)
        state = select_mvar(model, cache, 6)
        assert len(state.selected) == 6
        assert "selection information" in names
        assert "augmented selection information" not in names

    @pytest.mark.parametrize("algorithm", ["m-greedy", "m-var"])
    def test_nan_variance_raises(self, algorithm):
        # NaN <= 0 is false, so a NaN variance used to pass the positivity
        # check and win the argmax as a silent pick
        model, cache = random_instance(87, n_per_type=(5, 5))
        model.prior_var[2] = np.nan
        with pytest.raises(IllConditionedError):
            if algorithm == "m-greedy":
                select_greedy(model, cache, 3)
            else:
                select_mvar(model, cache, 3)

    def test_nan_pivot_raises(self):
        model, cache = random_instance(87, n_per_type=(5, 5))
        model.prior_var[2] = np.nan
        with pytest.raises(IllConditionedError):
            GainEvaluator(model, cache).set_state([]).add(2)


class TestSelectGreedy:
    def test_budget_exactness_and_everything_selected(self):
        model, cache = random_instance(1, n_per_type=(3, 3))
        state = select_greedy(model, cache, 6)
        assert len(state.selected) == 6
        assert len(set(state.selected)) == 6

    def test_budget_guard(self):
        model, cache = random_instance(2, n_per_type=(3, 3))
        with pytest.raises(ConfigError):
            select_greedy(model, cache, 7)

    def test_determinism(self):
        a = random_instance(3, n_per_type=(4, 4))
        b = random_instance(3, n_per_type=(4, 4))
        sa = select_greedy(*a, 5)
        sb = select_greedy(*b, 5)
        assert sa.selected == sb.selected
        assert sa.gains == sb.gains

    def test_gains_nonnegative_above_noise_floor(self):
        for seed in range(6):
            model, cache = random_instance(seed, n_per_type=(4, 4))
            state = select_greedy(model, cache, 6)
            assert all(g >= -1e-10 for g in state.gains)

    def test_matches_single_output_entropy_when_one_type(self):
        for seed in range(20):
            model, cache = oracles.random_instance(seed + 500, n_per_type=(7,), n_inducing=3)
            greedy = select_greedy(model, cache, 4)
            svar = select_svar(model, 4)
            assert greedy.selected == svar.selected

    def test_noisy_target_attracts_auxiliary_picks(self):
        # the auxiliary type reads the shared field with a far better
        # signal-to-noise ratio (~17x vs ~2x), so the objective prefers
        # sampling it over the noisy target type
        h = Hyperparams(
            signal_var=[1.0, 5.0],
            noise_var=[0.1, 0.06],
            latent_prec_inv=[4.0],
            smooth_prec_inv=[[0.01], [0.01]],
            target_type=0,
        )
        cands = {
            0: [as_tuple([0.5 * k], 0) for k in range(16)],
            1: [as_tuple([float(k)], 1) for k in range(8)],
        }
        locs = np.array([t.location for v in cands.values() for t in v])
        model = build_model(h, select_inducing(locs, 6, seed=0), cands)
        cache = build_cache(model)
        state = select_greedy(model, cache, 8)
        assert any(t.type_index == 1 for t in state.selected)

    def test_telescoping_cumulative(self):
        model, cache = random_instance(9, n_per_type=(4, 4))
        state = select_greedy(model, cache, 5)
        assert state.cumulative[-1] == pytest.approx(
            criterion_F(model, cache, state.selected), abs=1e-6
        )

    @staticmethod
    def _dense_inducing_grid(n, m):
        """Cumulative gain and ``criterion_F`` of 12 greedy picks with evenly
        spaced inducing points far denser than the latent length-scale:
        cond(K_uu) is 5.4e18 at 80/30, where one jitter pass fires."""
        h = Hyperparams(
            signal_var=[1.0, 1.0], noise_var=[0.1, 0.1], latent_prec_inv=[5.0],
            smooth_prec_inv=[[0.1], [0.2]], target_type=0,
        )
        grid = np.linspace(0.0, 10.0, n)
        cands = {i: [as_tuple([x], i) for x in grid] for i in range(2)}
        model = build_model(h, InducingSet(np.linspace(0.0, 10.0, m)[:, None]), cands)
        cache = build_cache(model)
        state = select_greedy(model, cache, 12)
        return state.cumulative[-1], criterion_F(model, cache, state.selected)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "criterion_F takes logdet(K_uu + S) - logdet(K_uu), which cancels "
        "catastrophically on a near-singular K_uu"
    ))
    @pytest.mark.parametrize("n, m", [(80, 30), (30, 15)])
    def test_telescoping_on_dense_inducing_grid(self, n, m):
        cumulative, objective = self._dense_inducing_grid(n, m)
        assert cumulative == pytest.approx(objective, rel=1e-8)

    def test_jittered_inducing_covariance_is_used_throughout(self):
        # the selection factors must add the K_uu that the jittered factor
        # holds: the raw K_uu puts criterion_F at 22.1 against a gain of 6.83
        cumulative, objective = self._dense_inducing_grid(80, 30)
        assert cumulative == pytest.approx(objective, rel=1e-6)


    def test_falls_back_below_the_gain_floor_with_targets_free(self):
        # below the noise floor every gain can be under greedy's 1e-9 while
        # targets are free: greedy then picks by maximum entropy, as m-Var does
        h = Hyperparams(signal_var=[0.02, 1e-9], noise_var=[0.001, 0.5],
                        latent_prec_inv=[0.5], smooth_prec_inv=[[0.1], [0.1]])
        rng = np.random.default_rng(0)
        cands = {i: [as_tuple([x], i) for x in rng.uniform(0.0, 5.0, 8)] for i in (0, 1)}
        locs = np.array([t.location for tuples in cands.values() for t in tuples])
        with pytest.warns(UserWarning, match="below 1/\\(2 pi e\\)"):
            model = build_model(h, select_inducing(locs, 4, seed=0), cands)
        cache = build_cache(model)
        state = select_greedy(model, cache, 4)
        assert state.selected == select_mvar(model, cache, 4).selected
        assert [p.type_index for p in state.selected] == [1] * 4
        assert all(0.0 < gain < 1e-9 for gain in state.gains)


class TestSelectMvar:
    def test_first_pick_is_max_prior_variance(self):
        model, cache = random_instance(21, n_per_type=(5, 5))
        state = select_mvar(model, cache, 1)
        prior = model.prior_var
        assert state.selected[0] == model.candidates.tuples[int(np.argmax(prior))]

    def test_tie_break_lexicographic_under_symmetry(self):
        # identical hyperparameters for both types: every prior variance
        # ties, so the first pick is the lexicographically smallest tuple
        model, cache = _tie_model()
        state = select_mvar(model, cache, 1)
        assert state.selected[0] == as_tuple([0.0], 0)

    def test_differs_from_greedy_on_uninformative_auxiliary(self):
        # auxiliary type with huge variance but no correlation to the
        # target: max-variance chases it, the objective does not
        h = Hyperparams(
            signal_var=[1.0, 25.0],
            noise_var=[0.2, 3.0],
            latent_prec_inv=[0.4],
            smooth_prec_inv=[[0.1], [500.0]],
            target_type=0,
        )
        cands = {i: [as_tuple([float(k)], i) for k in range(6)] for i in range(2)}
        locs = np.array([[float(k)] for k in range(6)])
        model = build_model(h, select_inducing(locs, 3, seed=1), cands)
        cache = build_cache(model)
        mvar = select_mvar(model, cache, 4)
        greedy = select_greedy(model, cache, 4)
        assert all(t.type_index == 1 for t in mvar.selected)
        assert all(t.type_index == 0 for t in greedy.selected)


# (seed, n_per_type, target_type, budget, refit) of the random instances
# the single-output baselines are checked on
SCRATCH_CASES = [
    (61, (5, 4), 0, 9, False),
    (62, (20, 6), 0, 8, False),
    (63, (40, 5), 0, 40, False),
    # auxiliary types ahead of the target in the pool
    (64, (5, 5), 1, 10, False),
    (65, (12, 30, 4), 1, 20, False),
    (66, (40, 25, 6), 0, 65, False),
    (67, (15, 10, 5), 1, 25, True),
    (68, (6, 9, 4), 2, 12, False),
]


def _scratch_case(seed, n_per_type, target_type, budget, refit):
    """The model, one-type refit hyperparameters or None, and the budget of
    a ``SCRATCH_CASES`` entry; the caller caps the budget at the target
    pool, as run_experiment does."""
    model, _ = oracles.random_instance(seed, n_per_type=n_per_type, target_type=target_type)
    refit_h = random_hyperparams(np.random.default_rng(seed), n_types=1) if refit else None
    return model, refit_h, min(budget, n_per_type[target_type])


def _one_type_pool(n):
    # one type on n grid locations over [0, 60], the target type's shape in
    # perfbench/experiment.ini
    h = Hyperparams(signal_var=[1.0], noise_var=[0.25], latent_prec_inv=[2.0],
                    smooth_prec_inv=[[0.1]])
    grid = np.linspace(0.0, 60.0, n)
    cands = {0: [as_tuple([x], 0) for x in grid]}
    return build_model(h, select_inducing(grid[:, None], 20, seed=0), cands)


def _after_each_score(monkeypatch, module, probe):
    """Hand ``probe`` the scores of every pick of the selectors that
    ``module`` runs through ``_greedy_loop``, and their exact rescoring."""
    loop = module._greedy_loop

    def probed(model, n, scores, add):
        def probed_scores():
            pick_scores, gains, exact = scores()
            probe(pick_scores, exact)
            return pick_scores, gains, exact

        return loop(model, n, probed_scores, add)

    monkeypatch.setattr(module, "_greedy_loop", probed)


def _mirror_tie_case(name):
    build, budget = REBUILD_CASES[name]
    model, _ = build()
    return model, None, min(budget, len(model.R[model.h.target_type]))


# (model, one-type hyperparameters or None, budget) builder of each pool on
# which s-MI is checked against the dense downdate: the mirror-tie pools,
# the SCRATCH_CASES and a 1000-candidate pool
DENSE_DOWNDATE_CASES = {
    "symmetric-grid": lambda: _mirror_tie_case("symmetric-grid"),
    "tie-instance": lambda: _mirror_tie_case("tie-instance"),
    **{f"random-{case[0]}": (lambda case=case: _scratch_case(*case)) for case in SCRATCH_CASES},
    "one-type-1000": lambda: (_one_type_pool(1000), None, 40),
}


def _regime_case(instance):
    model, _ = test_regimes._instance(*instance.split("-"))
    return model, None, len(model.R[model.h.target_type])


# the whole single-output pools of the regime sweep's six instances whose
# K_uu is ill-conditioned (the cache identity is wrong for all three budgets
# of each)
REGIME_CASES = {
    f"regime-{instance}": (lambda instance=instance: _regime_case(instance))
    for instance in sorted({case.rsplit("-", 1)[0] for case in test_regimes.WRONG["cache"]})
}
SINGLE_OUTPUT_CASES = {**DENSE_DOWNDATE_CASES, **REGIME_CASES}


class TestSingleOutputBaselines:
    def test_svar_never_selects_auxiliary(self):
        model, cache = random_instance(31, n_per_type=(5, 5))
        state = select_svar(model, 5)
        assert all(t.type_index == 0 for t in state.selected)

    def test_svar_first_pick_max_prior_target_variance(self):
        model, _ = random_instance(32, n_per_type=(5, 5))
        state = select_svar(model, 1)
        assert state.selected[0].type_index == 0
        # stationary kernel: every prior variance ties, lexicographic pick
        targets = list(model.candidates.tuples[model.type_slices[0]])
        assert state.selected[0] == min(targets, key=lambda t: t.sort_key)

    def test_smi_never_selects_auxiliary_and_first_gain_nonnegative(self):
        model, cache = random_instance(33, n_per_type=(6, 4))
        state = select_smi(model, 4)
        assert all(t.type_index == 0 for t in state.selected)
        # the first increment is a mutual information, hence nonnegative;
        # later increments of this objective can legitimately go negative
        assert state.gains[0] >= -1e-10

    def test_smi_first_pick_interior_on_grid(self):
        model, _ = _grid_model(n=9, m=3)
        smi = select_smi(model, 1)
        svar = select_svar(model, 1)
        first = smi.selected[0].location[0]
        assert 0.0 < first < 8.0
        assert svar.selected[0].location[0] == 0.0

    @pytest.mark.parametrize("select", [select_smi, select_svar])
    def test_budget_guard_on_target_pool(self, select):
        model, _ = random_instance(34, n_per_type=(3, 5))
        with pytest.raises(ConfigError):
            select(model, 4)

    @pytest.mark.parametrize("kind", ["s-mi", "s-var"])
    @pytest.mark.parametrize("seed, n_per_type, target_type, budget, refit", SCRATCH_CASES)
    def test_matches_scratch_algorithm(self, kind, seed, n_per_type, target_type,
                                       budget, refit):
        model, refit_h, n = _scratch_case(seed, n_per_type, target_type, budget, refit)
        select = select_smi if kind == "s-mi" else select_svar
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = select(model, n, refit_h)
        reference = oracles.select_single_output_scratch(model, n, kind, refit_h)
        assert state.selected == reference.selected
        assert len(state.selected) == n
        for gain, expected in zip(state.gains, reference.gains):
            assert gain == pytest.approx(expected, rel=0, abs=1e-9)

    @pytest.mark.parametrize("case", sorted(DENSE_DOWNDATE_CASES))
    def test_smi_matches_dense_downdate_bitwise(self, monkeypatch, case):
        # s-MI downdates only the inverse entries it reads, with the dense
        # downdate's operations in its order: every score is bit-equal,
        # mirror ties included
        model, refit_h, n = DENSE_DOWNDATE_CASES[case]()
        scores = {"lazy": [], "dense": []}
        _after_each_score(monkeypatch, selector, lambda x, _: scores["lazy"].append(x.copy()))
        _after_each_score(monkeypatch, oracles, lambda x, _: scores["dense"].append(x.copy()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = select_smi(model, n, refit_h)
            reference = oracles.select_smi_dense(model, n, refit_h)
        assert len(state.selected) == n
        assert state.selected == reference.selected
        assert state.gains == reference.gains
        assert len(scores["lazy"]) == len(scores["dense"]) == n
        for lazy, dense in zip(scores["lazy"], scores["dense"]):
            assert np.array_equal(lazy, dense)

    @pytest.mark.parametrize("kind", ["s-mi", "s-var"])
    @pytest.mark.parametrize("case", sorted(SINGLE_OUTPUT_CASES))
    def test_incremental_scores_match_the_recompute(self, monkeypatch, kind, case):
        # the downdated variances score every free candidate within 1e-12 of
        # the from-scratch recompute at every pick, far inside TIE_ATOL, so
        # the near set holds the pick a recompute at every pick makes; the
        # recompute, of the whole pool or of the near set alone, is bit-equal
        # to the oracle's whole-pool einsum
        model, refit_h, n = SINGLE_OUTPUT_CASES[case]()
        pools = oracles._ScratchPools(model, refit_h)
        t = model.h.target_type
        s = model.type_slices[t]
        gaps, bitwise = [], []

        def probe(pick_scores, exact):
            free = np.flatnonzero(np.isfinite(pick_scores))
            recomputed = exact(free)
            gaps.append(float(np.max(np.abs(pick_scores[free] - recomputed))))
            near = pick_scores[free] >= pick_scores.max() - selector.TIE_ATOL
            if kind == "s-var":
                picked = np.flatnonzero(np.isinf(pick_scores[s]))
                var = pools.posterior_var(t, list(picked))[free - s.start]
                whole = 0.5 * (oracles.LOG_2PI_E + np.log(var))
                bitwise.append(np.array_equal(recomputed, whole))
            bitwise.append(np.array_equal(exact(free[near]), recomputed[near]))

        _after_each_score(monkeypatch, selector, probe)
        select = select_smi if kind == "s-mi" else select_svar
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            select(model, n, refit_h)
        assert len(gaps) == n
        assert max(gaps) <= 1e-12
        assert all(bitwise)

    # the other pools' picks are checked against the same oracle above, but
    # for s-MI on the mirror-symmetric pools: there its downdated inverse
    # and the oracle's refactorization can round the leave-one-out variances
    # of mirror candidates apart differently, and which way moves with the
    # BLAS thread count (selector's module notes)
    @pytest.mark.parametrize("kind, case", [("s-var", "one-type-1000")] + [
        (kind, case) for kind in ("s-mi", "s-var") for case in sorted(REGIME_CASES)
    ])
    def test_incremental_picks_match_the_rebuild(self, kind, case):
        model, refit_h, n = SINGLE_OUTPUT_CASES[case]()
        select = select_smi if kind == "s-mi" else select_svar
        state = select(model, n, refit_h)
        reference = oracles.select_single_output_scratch(model, n, kind, refit_h)
        assert state.selected == reference.selected

    @pytest.mark.parametrize("select", [select_smi, select_svar])
    def test_recompute_solves_only_the_near_set(self, monkeypatch, select):
        # a pick solves against the columns of its near ties alone, never
        # against the whole target pool
        pool, budget = 600, 30
        model = _one_type_pool(pool)
        events = []

        def probe(pick_scores, _):
            near = pick_scores >= pick_scores.max() - selector.TIE_ATOL
            events.append(("near", int(np.count_nonzero(near))))

        solve = SpdFactor.solve

        def spy(self, b):
            events.append(("solve", b.shape[1]))
            return solve(self, b)

        _after_each_score(monkeypatch, selector, probe)
        monkeypatch.setattr(SpdFactor, "solve", spy)
        select(model, budget)
        kinds = [kind for kind, _ in events]
        assert kinds.count("near") == budget
        assert "solve" in kinds
        near = None
        for kind, width in events:
            if kind == "near":
                near = width
            else:
                assert width <= near < pool

    def test_smi_holds_two_pool_squares_between_picks(self, monkeypatch):
        # between picks s-MI keeps the prior and its inverse, and per pick
        # only a row and a column of the inverse, not a third |V_t|^2 array
        pool, budget = 600, 30
        model = _one_type_pool(pool)
        held = []
        _after_each_score(
            monkeypatch, selector,
            lambda *_: held.append(tracemalloc.get_traced_memory()[0]),
        )
        tracemalloc.start()
        try:
            select_smi(model, budget)
        finally:
            tracemalloc.stop()
        assert len(held) == budget
        assert max(held) / (8 * pool**2) < 2.5

    def test_smi_peaks_below_two_and_a_half_pool_squares(self):
        # the prior and the inverse, which is made in the factor's buffer;
        # the inverse is built with no identity to solve against
        pool, budget = 600, 30
        model = _one_type_pool(pool)
        tracemalloc.start()
        try:
            select_smi(model, budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8 * pool**2) < 2.5

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan])
    def test_bad_inverse_diagonal_raises(self, monkeypatch, value):
        # a leave-one-out variance 1 / P[j, j] is checked before it is scored
        # or pivots a downdate, with no RuntimeWarning on a zero P[j, j]
        model, _ = random_instance(33, n_per_type=(6, 4))
        spd_inverse = selector.spd_inverse

        def corrupted(a, name):
            inverse = spd_inverse(a, name)
            inverse[2, 2] = value
            return inverse

        monkeypatch.setattr(selector, "spd_inverse", corrupted)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllConditionedError, match="leave-one-out variance"):
                select_smi(model, 3)

    @pytest.mark.parametrize("select", [select_smi, select_svar])
    def test_single_output_hypers_must_have_one_type(self, select):
        model, _ = _grid_model(n_types=2)
        with pytest.raises(ConfigError, match="^single-output pools need one-type "
                                              "hyperparameters$"):
            select(model, 2, model.h)

    @pytest.mark.parametrize("select", [select_smi, select_svar])
    def test_numerically_singular_pool_raises(self, select):
        # eight targets 1e-3 apart under a wide kernel with noise 1e-20: the
        # single-output prior is singular to working precision, so a
        # variance reaches zero or below before the pool is exhausted
        h = Hyperparams(signal_var=[1.0], noise_var=[0.2], latent_prec_inv=[0.5],
                        smooth_prec_inv=[[0.3]])
        cands = {0: [as_tuple([1e-3 * k], 0) for k in range(8)]}
        model = build_model(h, InducingSet(locations=[[0.0]]), cands)
        so = Hyperparams(signal_var=[1.0], noise_var=[1e-20], latent_prec_inv=[1.0],
                         smooth_prec_inv=[[1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllConditionedError):
                select(model, 8, so)


# one type whose kernel width is 0.5 + 0.25 + 0.25 = 1: ell = 1, xi = exp(-1/2)
H_SPACING = Hyperparams(
    signal_var=[1.0], noise_var=[0.1], latent_prec_inv=[0.5], smooth_prec_inv=[[0.25]],
)


class TestSpacing:
    """The paper's spacing multiplier (``oracles.min_spacing_p``)."""

    def test_min_spacing_frozen_value(self):
        p = oracles.min_spacing_p(H_SPACING, 10, epsilon1=0.01)
        assert p == pytest.approx(3.399861524123487, rel=1e-8)

    def test_min_spacing_satisfies_inequality_minimally(self):
        n, eps1, s2s, s2n, xi = 10, 0.01, 1.0, 0.1, math.exp(-0.5)
        p = oracles.min_spacing_p(H_SPACING, n, epsilon1=eps1)

        def holds(pp):
            inner = min(s2n / n, 0.5 * (math.sqrt(eps1**2 + 4 * eps1 * s2n / n) - eps1))
            return pp * pp > math.log(inner / (2 * s2s)) / math.log(xi)

        assert holds(p)
        assert not holds(p * (1 - 1e-6))

    def test_monotone_in_epsilon1(self):
        ps = [oracles.min_spacing_p(H_SPACING, 10, epsilon1=e) for e in (0.001, 0.01, 0.1, 1.0)]
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_monotone_in_budget(self):
        ps = [oracles.min_spacing_p(H_SPACING, n, epsilon1=0.01) for n in (1, 5, 10, 50)]
        assert all(a <= b for a, b in zip(ps, ps[1:]))

    def test_largest_width_and_extreme_variances(self):
        # two types reduce to one with the widest kernel (0.1 + 0.2 + 0.2),
        # the largest signal and the smallest noise variance
        h = Hyperparams(
            signal_var=[1.0, 2.0], noise_var=[0.2, 0.3],
            latent_prec_inv=[0.1], smooth_prec_inv=[[0.2], [0.05]],
        )
        one = Hyperparams(
            signal_var=[2.0], noise_var=[0.2], latent_prec_inv=[0.1], smooth_prec_inv=[[0.2]],
        )
        assert oracles.min_spacing_p(h, 5, epsilon1=0.05) == oracles.min_spacing_p(
            one, 5, epsilon1=0.05
        )


class TestProp1Bound:
    """The library's gains against Proposition 1's bound (``oracles.prop1_bound``)."""

    def test_bounds_measured_gain_on_spaced_instance(self):
        model, cache = _grid_model(n=6, m=3, n_types=2, noise=(0.3, 0.2))
        targets = list(model.candidates.tuples[model.type_slices[0]])
        for aux in model.candidates.tuples[model.type_slices[1]]:
            gain = oracles.greedy_gain(model, cache, [], aux)
            assert gain <= oracles.prop1_bound(model, aux, targets) + 1e-9

    def test_empty_remainder_is_zero(self):
        # with every target tuple selected an auxiliary pick carries no
        # information about the target pool, and the bound is 0 as well
        model, cache = random_instance(41, n_per_type=(3, 3))
        targets = list(model.candidates.tuples[model.type_slices[0]])
        for aux in model.candidates.tuples[model.type_slices[1]]:
            assert oracles.prop1_bound(model, aux, []) == 0.0
            assert oracles.greedy_gain(model, cache, targets, aux) == pytest.approx(0.0, abs=1e-12)


class TestSelectionLog:
    def test_round_trip_csv(self, tmp_path):
        model, cache = random_instance(51, n_per_type=(3, 3))
        state = select_greedy(model, cache, 4)
        path = tmp_path / "log.csv"
        write_selection_log(state, path, dim=1)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,type_index,x0,gain,cumulative_objective"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[1] == str(state.selected[0].type_index)
        assert float(first[2]) == state.selected[0].location[0]
