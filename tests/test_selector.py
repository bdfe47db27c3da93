import math
import warnings

import numpy as np
import pytest

import oracles
from mogpal import (
    ConfigError, DomainError, GainEvaluator, Hyperparams, IllConditionedError, as_tuple,
    build_cache, build_model,
)
from mogpal.pitc import InducingSet, select_inducing
from mogpal.selector import (
    SpacingParams,
    construct_spaced_candidates,
    min_spacing_p,
    prop1_bound,
    select_greedy,
    select_mvar,
    select_smi,
    select_svar,
    write_selection_log,
)
from conftest import random_hyperparams, random_instance


def _grid_model(n=8, m=3, n_types=1, seed=0, target_types=(0,), noise=(0.2, 0.12)):
    h = Hyperparams(
        signal_var=[1.0] * n_types,
        noise_var=list(noise[:n_types]),
        latent_prec_inv=[0.5],
        smooth_prec_inv=[[0.3]] * n_types,
        target_types=target_types,
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
        smooth_prec_inv=[[0.1], [0.1]], target_types=(0,),
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
    "two-types": (lambda: random_instance(83, n_per_type=(12, 10), n_inducing=4), 10),
    "three-types-two-targets-whole-pool": (
        lambda: random_instance(84, n_per_type=(5, 6, 4), target_types=(0, 1)), 15,
    ),
    "three-types-two-targets": (
        lambda: random_instance(85, n_per_type=(12, 10, 8), target_types=(0, 2)), 14,
    ),
    "two-targets-no-auxiliary": (
        lambda: random_instance(86, n_per_type=(7, 7), target_types=(0, 1)), 14,
    ),
    "symmetric-grid": (lambda: _grid_model(n=9, m=3), 9),
    "symmetric-grid-two-types": (
        lambda: _grid_model(n=8, m=3, n_types=2, noise=(0.2, 0.2)), 16,
    ),
    "tie-instance": (_tie_model, 6),
    "experiment-grid": (_experiment_grid_model, 40),
}


class TestIncrementalGainState:
    @pytest.mark.parametrize("algorithm", ["m-greedy", "m-var"])
    @pytest.mark.parametrize("case", sorted(REBUILD_CASES))
    def test_matches_per_pick_rebuild(self, algorithm, case):
        build, budget = REBUILD_CASES[case]
        model, cache = build()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if algorithm == "m-greedy":
                state = select_greedy(model, cache, budget)
                reference = oracles.select_greedy_scratch(model, cache, budget)
            else:
                state = select_mvar(model, budget, cache)
                reference = oracles.select_mvar_scratch(model, budget, cache)
        assert state.selected == reference.selected
        for (_, gain), (_, expected) in zip(state.gain_log, reference.gain_log):
            assert gain == pytest.approx(expected, rel=0, abs=1e-9)

    @pytest.mark.parametrize("algorithm", ["m-greedy", "m-var"])
    def test_nan_variance_raises(self, algorithm):
        # NaN <= 0 is false, so a NaN variance used to pass the positivity
        # check and win the argmax as a silent pick
        model, cache = random_instance(87, n_per_type=(5, 5))
        model.C[0][2, 2] = np.nan
        with pytest.raises(IllConditionedError):
            if algorithm == "m-greedy":
                select_greedy(model, cache, 3)
            else:
                select_mvar(model, 3, cache)

    def test_nan_pivot_raises(self):
        model, cache = random_instance(87, n_per_type=(5, 5))
        model.C[0][2, 2] = np.nan
        with pytest.raises(IllConditionedError):
            GainEvaluator(model, cache).set_state([]).add(model.candidates.tuples[2])


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
        assert sa.gain_log == sb.gain_log

    def test_gains_nonnegative_above_noise_floor(self):
        for seed in range(6):
            model, cache = random_instance(seed, n_per_type=(4, 4))
            state = select_greedy(model, cache, 6)
            assert all(g >= -1e-10 for _, g in state.gain_log)

    def test_matches_single_output_entropy_when_one_type(self):
        for seed in range(20):
            model, cache = random_instance(seed + 500, n_per_type=(7,), n_inducing=3)
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
            target_types=(0,),
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
        from mogpal import criterion_F

        model, cache = random_instance(9, n_per_type=(4, 4))
        state = select_greedy(model, cache, 5)
        assert state.cumulative[-1] == pytest.approx(
            criterion_F(model, cache, state.selected), abs=1e-6
        )


class TestSelectMvar:
    def test_first_pick_is_max_prior_variance(self):
        model, cache = random_instance(21, n_per_type=(5, 5))
        state = select_mvar(model, 1, cache)
        prior = model.prior_diag()
        assert state.selected[0] == model.candidates.tuples[int(np.argmax(prior))]

    def test_tie_break_lexicographic_under_symmetry(self):
        # identical hyperparameters for both types: every prior variance
        # ties, so the first pick is the lexicographically smallest tuple
        model, _ = _tie_model()
        state = select_mvar(model, 1)
        assert state.selected[0] == as_tuple([0.0], 0)

    def test_differs_from_greedy_on_uninformative_auxiliary(self):
        # auxiliary type with huge variance but no correlation to the
        # target: max-variance chases it, the objective does not
        h = Hyperparams(
            signal_var=[1.0, 25.0],
            noise_var=[0.2, 3.0],
            latent_prec_inv=[0.4],
            smooth_prec_inv=[[0.1], [500.0]],
            target_types=(0,),
        )
        cands = {i: [as_tuple([float(k)], i) for k in range(6)] for i in range(2)}
        locs = np.array([[float(k)] for k in range(6)])
        model = build_model(h, select_inducing(locs, 3, seed=1), cands)
        cache = build_cache(model)
        mvar = select_mvar(model, 4, cache)
        greedy = select_greedy(model, cache, 4)
        assert all(t.type_index == 1 for t in mvar.selected)
        assert all(t.type_index == 0 for t in greedy.selected)


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
        targets = model.candidate_list([0])
        assert state.selected[0] == min(targets, key=lambda t: t.sort_key)

    def test_smi_never_selects_auxiliary_and_first_gain_nonnegative(self):
        model, cache = random_instance(33, n_per_type=(6, 4))
        state = select_smi(model, 4)
        assert all(t.type_index == 0 for t in state.selected)
        # the first increment is a mutual information, hence nonnegative;
        # later increments of this objective can legitimately go negative
        assert state.gain_log[0][1] >= -1e-10

    def test_smi_first_pick_interior_on_grid(self):
        model, _ = _grid_model(n=9, m=3)
        smi = select_smi(model, 1)
        svar = select_svar(model, 1)
        first = smi.selected[0].location[0]
        assert 0.0 < first < 8.0
        assert svar.selected[0].location[0] == 0.0

    def test_budget_guard_on_target_pool(self):
        model, _ = random_instance(34, n_per_type=(3, 5))
        with pytest.raises(ConfigError):
            select_svar(model, 4)

    @pytest.mark.parametrize("kind", ["s-mi", "s-var"])
    @pytest.mark.parametrize(
        "seed, n_per_type, target_types, budget, refit",
        [
            (61, (5, 4), (0,), 9, False),
            (62, (20, 6), (0,), 8, False),
            (63, (40, 5), (0,), 40, False),
            (64, (5, 5), (0, 1), 10, False),
            (65, (12, 30, 4), (0, 1), 20, False),
            (66, (40, 25, 6), (0, 1), 65, False),
            (67, (15, 10, 5), (0, 1), 25, True),
        ],
    )
    def test_matches_scratch_algorithm(self, kind, seed, n_per_type, target_types,
                                       budget, refit):
        model, _ = random_instance(seed, n_per_type=n_per_type, target_types=target_types)
        refits = None
        if refit:
            rng = np.random.default_rng(seed)
            refits = {t: random_hyperparams(rng, n_types=1) for t in target_types}
        select = select_smi if kind == "s-mi" else select_svar
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = select(model, budget, refits, cap_to_pool=True)
        reference = oracles.select_single_output_scratch(
            model, budget, kind, refits, cap_to_pool=True
        )
        assert state.selected == reference.selected
        assert len(state.selected) == min(
            budget, sum(n_per_type[t] for t in target_types)
        )
        for (_, gain), (_, expected) in zip(state.gain_log, reference.gain_log):
            assert gain == pytest.approx(expected, rel=0, abs=1e-9)

    @pytest.mark.parametrize("select", [select_smi, select_svar])
    def test_numerically_singular_pool_raises(self, select):
        # eight targets 1e-3 apart under a wide kernel with noise 1e-20: the
        # single-output prior is singular to working precision, so a
        # variance reaches zero or below before the pool is exhausted
        h = Hyperparams(signal_var=[1.0], noise_var=[0.2], latent_prec_inv=[0.5],
                        smooth_prec_inv=[[0.3]])
        cands = {0: [as_tuple([1e-3 * k], 0) for k in range(8)]}
        model = build_model(h, InducingSet(locations=[[0.0]]), cands)
        so = {0: Hyperparams(signal_var=[1.0], noise_var=[1e-20], latent_prec_inv=[1.0],
                             smooth_prec_inv=[[1.0]])}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllConditionedError):
                select(model, 8, so)


class TestSpacing:
    def test_min_spacing_frozen_value(self):
        sp = SpacingParams(
            omega=1.0, epsilon1=0.01, ell=1.0, sig2_s_max=1.0, sig2_n_min=0.1
        )
        p = min_spacing_p(sp, 10)
        assert p == pytest.approx(3.399861524123487, rel=1e-8)

    def test_min_spacing_satisfies_inequality_minimally(self):
        sp = SpacingParams(
            omega=1.0, epsilon1=0.01, ell=1.0, sig2_s_max=1.0, sig2_n_min=0.1
        )
        n = 10
        p = min_spacing_p(sp, n)

        def holds(pp):
            inner = min(
                sp.sig2_n_min / n,
                0.5 * (math.sqrt(sp.epsilon1**2 + 4 * sp.epsilon1 * sp.sig2_n_min / n)
                       - sp.epsilon1),
            )
            return pp * pp > math.log(inner / (2 * sp.sig2_s_max)) / math.log(sp.xi)

        assert holds(p)
        assert not holds(p * (1 - 1e-6))

    def test_monotone_in_epsilon1(self):
        base = dict(omega=1.0, ell=1.0, sig2_s_max=1.0, sig2_n_min=0.1)
        ps = [
            min_spacing_p(SpacingParams(epsilon1=e, **base), 10)
            for e in (0.001, 0.01, 0.1, 1.0)
        ]
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_monotone_in_budget(self):
        base = dict(omega=1.0, ell=1.0, sig2_s_max=1.0, sig2_n_min=0.1)
        sp = SpacingParams(epsilon1=0.01, **base)
        ps = [min_spacing_p(sp, n) for n in (1, 5, 10, 50)]
        assert all(a <= b for a, b in zip(ps, ps[1:]))

    def test_from_hyperparams_largest_width(self):
        h = Hyperparams(
            signal_var=[1.0, 2.0], noise_var=[0.2, 0.3],
            latent_prec_inv=[0.1], smooth_prec_inv=[[0.2], [0.05]],
        )
        sp = SpacingParams.from_hyperparams(h, omega=1.0, epsilon1=0.05)
        assert sp.ell == pytest.approx(0.1 + 0.2 + 0.2)
        assert sp.sig2_s_max == 2.0
        assert sp.sig2_n_min == pytest.approx(0.2)

    def test_packing_keeps_every_second_grid_point(self):
        tuples = [as_tuple([float(k)], 0) for k in range(10)]
        sp = SpacingParams(
            omega=1.0, epsilon1=0.01, ell=1.0, sig2_s_max=1.0, sig2_n_min=0.1, p=2.0
        )
        kept = construct_spaced_candidates(tuples, sp)
        assert [t.location[0] for t in kept] == [0.0, 2.0, 4.0, 6.0, 8.0]

    def test_packing_huge_spacing_keeps_one(self):
        tuples = [as_tuple([float(k)], 0) for k in range(10)]
        sp = SpacingParams(
            omega=1.0, epsilon1=0.01, ell=1.0, sig2_s_max=1.0, sig2_n_min=0.1, p=100.0
        )
        assert len(construct_spaced_candidates(tuples, sp)) == 1

    def test_packing_tiny_spacing_one_type_per_location(self):
        tuples = [as_tuple([float(k)], i) for k in range(4) for i in (0, 1)]
        sp = SpacingParams(
            omega=1.0, epsilon1=0.01, ell=1.0, sig2_s_max=1.0, sig2_n_min=0.1, p=1e-9
        )
        kept = construct_spaced_candidates(tuples, sp)
        assert len(kept) == 4
        assert len({t.location for t in kept}) == 4

    def test_packing_requires_positive_spacing(self):
        sp = SpacingParams(
            omega=1.0, epsilon1=0.01, ell=1.0, sig2_s_max=1.0, sig2_n_min=0.1, p=0.0
        )
        with pytest.raises(ConfigError):
            construct_spaced_candidates([as_tuple([0.0], 0)], sp)


class TestProp1Bound:
    def test_empty_remainder_is_zero(self):
        model, _ = random_instance(41, n_per_type=(3, 3))
        aux = model.candidate_list([1])[0]
        assert prop1_bound(model, aux, []) == 0.0

    def test_rejects_target_candidate(self):
        model, _ = random_instance(42, n_per_type=(3, 3))
        tgt = model.candidate_list([0])[0]
        with pytest.raises(DomainError):
            prop1_bound(model, tgt, [])

    def test_bounds_measured_gain_on_spaced_instance(self):
        from mogpal import greedy_gain

        model, cache = _grid_model(n=6, m=3, n_types=2, noise=(0.3, 0.2))
        targets = model.candidate_list([0])
        for aux in model.candidate_list([1]):
            gain = greedy_gain(model, cache, [], aux)
            bound = prop1_bound(model, aux, targets)
            assert gain <= bound + 1e-9

    def test_matches_scalar_formula(self):
        model, _ = random_instance(43, n_per_type=(4, 4))
        h = model.h
        aux = model.candidate_list([1])[1]
        targets = model.candidate_list([0])[:3]
        rho = h.signal_var / h.noise_var
        r_sum = sum(
            oracles.gd(
                [a - b for a, b in zip(aux.location, q.location)],
                [h.latent_prec_inv[0] + h.smooth_prec_inv[1][0] + h.smooth_prec_inv[0][0]],
            ) ** 2
            for q in targets
        )
        expected = 0.5 * math.log(1 + 4 * rho[0] * rho[1] * r_sum)
        assert prop1_bound(model, aux, targets) == pytest.approx(expected, rel=1e-10)


class TestSelectionLog:
    def test_round_trip_csv(self, tmp_path):
        model, cache = random_instance(51, n_per_type=(3, 3))
        state = select_greedy(model, cache, 4)
        path = tmp_path / "log.csv"
        write_selection_log(state, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,type_index,x0,gain,cumulative_objective"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[1] == str(state.selected[0].type_index)
        assert float(first[2]) == state.selected[0].location[0]
