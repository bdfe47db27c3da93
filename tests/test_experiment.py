import csv
import inspect
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import oracles
from mogpal import ConfigError, Hyperparams, as_tuple, cli, experiment, kernels, verify
from mogpal.cli import main as cli_main
from mogpal.config import (
    ExperimentConfig,
    GeneratorSpec,
    VerifySweepConfig,
    load_experiment_config,
    load_hyperparams,
    load_verify_config,
    save_hyperparams,
)
from mogpal.data import normalize, save_dataset, split_test
from mogpal.experiment import (
    ResultRow,
    ResultTable,
    generate_synthetic,
    load_experiment_dataset,
    run_experiment,
    verify_sweep,
)
from mogpal.hyperlearn import fit_hyperparams, log_marginal_likelihood
from mogpal.kernels import TupleArray, TypedLocation
from mogpal.linalg import chol_spd
from mogpal.pitc import build_model

H2 = Hyperparams(
    signal_var=[1.0, 0.8], noise_var=[0.25, 0.1],
    latent_prec_inv=[2.0], smooth_prec_inv=[[0.1], [0.1]],
    target_type=0,
)

CONFIG_TEXT = """[experiment]
name = smoke
seed = 3
repeats = 2
algorithms = m-greedy, s-var
checkpoints = 2, 4
inducing_count = 5
output_dir = {out}

[split]
target_types = 0
test_count = 5

[synthetic]
layout = grid
n_locations = 14
extent = 10

[hyperparams]
types = 2
dim = 1
target_types = 0
signal_var = 1.0, 0.8
noise_var = 0.25, 0.1
latent_prec_inv = 2.0
smooth_prec_inv.0 = 0.1
smooth_prec_inv.1 = 0.1
"""

SYNTHETIC = "[synthetic]\nlayout = grid\nn_locations = 14\nextent = 10\n"
DATA = "[data]\ndataset = missing.csv\nschema = missing.schema\n"
THREE_TYPES = "[data]\ndataset = three.csv\nschema = three.schema\n"
PLANE = "[data]\ndataset = plane.csv\nschema = plane.schema\n"
TWO_TYPES = "[data]\ndataset = two.csv\nschema = two.schema\n"
ONE_TYPE = "[data]\ndataset = one.csv\nschema = one.schema\n"


def _one_type(text):
    """``CONFIG_TEXT`` with one measurement type in place of two."""
    return (text.replace("types = 2", "types = 1")
            .replace("signal_var = 1.0, 0.8", "signal_var = 1.0")
            .replace("noise_var = 0.25, 0.1", "noise_var = 0.25")
            .replace("smooth_prec_inv.1 = 0.1\n", ""))


def _saved(dataset, path):
    """The bytes ``save_dataset`` writes for ``dataset`` at ``path``."""
    save_dataset(dataset, path)
    return path.read_bytes()


class TestHyperparamsConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "h.ini"
        save_hyperparams(H2, path)
        back = load_hyperparams(path)
        assert np.array_equal(back.signal_var, H2.signal_var)
        assert np.array_equal(back.noise_var, H2.noise_var)
        assert np.array_equal(back.smooth_prec_inv, H2.smooth_prec_inv)
        assert back.target_type == H2.target_type

    def test_round_trip_keeps_dim(self, tmp_path):
        h = Hyperparams(signal_var=[1.0], noise_var=[0.2], latent_prec_inv=[0.5, 2.0],
                        smooth_prec_inv=[[0.1, 0.3]])
        path = tmp_path / "h.ini"
        save_hyperparams(h, path)
        back = load_hyperparams(path)
        assert back.dim == 2
        assert np.array_equal(back.latent_prec_inv, h.latent_prec_inv)
        assert np.array_equal(back.smooth_prec_inv, h.smooth_prec_inv)
        # the saved dim is checked against the latent_prec_inv entries
        path.write_text(path.read_text().replace("dim = 2", "dim = 1"))
        with pytest.raises(ConfigError, match="hyperparams.dim: 1, but latent_prec_inv has 2"):
            load_hyperparams(path)

    def test_fit_extras_ignored_on_load(self, tmp_path):
        path = tmp_path / "h.ini"
        save_hyperparams(H2, path, extras={"final_nll": 1.25, "converged": True})
        back = load_hyperparams(path)
        assert back.n_types == 2


class TestConfigDefaults:
    def test_minimal_ini_loads_the_dataclass_defaults(self, tmp_path):
        # every key a file leaves out takes the default of its dataclass field
        path = tmp_path / "minimal.ini"
        path.write_text(
            "[experiment]\n[synthetic]\nn_locations = 40\n[hyperparams]\ntypes = 1\n"
            "signal_var = 1.0\nnoise_var = 0.25\nlatent_prec_inv = 2.0\nsmooth_prec_inv.0 = 0.1\n"
        )
        config = load_experiment_config(path)
        for f in fields(ExperimentConfig):
            if f.name not in ("hyperparams", "synthetic"):
                assert getattr(config, f.name) == f.default, f.name
        for f in fields(GeneratorSpec):
            if f.name != "n_locations":
                assert getattr(config.synthetic, f.name) == f.default, f.name
        defaults = {f.name: f.default for f in fields(Hyperparams)}
        assert config.hyperparams.target_type == defaults["target_type"]
        path.write_text("[verify]\n")
        sweep = load_verify_config(path)
        for f in fields(VerifySweepConfig):
            assert getattr(sweep, f.name) == f.default, f.name

    def test_fit_budget_default_is_the_config_default(self):
        budget = inspect.signature(fit_hyperparams).parameters["budget"].default
        assert budget == {f.name: f.default for f in fields(ExperimentConfig)}["fit_budget"]


class TestGenerateSynthetic:
    def test_seed_determinism(self):
        spec = GeneratorSpec(n_locations=12, extent=5.0)
        a = generate_synthetic(spec, H2)(7)
        b = generate_synthetic(spec, H2)(7)
        assert np.array_equal(a.values, b.values)

    def test_size_guard(self):
        spec = GeneratorSpec(n_locations=1500, extent=5.0)
        with pytest.raises(ConfigError):
            generate_synthetic(spec, H2)(0)

    def test_grid_is_one_dimensional(self):
        h = Hyperparams(signal_var=[1.0], noise_var=[0.2], latent_prec_inv=[0.5, 2.0],
                        smooth_prec_inv=[[0.1, 0.3]])
        with pytest.raises(ConfigError, match="grid layout is one-dimensional"):
            generate_synthetic(GeneratorSpec(n_locations=5), h)(0)

    def test_tiny_signal_gives_noise_columns(self):
        h = Hyperparams(
            signal_var=[1e-12, 1e-12], noise_var=[0.25, 0.1],
            latent_prec_inv=[2.0], smooth_prec_inv=[[0.1], [0.1]],
        )
        spec = GeneratorSpec(n_locations=400, extent=50.0)
        ds = generate_synthetic(spec, h)(0)
        for ti, nv in enumerate(h.noise_var):
            _, vals = ds.measured(ti)
            assert float(np.var(vals)) == pytest.approx(nv, rel=0.35)

    @pytest.mark.parametrize("layout, dim", [("grid", 1), ("uniform", 1), ("uniform", 2)],
                             ids=["grid", "uniform", "uniform-2d"])
    def test_prior_factor_bitwise_old_expression(self, monkeypatch, layout, dim):
        h = Hyperparams(signal_var=H2.signal_var, noise_var=H2.noise_var,
                        latent_prec_inv=[2.0] * dim, smooth_prec_inv=[[0.1] * dim] * 2)
        factors = []

        def spy(a, name="matrix"):
            factors.append(chol_spd(a, name))
            return factors[-1]

        monkeypatch.setattr(experiment, "chol_spd", spy)
        spec = GeneratorSpec(n_locations=60, extent=5.0, layout=layout)
        sample = generate_synthetic(spec, h)
        seeds = (4, 5, 11)
        for seed in seeds:
            ds = sample(seed)
            coords, lower, values = _reference_draw(spec, h, seed)
            assert ds.coords.shape == (60, dim)
            assert np.array_equal(ds.coords, coords)
            assert np.array_equal(factors[-1].lower, lower)
            assert np.array_equal(ds.values, values)
        # a grid prior is factored once for every seed, a uniform one per draw
        assert len(factors) == (1 if layout == "grid" else len(seeds))

    def test_grid_draws_share_read_only_coords(self):
        sample = generate_synthetic(GeneratorSpec(n_locations=12, extent=5.0), H2)
        a, b = sample(1), sample(2)
        assert a.coords is b.coords
        with pytest.raises(ValueError, match="read-only"):
            a.coords[0, 0] = 1.0
        assert b.coords[0, 0] == 0.0

    def test_sample_covariance_matches_kernel(self):
        # Monte-Carlo oracle: repeated draws at two fixed tuples
        spec = GeneratorSpec(n_locations=2, extent=1.0)
        p = as_tuple([0.0], 0)
        q = as_tuple([1.0], 1)
        sample = generate_synthetic(spec, H2)
        draws = []
        for seed in range(500):
            ds = sample(seed)
            draws.append([ds.values[(0, 0)], ds.values[(1, 1)]])
        draws = np.asarray(draws)
        sample_cov = float(np.cov(draws[:, 0], draws[:, 1])[0, 1])
        expected = oracles.out_cov(p, q, H2)
        var0 = oracles.out_cov(p, p, H2)
        var1 = oracles.out_cov(q, q, H2)
        stderr = np.sqrt((var0 * var1 + expected**2) / 500)
        assert abs(sample_cov - expected) <= 3 * stderr


def _reference_draw(spec, h, seed):
    """Coordinates, prior factor and values of one draw computed from scratch
    for ``seed``: its own locations, its own prior factor, then the two
    normal draws.  Every sampler draw must match it bit for bit."""
    rng = np.random.default_rng(seed)
    if spec.layout == "uniform":
        coords = rng.uniform(0.0, spec.extent, size=(spec.n_locations, h.dim))
    else:
        coords = np.linspace(0.0, spec.extent, spec.n_locations)[:, None]
    tuples = TupleArray.build([
        TypedLocation(tuple(float(c) for c in coords[li]), ti)
        for ti in range(h.n_types) for li in range(spec.n_locations)
    ], h)
    total = len(tuples)
    cov = kernels.cov_matrix(tuples, tuples, h)
    noise = h.noise_var[tuples.types]
    lower = chol_spd(cov - np.diag(noise) + 1e-10 * np.eye(total)).lower
    measured = lower @ rng.standard_normal(total) + rng.standard_normal(total) * np.sqrt(noise)
    n = spec.n_locations
    values = np.empty((n, h.n_types))
    for k, v in enumerate(measured):
        values[k % n, k // n] = v
    return coords, lower, values


def _config(tmp_path, **overrides):
    base = dict(
        seed=1, repeats=2, algorithms=("m-greedy", "s-var"),
        checkpoints=(2, 4), inducing_count=5, test_count=4,
        hyperparams=H2, output_dir=str(tmp_path / "out"),
        synthetic=GeneratorSpec(n_locations=12, extent=8.0),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_row_count_and_order(self, tmp_path):
        table = run_experiment(_config(tmp_path))
        # one row per (algorithm, repeat, checkpoint)
        assert len(table.rows) == 2 * 2 * 2
        keys = [(r.algorithm, r.seed, r.budget) for r in table.rows]
        assert keys == sorted(keys)

    def test_single_run_two_checkpoints(self, tmp_path):
        table = run_experiment(_config(tmp_path, repeats=1, algorithms=("m-greedy",)))
        assert len(table.rows) == 2

    def test_deterministic_result_table(self, tmp_path):
        cfg_a = _config(tmp_path, output_dir=str(tmp_path / "a"))
        cfg_b = _config(tmp_path, output_dir=str(tmp_path / "b"))
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        a = (tmp_path / "a" / "result_table.csv").read_bytes()
        b = (tmp_path / "b" / "result_table.csv").read_bytes()
        assert a == b

    def test_threads_do_not_change_results(self, tmp_path):
        # more repeats than threads: the two threads draw from one grid factor
        cfg_a = _config(tmp_path, repeats=3, output_dir=str(tmp_path / "s1"))
        cfg_b = _config(tmp_path, repeats=3, output_dir=str(tmp_path / "s2"))
        run_experiment(cfg_a, threads=1)
        run_experiment(cfg_b, threads=2)
        a = (tmp_path / "s1" / "result_table.csv").read_bytes()
        b = (tmp_path / "s2" / "result_table.csv").read_bytes()
        assert a == b

    @pytest.mark.parametrize("layout, factors", [("grid", 1), ("uniform", 3)])
    def test_one_sampler_per_run(self, tmp_path, monkeypatch, layout, factors):
        # the benchmark's trace needs generate_synthetic called in every
        # synthetic run; a grid prior is factored once for all 3 repeats
        samplers, names = [], []

        def sampler_spy(spec, h):
            samplers.append(spec)
            return generate_synthetic(spec, h)

        def chol_spy(a, name="matrix"):
            names.append(name)
            return chol_spd(a, name)

        monkeypatch.setattr(experiment, "generate_synthetic", sampler_spy)
        monkeypatch.setattr(experiment, "chol_spd", chol_spy)
        spec = GeneratorSpec(n_locations=12, extent=8.0, layout=layout)
        table = run_experiment(_config(tmp_path, repeats=3, synthetic=spec))
        assert samplers == [spec]
        assert names.count("synthetic prior") == factors
        assert len({r.seed for r in table.rows}) == 3

    def test_selection_logs_written(self, tmp_path):
        cfg = _config(tmp_path, repeats=1)
        run_experiment(cfg)
        out = tmp_path / "out"
        assert (out / "selection_m-greedy_1.csv").exists()
        assert (out / "selection_s-var_1.csv").exists()
        assert (out / "timings.csv").exists()

    def test_timings_accumulate_over_checkpoints(self, tmp_path):
        # 8 target candidates: s-var picks the whole target pool by the last checkpoint
        run_experiment(_config(tmp_path, repeats=1, checkpoints=(2, 5, 8)))
        out = tmp_path / "out"
        with open(out / "timings.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        runs = {}
        for row in rows:
            runs.setdefault((row["algorithm"], row["seed"]), []).append(
                (int(row["budget"]), float(row["wall_ms"]))
            )
        assert sorted(runs) == [("m-greedy", "1"), ("s-var", "1")]
        for (algorithm, seed), points in runs.items():
            log = out / f"selection_{algorithm}_{seed}.csv"
            assert len(log.read_text().splitlines()) - 1 == 8
            assert [budget for budget, _ in points] == [2, 5, 8]
            ms = [ms for _, ms in points]
            assert 0.0 < ms[0] < ms[1] < ms[2]

    def test_no_algorithm_stops_short_of_the_last_checkpoint(self, tmp_path):
        # 8 target candidates: s-var cannot reach 12, and no row claims it did
        with pytest.raises(ConfigError, match="budget 12 exceeds the target candidate pool "
                                              "size 8"):
            run_experiment(_config(tmp_path, repeats=1, checkpoints=(2, 8, 12)))
        assert not (tmp_path / "out" / "result_table.csv").exists()

    def test_checkpoints_nested_prefixes(self, tmp_path):
        # rerunning with a truncated checkpoint list reproduces the shared rows
        cfg_full = _config(tmp_path, repeats=1, output_dir=str(tmp_path / "f"))
        cfg_short = _config(
            tmp_path, repeats=1, checkpoints=(2,), output_dir=str(tmp_path / "s")
        )
        full = run_experiment(cfg_full)
        short = run_experiment(cfg_short)
        for alg in ("m-greedy", "s-var"):
            assert short.mean_rmse(alg, 2) == pytest.approx(full.mean_rmse(alg, 2))

    def test_mean_rmse_of_an_absent_row_names_it(self):
        table = ResultTable(rows=[ResultRow("m-greedy", 1, 2, rmse=0.5, wall_ms=1.0)])
        assert table.mean_rmse("m-greedy", 2) == 0.5
        for algorithm, budget in (("m-var", 2), ("m-greedy", 4)):
            with pytest.raises(KeyError, match=f"^'no rows for {algorithm} at budget {budget}'$"):
                table.mean_rmse(algorithm, budget)

    def test_refit_mode_runs(self, tmp_path):
        cfg = _config(
            tmp_path, repeats=1, algorithms=("s-var",), svar_mode="refit",
            fit_budget=60,
        )
        table = run_experiment(cfg)
        assert len(table.rows) == 2

    def test_fit_never_ends_above_an_anisotropic_start(self, tmp_path, monkeypatch):
        # 2-D, 2-type data with latent widths 400x apart; the run's fit starts
        # at the optimum of the pool its repeat fits on, so whatever it hands
        # to build_model has an NLL at or below that start
        h_true = Hyperparams(
            signal_var=[10.0, 8.0], noise_var=[0.25, 0.1],
            latent_prec_inv=[0.05, 20.0], smooth_prec_inv=[[0.1, 0.1], [0.1, 0.1]],
        )
        spec = GeneratorSpec(n_locations=40, extent=4.0, layout="uniform")
        save_dataset(generate_synthetic(spec, h_true)(0), tmp_path / "d.csv")
        (tmp_path / "d.schema").write_text("[schema]\ncoords = x0, x1\ntypes = type0, type1\n")
        cfg = _config(
            tmp_path, repeats=1, algorithms=("m-greedy",), hyperparams=h_true,
            synthetic=None, dataset_path=str(tmp_path / "d.csv"),
            schema_path=str(tmp_path / "d.schema"), fit_budget=200,
        )
        norm, _ = normalize(load_experiment_dataset(cfg))
        split = split_test(norm, h_true.target_type, cfg.test_count, cfg.seed)

        pool = TupleArray.build(split.pool_tuples, h_true)

        def nll(h):
            return -log_marginal_likelihood(h, pool, split.pool_values)

        start_fit = fit_hyperparams(split.pool_tuples, split.pool_values, h_true)
        assert start_fit.converged
        start = start_fit.h
        seen = []

        def capture(h, *args):
            seen.append(h)
            return build_model(h, *args)

        monkeypatch.setattr(experiment, "build_model", capture)
        run_experiment(replace(cfg, hyperparams=start, fit=True))
        assert len(seen) == 1
        assert nll(seen[0]) <= nll(start) + 1e-9

    def test_dataset_file_mode(self, tmp_path):
        ds = generate_synthetic(GeneratorSpec(n_locations=12, extent=8.0), H2)(0)
        csv_path = tmp_path / "d.csv"
        save_dataset(ds, csv_path)
        schema_path = tmp_path / "d.schema"
        schema_path.write_text("[schema]\ncoords = x0\ntypes = type0, type1\n")
        cfg = _config(
            tmp_path, repeats=1, synthetic=None,
            dataset_path=str(csv_path), schema_path=str(schema_path),
        )
        table = run_experiment(cfg)
        assert len(table.rows) == 4


class TestVerifySweep:
    def test_all_pass_and_report_recomputable(self, tmp_path):
        cfg = VerifySweepConfig(
            instances=5, budget=2, seed=11, pool_shape=(4, 4),
            output_dir=str(tmp_path),
        )
        assert verify_sweep(cfg) == (5, 0)
        lines = (tmp_path / "verify_report.txt").read_text().strip().splitlines()
        assert len(lines) == 6
        for line in lines[:-1]:
            fields = dict(kv.split("=") for kv in line.split())
            recomputed = (1 - 1 / np.e) * (
                float(fields["f_opt"]) - 2 * float(fields["epsilon"])
            )
            assert float(fields["bound"]) == pytest.approx(recomputed, abs=1e-9)
        assert lines[-1] == "summary pass=5 fail=0"

    def test_report_bytes_match_full_enumeration(self, tmp_path, monkeypatch):
        cfg = VerifySweepConfig(instances=6, seed=40, output_dir=str(tmp_path))
        verify_sweep(cfg, out_dir=tmp_path / "tree")
        monkeypatch.setattr(verify, "brute_force_optimum", oracles.brute_force_optimum)
        monkeypatch.setattr(verify, "estimate_epsilon1", oracles.estimate_epsilon1)
        verify_sweep(cfg, out_dir=tmp_path / "oracle")
        report = (tmp_path / "tree" / "verify_report.txt").read_bytes()
        assert report == (tmp_path / "oracle" / "verify_report.txt").read_bytes()
        assert report.endswith(b"summary pass=6 fail=0\n")


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(CONFIG_TEXT.format(out=tmp_path / "out"))
        code = cli_main(["run", "--config", str(cfg)])
        assert code == 0
        assert (tmp_path / "out" / "result_table.csv").exists()
        assert "mean rmse" in capsys.readouterr().out

    def test_run_seed_override_changes_rows(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(CONFIG_TEXT.format(out=tmp_path / "o1"))
        cli_main(["run", "--config", str(cfg)])
        cfg2 = tmp_path / "exp2.ini"
        cfg2.write_text(CONFIG_TEXT.format(out=tmp_path / "o2"))
        cli_main(["run", "--config", str(cfg2), "--seed", "99"])
        a = (tmp_path / "o1" / "result_table.csv").read_text()
        b = (tmp_path / "o2" / "result_table.csv").read_text()
        assert a != b

    def test_synth_subcommand(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(CONFIG_TEXT.format(out=tmp_path / "out"))
        code = cli_main(["synth", "--config", str(cfg), "--out", str(tmp_path / "sy")])
        assert code == 0
        assert (tmp_path / "sy" / "synthetic.csv").exists()
        assert (tmp_path / "sy" / "synthetic.schema").exists()

    def test_fit_subcommand(self, tmp_path):
        # synth a dataset, then fit hyperparameters on it
        cfg = tmp_path / "exp.ini"
        cfg.write_text(CONFIG_TEXT.format(out=tmp_path / "out"))
        cli_main(["synth", "--config", str(cfg), "--out", str(tmp_path / "sy")])
        fit_cfg = tmp_path / "fit.ini"
        fit_cfg.write_text(
            CONFIG_TEXT.format(out=tmp_path / "out").replace(
                "[synthetic]\nlayout = grid\nn_locations = 14\nextent = 10\n",
                f"[data]\ndataset = {tmp_path / 'sy' / 'synthetic.csv'}\n"
                f"schema = {tmp_path / 'sy' / 'synthetic.schema'}\n",
            )
            .replace("inducing_count = 5\n", "inducing_count = 5\nfit_budget = 60\n")
        )
        code = cli_main(["fit", "--config", str(fit_cfg), "--out", str(tmp_path / "fo")])
        assert code == 0
        fitted = load_hyperparams(tmp_path / "fo" / "fitted_hyperparams.ini")
        assert fitted.n_types == 2

    def test_run_out_naming_a_file_fails_before_the_draws(self, tmp_path, capsys,
                                                          monkeypatch):
        draws = []
        monkeypatch.setattr(experiment, "_draw", lambda *args: draws.append(args))
        cfg = tmp_path / "exp.ini"
        cfg.write_text(CONFIG_TEXT.format(out=tmp_path / "out"))
        taken = tmp_path / "taken"
        taken.write_text("")
        assert cli_main(["run", "--config", str(cfg), "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("mogpal run: FileExistsError: ") and err.count("\n") == 1
        assert draws == []

    def test_fit_out_naming_a_file_fails_before_the_fit(self, tmp_path, capsys,
                                                        monkeypatch):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(CONFIG_TEXT.format(out=tmp_path / "out"))
        cli_main(["synth", "--config", str(cfg), "--out", str(tmp_path / "sy")])
        fit_cfg = tmp_path / "fit.ini"
        fit_cfg.write_text(CONFIG_TEXT.format(out=tmp_path / "out").replace(
            SYNTHETIC,
            f"[data]\ndataset = {tmp_path / 'sy' / 'synthetic.csv'}\n"
            f"schema = {tmp_path / 'sy' / 'synthetic.schema'}\n",
        ))
        fits = []
        monkeypatch.setattr(cli, "fit_hyperparams", lambda *args, **kw: fits.append(args))
        taken = tmp_path / "taken"
        taken.write_text("")
        capsys.readouterr()
        assert cli_main(["fit", "--config", str(fit_cfg), "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("mogpal fit: FileExistsError: ") and err.count("\n") == 1
        assert fits == []

    def test_verify_subcommand(self, tmp_path):
        cfg = tmp_path / "v.ini"
        cfg.write_text(
            "[verify]\ninstances = 3\nbudget = 2\nseed = 5\npool_shape = 4, 4\n"
            f"output_dir = {tmp_path / 'vr'}\n"
        )
        code = cli_main(["verify", "--config", str(cfg)])
        assert code == 0
        assert (tmp_path / "vr" / "verify_report.txt").exists()

    def test_verify_beyond_subset_enumeration(self, tmp_path, capsys):
        # budget 13 picks: more than the 2^12 subsets the certificate once enumerated
        cfg = tmp_path / "v.ini"
        cfg.write_text("[verify]\ninstances = 2\nbudget = 13\npool_shape = 8, 8\n")
        assert cli_main(["verify", "--config", str(cfg), "--out", str(tmp_path / "vr")]) == 0
        assert capsys.readouterr().out.endswith("pass=2 fail=0\n")

    def test_threads_only_on_run(self, tmp_path, capsys):
        cfg = tmp_path / "v.ini"
        cfg.write_text("[verify]\ninstances = 1\n")
        with pytest.raises(SystemExit) as exc:
            cli_main(["verify", "--config", str(cfg), "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err

    def test_fit_takes_no_seed(self, tmp_path, capsys):
        # the fit is one deterministic run from the configured hyperparameters
        with pytest.raises(SystemExit) as exc:
            cli_main(["fit", "--config", str(tmp_path / "f.ini"), "--seed", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["instances = 0", "instances = -2", "budget = 0"])
    def test_verify_sweep_checking_nothing_fails(self, tmp_path, setting):
        cfg = tmp_path / "v.ini"
        cfg.write_text(f"[verify]\n{setting}\n")
        with pytest.raises(ConfigError, match="at least 1"):
            load_verify_config(str(cfg))
        # the console script exits nonzero and writes no report
        src = Path(experiment.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "mogpal.cli", "verify", "--config", str(cfg),
             "--out", str(tmp_path / "vr")],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        )
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("mogpal verify: ConfigError: ")
        assert "pass=" not in done.stdout
        assert not (tmp_path / "vr").exists()

    @pytest.mark.parametrize("old, new, message", [
        ("checkpoints = 2, 4", "checkpoints = 4, 2",
         "experiment: checkpoints must be strictly increasing"),
        # rejected on load, before the run makes its output directory
        ("test_count = 5", "test_count = 0",
         "experiment: repeats, inducing_count and test_count must be positive"),
    ], ids=["checkpoints", "test-count"])
    def test_run_rejected_config_is_one_line(self, tmp_path, capsys, old, new, message):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(CONFIG_TEXT.format(out=tmp_path / "out").replace(old, new))
        assert cli_main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == f"mogpal run: ConfigError: {cfg}: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, edit, named", [
        ("verify", lambda text: "[verify]\ninstances = abc\n",
         "verify.instances: invalid literal for int()"),
        ("run", None, "missing.ini: No such file or directory"),
        ("run", lambda text: text.replace("seed = 3", "seed = x"),
         "experiment.seed: invalid literal for int()"),
        ("run", lambda text: text.replace(SYNTHETIC, DATA), "missing.schema: No such file"),
        ("fit", lambda text: text, "fit needs a [data] section"),
        ("synth", lambda text: text.replace(SYNTHETIC, DATA), "synth needs a [synthetic]"),
        ("synth", lambda text: text.replace("n_locations = 14\n", ""),
         "missing.ini: synthetic.n_locations: missing"),
        ("run", lambda text: text.replace(SYNTHETIC, "[data]\ndataset = d.csv\n"),
         "[data] needs both dataset and schema"),
        ("run", lambda text: text.replace("signal_var = 1.0, 0.8", "signal_var = abc, 1"),
         "missing.ini: hyperparams.signal_var: could not convert string to float: 'abc'"),
        ("run", lambda text: text.replace("[hyperparams]\ntypes = 2\n", "[hyperparams]\n"),
         "missing.ini: hyperparams.types: missing"),
        # values that parse but that Hyperparams rejects
        ("run", lambda text: text.replace("noise_var = 0.25, 0.1", "noise_var = -0.25, 0.1"),
         "missing.ini: hyperparams: noise variances must be finite and strictly positive"),
        ("run", lambda text: text.replace("dim = 1\n", "dim = 2\n")
         .replace("latent_prec_inv = 2.0", "latent_prec_inv = 2.0, 2.0"),
         "missing.ini: hyperparams: inconsistent hyperparameter shapes"),
        ("run", lambda text: text.replace("dim = 1\n", "dim = 2\n"),
         "missing.ini: hyperparams.dim: 2, but latent_prec_inv has 1"),
        # values that parse but that another constructor rejects
        ("run", lambda text: text.replace("[split]\ntarget_types = 0",
                                          "[split]\ntarget_types = 5"),
         "missing.ini: split.target_types: target type out of range [0, 2)"),
        # one target type: a list of them does not parse as one int
        ("run", lambda text: text.replace("[split]\ntarget_types = 0",
                                          "[split]\ntarget_types = 0, 1"),
         "missing.ini: split.target_types: invalid literal for int() with base 10: '0, 1'"),
        ("run", lambda text: text.replace("dim = 1\ntarget_types = 0\n",
                                          "dim = 1\ntarget_types = 0, 1\n"),
         "missing.ini: hyperparams.target_types: invalid literal for int() with base 10: "
         "'0, 1'"),
        ("run", lambda text: text.replace("layout = grid", "layout = spiral"),
         "missing.ini: synthetic: unknown layout 'spiral'"),
        ("run", lambda text: text.replace("n_locations = 14", "n_locations = 1"),
         "missing.ini: synthetic: n_locations must be at least 2, got 1"),
        ("run", lambda text: text.replace("extent = 10", "extent = 0"),
         "missing.ini: synthetic: extent must be finite and positive, got 0.0"),
        ("run", lambda text: text.replace("extent = 10", "extent = nan"),
         "missing.ini: synthetic: extent must be finite and positive, got nan"),
        ("run", lambda text: text.replace("extent = 10", "extent = inf"),
         "missing.ini: synthetic: extent must be finite and positive, got inf"),
        ("run", lambda text: text.replace("extent = 10", "extent = -5"),
         "missing.ini: synthetic: extent must be finite and positive, got -5.0"),
        ("synth", lambda text: text.replace("extent = 10", "extent = 0"),
         "missing.ini: synthetic: extent must be finite and positive, got 0.0"),
        # layouts the generator cannot draw or the split cannot hold out from
        ("run", lambda text: text.replace("dim = 1\n", "dim = 2\n")
         .replace("latent_prec_inv = 2.0", "latent_prec_inv = 2.0, 2.0")
         .replace(".0 = 0.1\n", ".0 = 0.1, 0.1\n").replace(".1 = 0.1\n", ".1 = 0.1, 0.1\n"),
         "missing.ini: synthetic.layout: grid layout is one-dimensional, but the "
         "hyperparameters are 2-dimensional; use layout=uniform"),
        ("run", lambda text: text.replace("n_locations = 14", "n_locations = 1200"),
         "missing.ini: synthetic.n_locations: 1200 locations of 2 types are 2400 tuples, "
         "over the 2000 sampling guard"),
        ("run", lambda text: text.replace("n_locations = 14", "n_locations = 600")
         .replace("test_count = 5", "test_count = 600"),
         "missing.ini: split.test_count: 600 must be below the 600 measurements of target "
         "type 0"),
        ("run", lambda text: text.replace("m-greedy, s-var", "m-greedy, foo"),
         "missing.ini: experiment: unknown algorithm 'foo'"),
        # an algorithm listed twice would run twice and write every row twice
        ("run", lambda text: text.replace("m-greedy, s-var", "m-greedy, m-greedy"),
         "missing.ini: experiment: algorithms lists 'm-greedy' twice"),
        # a hyperparameter list of the wrong length
        ("run", lambda text: text.replace("signal_var = 1.0, 0.8", "signal_var = 1.0, 0.8, 0.5"),
         "missing.ini: hyperparams: inconsistent hyperparameter shapes"),
        ("run", lambda text: text.replace("checkpoints = 2, 4", "checkpoints = 20, 10"),
         "missing.ini: experiment: checkpoints must be strictly increasing"),
        ("run", lambda text: text.replace("repeats = 2", "repeats = 0"),
         "missing.ini: experiment: repeats, inducing_count and test_count must be positive"),
        # a fit with no likelihood evaluations, refused before --out is made
        ("run", lambda text: text.replace("repeats = 2",
                                          "repeats = 2\nfit = true\nfit_budget = 0"),
         "missing.ini: experiment: fit_budget must be at least 1, got 0"),
        ("run", lambda text: text.replace("repeats = 2",
                                          "repeats = 2\nfit = true\nfit_budget = -3"),
         "missing.ini: experiment: fit_budget must be at least 1, got -3"),
        ("verify", lambda text: "[verify]\ninstances = 0\n",
         "missing.ini: verify: a verification sweep needs instances, budget and a pool_shape"),
        ("verify", lambda text: "[verify]\npool_shape =\n",
         "missing.ini: verify: a verification sweep needs instances, budget and a "
         "pool_shape of at least 1, got pool_shape ()"),
        ("verify", lambda text: "[verify]\npool_shape = 4, 0\n",
         "missing.ini: verify: a verification sweep needs instances, budget and a "
         "pool_shape of at least 1, got pool_shape (4, 0)"),
        # shapes whose instances the sweep cannot build or enumerate
        ("verify", lambda text: "[verify]\npool_shape = 1, 1\n",
         "missing.ini: verify: pool_shape (1, 1) holds 2 candidates, "
         "fewer than the 3 inducing points of an instance"),
        ("verify", lambda text: "[verify]\npool_shape = 2, 2\nbudget = 5\n",
         "missing.ini: verify: budget 5 exceeds the candidate pool size 4"),
        ("verify", lambda text: "[verify]\npool_shape = 20, 20\nbudget = 8\n",
         "missing.ini: verify: C(40, 8) = 76904685 subsets exceeds the 1000000 "
         "enumeration guard"),
        # datasets that do not fit the hyperparameters or the split
        ("run", lambda text: text.replace(SYNTHETIC, THREE_TYPES),
         "three.schema: the schema lists 3 types, but the hyperparameters have 2"),
        ("fit", lambda text: text.replace(SYNTHETIC, THREE_TYPES),
         "three.schema: the schema lists 3 types, but the hyperparameters have 2"),
        ("run", lambda text: text.replace(SYNTHETIC, PLANE),
         "plane.schema: the schema lists 2 coordinates, but the hyperparameters are "
         "1-dimensional"),
        ("fit", lambda text: text.replace(SYNTHETIC, PLANE),
         "plane.schema: the schema lists 2 coordinates, but the hyperparameters are "
         "1-dimensional"),
        ("run", lambda text: text.replace(SYNTHETIC, TWO_TYPES)
         .replace("test_count = 5", "test_count = 14"),
         "two.csv: split.test_count: 14 must be below the 14 measurements of target type 0"),
        # budgets and inducing counts the pool cannot hold: 14 locations of
        # 2 types less 5 held out
        ("run", lambda text: text.replace("checkpoints = 2, 4", "checkpoints = 2, 24"),
         "missing.ini: experiment.checkpoints: budget 24 exceeds the candidate pool size 23"),
        # the single-output baselines pick from the 9 target candidates alone
        ("run", lambda text: text.replace("m-greedy, s-var\ncheckpoints = 2, 4",
                                          "s-var, s-mi\ncheckpoints = 2, 24"),
         "missing.ini: experiment.checkpoints: budget 24 exceeds the s-var target candidate "
         "pool size 9"),
        ("run", lambda text: text.replace("checkpoints = 2, 4", "checkpoints = 2, 12"),
         "missing.ini: experiment.checkpoints: budget 12 exceeds the s-var target candidate "
         "pool size 9"),
        ("run", lambda text: text.replace("m-greedy, s-var\ncheckpoints = 2, 4",
                                          "m-var, s-mi\ncheckpoints = 2, 12"),
         "missing.ini: experiment.checkpoints: budget 12 exceeds the s-mi target candidate "
         "pool size 9"),
        ("run", lambda text: text.replace("inducing_count = 5", "inducing_count = 15"),
         "missing.ini: experiment.inducing_count: 15 inducing locations from 14 distinct "
         "locations"),
        # a one-type draw: the 5 held-out locations leave the pool with 7
        ("run", lambda text: _one_type(text).replace("n_locations = 14", "n_locations = 12")
         .replace("inducing_count = 5", "inducing_count = 10"),
         "missing.ini: experiment.inducing_count: 10 inducing locations from 7 distinct "
         "locations"),
        # a one-type dataset: the split of 5 leaves 9 of its 14 locations
        ("run", lambda text: _one_type(text).replace(SYNTHETIC, ONE_TYPE)
         .replace("inducing_count = 5", "inducing_count = 10"),
         "one.csv: experiment.inducing_count: 10 inducing locations from 9 distinct locations"),
        # every loader requires the section it reads
        ("verify", lambda text: text, "missing.ini: missing [verify] section"),
        ("run", lambda text: text.replace("[experiment]", "[experiments]"),
         "missing.ini: missing [experiment] section"),
        ("run", lambda text: text[:text.index("[hyperparams]")].replace(
            "[experiment]\n", "[experiment]\nhyperparams_file = missing.ini\n"),
         "missing.ini: missing [hyperparams] section"),
        ("run", lambda text: text.replace(SYNTHETIC,
                                          "[data]\ndataset = two.csv\nschema = missing.ini\n"),
         "missing.ini: missing [schema] section"),
        # a key that its loader does not read would be ignored
        ("run", lambda text: text.replace("inducing_count = 5", "inducing_cuont = 40"),
         "missing.ini: experiment.inducing_cuont: not read, so it would be ignored"),
        ("run", lambda text: text.replace("test_count = 5", "test_cuont = 5"),
         "missing.ini: split.test_cuont: not read"),
        ("run", lambda text: text.replace("layout = grid", "layuot = uniform"),
         "missing.ini: synthetic.layuot: not read"),
        ("verify", lambda text: "[verify]\ninstance = 5\n",
         "missing.ini: verify.instance: not read"),
        # an inline [hyperparams] section wins over the file
        ("run", lambda text: text.replace("[experiment]\n", "[experiment]\n"
                                          "hyperparams_file = does-not-exist.ini\n"),
         "missing.ini: experiment.hyperparams_file: not read"),
        ("run", lambda text: text.replace("smooth_prec_inv.1 = 0.1\n", "smooth_prec_inv.1 = 0.1\n"
                                          "smooth_prec_inv.2 = 0.1\n"),
         "missing.ini: hyperparams.smooth_prec_inv.2: not read"),
        ("run", lambda text: text.replace(SYNTHETIC, "[data]\ndataset = two.csv\n"
                                          "schema = missing.ini\n[schema]\ncoords = x0\n"
                                          "types = type0, type1\nunits = mg/kg\n"),
         "missing.ini: schema.units: not read"),
        ("run", lambda text: text.replace(SYNTHETIC, "[data]\ndataset = two.csv\n"
                                          "schema = missing.ini\n[schema]\ncoords = x0\n"
                                          "types = type0, type1\ntransform.type1 = sqrt\n"),
         "missing.ini: schema: unknown transform 'sqrt' for column 'type1'"),
        # files are UTF-8; the config is written as Latin-1, so "é" is the byte 0xE9
        ("run", lambda text: text.replace("name = smoke", "name = café"),
         "missing.ini: not UTF-8 text (invalid continuation byte at byte 23)"),
        ("verify", lambda text: text.replace("name = smoke", "name = café"),
         "missing.ini: not UTF-8 text (invalid continuation byte at byte 23)"),
        ("run", lambda text: text.replace(SYNTHETIC, "[data]\ndataset = latin.csv\n"
                                          "schema = two.schema\n"),
         "latin.csv: not UTF-8 text"),
        ("run", lambda text: text.replace(SYNTHETIC, "[data]\ndataset = blank.csv\n"
                                          "schema = two.schema\n"),
         "blank.csv: type 'type1' has no measurements"),
        # configparser's own errors, on one line
        ("run", lambda text: text.replace("repeats = 2\n", "repeats = 2\nfit\n"),
         "missing.ini: Source contains parsing errors:"),
        ("run", lambda text: "seed = 3\n" + text,
         "missing.ini: File contains no section headers."),
        # every key lives in its own section: [DEFAULT] keys are refused, a
        # typo and a key that a section would read alike
        ("run", lambda text: "[DEFAULT]\nsede = 3\n" + text,
         "missing.ini: [DEFAULT] is not read"),
        ("verify", lambda text: "[DEFAULT]\nseed = 3\n[verify]\ninstances = 1\nbudget = 1\n"
         "pool_shape = 2, 2\n", "missing.ini: [DEFAULT] is not read"),
        # no coordinate dimensions: uniform would draw, grid would advise uniform
        ("run", lambda text: text.replace("dim = 1\n", "")
         .replace("latent_prec_inv = 2.0", "latent_prec_inv =")
         .replace(".0 = 0.1\n", ".0 =\n").replace(".1 = 0.1\n", ".1 =\n")
         .replace("layout = grid", "layout = uniform"),
         "missing.ini: hyperparams: the latent precision diagonal needs at least one dimension"),
        # dup.csv's header names type0 twice, as its schema does
        ("run", lambda text: text.replace(SYNTHETIC, "[data]\ndataset = dup.csv\n"
                                          "schema = missing.ini\n[schema]\ncoords = x0\n"
                                          "types = type0, type0\n"),
         "missing.ini: schema: column 'type0' is named twice"),
        ("run", lambda text: text.replace(SYNTHETIC, "[data]\ndataset = long.csv\n"
                                          "schema = two.schema\n"),
         "long.csv:3: field larger than field limit (131072)"),
        # a type that normalize cannot scale is refused at load
        ("run", lambda text: text.replace(SYNTHETIC, "[data]\ndataset = const.csv\n"
                                          "schema = two.schema\n"),
         "const.csv: type 'type1' is constant, cannot normalize"),
        ("fit", lambda text: text.replace(SYNTHETIC, "[data]\ndataset = const.csv\n"
                                          "schema = two.schema\n"),
         "const.csv: type 'type1' is constant, cannot normalize"),
        # errors name the line a record starts on, past a quoted newline
        ("run", lambda text: text.replace(SYNTHETIC, "[data]\ndataset = quoted.csv\n"
                                          "schema = two.schema\n"),
         "quoted.csv:5: column 'type0': 'x' is not a finite number"),
        # a CSV with no records, a short record, or a header alone
        ("run", lambda text: text.replace(SYNTHETIC, "[data]\ndataset = empty.csv\n"
                                          "schema = two.schema\n"),
         "empty.csv: empty file"),
        ("run", lambda text: text.replace(SYNTHETIC, "[data]\ndataset = short.csv\n"
                                          "schema = two.schema\n"),
         "short.csv:3: expected 3 cells, got 2"),
        ("run", lambda text: text.replace(SYNTHETIC, "[data]\ndataset = header.csv\n"
                                          "schema = two.schema\n"),
         "header.csv: no data rows"),
        # a schema must name both kinds of column
        ("run", lambda text: text.replace(SYNTHETIC, "[data]\ndataset = two.csv\n"
                                          "schema = missing.ini\n[schema]\ncoords =\n"
                                          "types = type0, type1\n"),
         "missing.ini: schema must declare coords and types"),
        ("run", lambda text: text.replace(SYNTHETIC, "[data]\ndataset = two.csv\n"
                                          "schema = missing.ini\n[schema]\ncoords = x0\n"),
         "missing.ini: schema must declare coords and types"),
        # an experiment needs algorithms, positive checkpoints, a known
        # s-Var mode, one data source and hyperparameters
        ("run", lambda text: text.replace("m-greedy, s-var", ""),
         "missing.ini: experiment: at least one algorithm is required"),
        ("run", lambda text: text.replace("checkpoints = 2, 4", "checkpoints ="),
         "missing.ini: experiment: at least one budget checkpoint is required"),
        ("run", lambda text: text.replace("checkpoints = 2, 4", "checkpoints = 0, 4"),
         "missing.ini: experiment: checkpoints must be positive"),
        ("run", lambda text: text.replace("repeats = 2", "repeats = 2\nsvar_mode = solo"),
         "missing.ini: experiment: svar_mode must be 'shared' or 'refit'"),
        ("run", lambda text: text + DATA,
         "missing.ini: experiment: configure exactly one of [data] and [synthetic]"),
        ("run", lambda text: text.replace(SYNTHETIC, ""),
         "missing.ini: experiment: configure exactly one of [data] and [synthetic]"),
        ("run", lambda text: text[:text.index("[hyperparams]")],
         "missing.ini: provide a [hyperparams] section or hyperparams_file"),
    ])
    def test_bad_config_is_one_line(self, tmp_path, monkeypatch, capsys, command, edit, named):
        # the [data] cases read 14-location datasets from the working directory
        monkeypatch.chdir(tmp_path)
        for name, n_coords, n_types in (("three", 1, 3), ("two", 1, 2), ("plane", 2, 2),
                                        ("one", 1, 1)):
            coords = [f"x{c}" for c in range(n_coords)]
            types = [f"type{i}" for i in range(n_types)]
            Path(f"{name}.schema").write_text(
                f"[schema]\ncoords = {', '.join(coords)}\ntypes = {', '.join(types)}\n"
            )
            rows = [",".join([f"{k}.0"] * n_coords + [f"{k % 3}.5"] * n_types) for k in range(14)]
            Path(f"{name}.csv").write_text("\n".join([",".join(coords + types), *rows]) + "\n")
        # for two.schema: a type1 column of blank cells, and a Latin-1 "é"
        Path("blank.csv").write_text("x0,type0,type1\n"
                                     + "".join(f"{k}.0,{k % 3}.5,\n" for k in range(14)))
        Path("latin.csv").write_bytes(b"x0,type0,type1\n0.0,0.5,1.5\xe9\n")
        Path("dup.csv").write_text(Path("two.csv").read_text().replace("type1", "type0", 1))
        # a cell one character over the csv module's default field size limit
        Path("long.csv").write_text(f"x0,type0,type1\n0.0,0.5,1.5\n1.0,0.5,{'1' * 131073}\n")
        # for two.schema: the 7 measured type1 cells all read 2.5
        Path("const.csv").write_text("x0,type0,type1\n" + "".join(
            f"{k}.0,{k % 3}.5,{'2.5' if k % 2 else ''}\n" for k in range(14)))
        Path("quoted.csv").write_text('x0,type0,type1\n0.0,"1.5\n",0.5\n1.0,2.5,0.5\n'
                                      "2.0,x,0.5\n")
        Path("empty.csv").write_text("")
        Path("short.csv").write_text("x0,type0,type1\n0.0,0.5,1.5\n1.0,0.5\n")
        Path("header.csv").write_text("x0,type0,type1\n")
        cfg = tmp_path / "missing.ini"
        out = tmp_path / "out"
        if edit is not None:
            cfg.write_text(edit(CONFIG_TEXT.format(out=out)), encoding="latin-1")
        assert cli_main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"mogpal {command}: ConfigError: ")
        assert err.count("\n") == 1 and named in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, out, error", [
        ("run", "afile", "FileExistsError"),
        ("run", "afile/sub", "NotADirectoryError"),
        ("verify", "afile", "FileExistsError"),
        ("fit", "afile", "FileExistsError"),
        ("synth", "afile", "FileExistsError"),
    ])
    def test_out_that_cannot_be_made_is_one_line(self, tmp_path, monkeypatch, capsys,
                                                 command, out, error):
        monkeypatch.chdir(tmp_path)
        text = CONFIG_TEXT.format(out="unused") + "[verify]\ninstances = 1\nbudget = 1\n" \
            "pool_shape = 3, 3\n"
        if command == "fit":
            _saved(generate_synthetic(GeneratorSpec(n_locations=14), H2)(0), Path("d.csv"))
            Path("d.schema").write_text("[schema]\ncoords = x0\ntypes = type0, type1\n")
            text = text.replace(SYNTHETIC, "[data]\ndataset = d.csv\nschema = d.schema\n")
            text = text.replace("repeats = 2", "repeats = 2\nfit_budget = 1")
        Path("exp.ini").write_text(text)
        Path("afile").write_text("kept\n")
        assert cli_main([command, "--config", "exp.ini", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"mogpal {command}: {error}: ") and "afile" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert Path("afile").read_text() == "kept\n"

    @pytest.mark.parametrize("case", ["percent-label", "percent-path", "bom-ini", "bom-csv"])
    def test_literal_values_and_byte_order_marks_load(self, tmp_path, monkeypatch, case):
        # INI values are literal, so '%' interpolates nothing, and a UTF-8
        # byte order mark before an INI section or a CSV header is skipped:
        # each run writes the result table of the plain config
        monkeypatch.chdir(tmp_path)
        Path("d.schema").write_text("[schema]\ncoords = x0\ntypes = type0, type1\n")
        rows = "".join(f"{k}.0,{k % 3}.5,{k % 4}.5\n" for k in range(14))
        Path("d.csv").write_text(f"x0,type0,type1\n{rows}", encoding="utf-8")
        plain = CONFIG_TEXT.format(out="plain").replace(
            SYNTHETIC, "[data]\ndataset = d.csv\nschema = d.schema\n")
        Path("plain.ini").write_text(plain, encoding="utf-8")
        assert cli_main(["run", "--config", "plain.ini"]) == 0
        text = plain.replace("plain", "out")
        if case == "percent-label":
            text = text.replace("name = smoke", "name = 50% subsample")
        elif case == "percent-path":
            Path("run%1.csv").write_bytes(Path("d.csv").read_bytes())
            text = text.replace("dataset = d.csv", "dataset = run%1.csv")
        elif case == "bom-ini":
            text = "\ufeff" + text
        else:
            Path("bom.csv").write_text("\ufeff" + Path("d.csv").read_text(), encoding="utf-8")
            text = text.replace("dataset = d.csv", "dataset = bom.csv")
        Path("exp.ini").write_text(text, encoding="utf-8")
        assert cli_main(["run", "--config", "exp.ini"]) == 0
        table = Path("out", "result_table.csv").read_bytes()
        assert table == Path("plain", "result_table.csv").read_bytes()

    @pytest.mark.parametrize("command, check", [
        ("run", lambda out: (out / "selection_m-greedy_9.csv").exists()
         and (out / "selection_s-var_10.csv").exists() and (out / "result_table.csv").exists()),
        ("fit", lambda out: load_hyperparams(out / "fitted_hyperparams.ini").n_types == 2),
        ("verify", lambda out: (out / "verify_report.txt").read_text().startswith(
            "instance=seed9 ")),
        ("synth", lambda out: (out / "synthetic.csv").read_bytes() == _saved(
            generate_synthetic(GeneratorSpec(n_locations=14), H2)(9), out.parent / "expected.csv")),
    ])
    def test_overrides_reach_every_command(self, tmp_path, monkeypatch, command, check):
        # the config's own seed is 3 and its output directory "config_out"
        monkeypatch.chdir(tmp_path)
        text = CONFIG_TEXT.format(out="config_out") + "[verify]\ninstances = 2\nbudget = 2\n" \
            "pool_shape = 4, 4\noutput_dir = config_out\n"
        if command == "fit":
            _saved(generate_synthetic(GeneratorSpec(n_locations=14), H2)(0), Path("d.csv"))
            Path("d.schema").write_text("[schema]\ncoords = x0\ntypes = type0, type1\n")
            text = text.replace(SYNTHETIC, "[data]\ndataset = d.csv\nschema = d.schema\n")
            text = text.replace("repeats = 2", "repeats = 2\nfit_budget = 5")
        Path("exp.ini").write_text(text)
        seed = [] if command == "fit" else ["--seed", "9"]
        assert cli_main([command, "--config", "exp.ini", "--out", "over", *seed]) == 0
        assert check(tmp_path / "over")
        assert not (tmp_path / "config_out").exists()

    @pytest.mark.parametrize("command, row, edit, named", [
        ("run", (2, "nan,0.5,0.5"), None, "d.csv:4: coordinate: 'nan' is not a finite number"),
        ("fit", (2, "nan,0.5,0.5"), None, "d.csv:4: coordinate: 'nan' is not a finite number"),
        ("run", (2, "1.0,inf,0.5"), None,
         "d.csv:4: column 'type0': 'inf' is not a finite number"),
        ("run", (5, "0.5,1.5,"), None,
         "d.csv:7: column 'type0' at [0.5] was already measured on line 3"),
        ("run", None, ("checkpoints = 2, 4", "checkpoints = 3, 60"),
         "d.csv: experiment.checkpoints: budget 60 exceeds the candidate pool size 38"),
        ("run", None, ("inducing_count = 5", "inducing_count = 40"),
         "d.csv: experiment.inducing_count: 40 inducing locations from 20 distinct locations"),
        ("run", None, ("m-greedy, s-var\ncheckpoints = 2, 4", "s-var, s-mi\ncheckpoints = 3, 60"),
         "d.csv: experiment.checkpoints: budget 60 exceeds the s-var target candidate pool "
         "size 18"),
        # the whole pool of 38 holds 30 picks; the 18 target candidates do not
        ("run", None, ("checkpoints = 2, 4", "checkpoints = 3, 30"),
         "d.csv: experiment.checkpoints: budget 30 exceeds the s-var target candidate pool "
         "size 18"),
        ("run", None,
         ("m-greedy, s-var\ncheckpoints = 2, 4", "m-greedy, s-mi\ncheckpoints = 3, 30"),
         "d.csv: experiment.checkpoints: budget 30 exceeds the s-mi target candidate pool "
         "size 18"),
    ], ids=["nan-coordinate", "nan-coordinate-fit", "inf-value", "repeated-row",
            "budget", "inducing-count", "single-output-budget", "s-var-target-pool",
            "s-mi-target-pool"])
    def test_bad_dataset_is_one_line(self, tmp_path, monkeypatch, capsys,
                                     command, row, edit, named):
        # a 20-row, 2-type dataset; a split of 2 leaves a pool of 38
        monkeypatch.chdir(tmp_path)
        Path("d.schema").write_text("[schema]\ncoords = x0\ntypes = type0, type1\n")
        rows = [f"{0.5 * k!r},{k % 3}.5,{k % 4}.5" for k in range(20)]
        if row is not None:
            rows[row[0]] = row[1]
        Path("d.csv").write_text("\n".join(["x0,type0,type1", *rows]) + "\n")
        text = CONFIG_TEXT.format(out="out").replace(
            SYNTHETIC, "[data]\ndataset = d.csv\nschema = d.schema\n"
        ).replace("test_count = 5", "test_count = 2")
        if edit is not None:
            text = text.replace(*edit)
        Path("exp.ini").write_text(text)
        assert cli_main([command, "--config", "exp.ini", "--out", "out"]) == 2
        err = capsys.readouterr().err
        assert err == f"mogpal {command}: ConfigError: {named}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, text, override, named", [
        ("run", CONFIG_TEXT.replace("seed = 3", "seed = -4"), [],
         "exp.ini: experiment: seed must be non-negative, got -4"),
        ("run", CONFIG_TEXT, ["--seed", "-2"], "seed must be non-negative, got -2"),
        ("verify", "[verify]\ninstances = 1\n", ["--seed", "-1"],
         "seed must be non-negative, got -1"),
        ("synth", CONFIG_TEXT, ["--seed", "-3"], "seed must be non-negative, got -3"),
    ], ids=["run-config", "run-override", "verify-override", "synth-override"])
    def test_negative_seed_is_one_line(self, tmp_path, monkeypatch, capsys,
                                       command, text, override, named):
        monkeypatch.chdir(tmp_path)
        Path("exp.ini").write_text(text.format(out="out"))
        assert cli_main([command, "--config", "exp.ini", "--out", "out", *override]) == 2
        assert capsys.readouterr().err == f"mogpal {command}: ConfigError: {named}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_one_line(self, tmp_path, monkeypatch, capsys, threads):
        monkeypatch.chdir(tmp_path)
        Path("exp.ini").write_text(CONFIG_TEXT.format(out="out"))
        assert cli_main(["run", "--config", "exp.ini", "--out", "out", "--threads", threads]) == 2
        assert capsys.readouterr().err == (
            f"mogpal run: ConfigError: threads must be at least 1, got {threads}\n"
        )
        assert not (tmp_path / "out").exists()

    def test_bad_hyperparams_file_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        hfile = tmp_path / "h.ini"
        save_hyperparams(H2, hfile)
        hfile.write_text(hfile.read_text().replace("smooth_prec_inv.1", "smooth_prec_inv.9"))
        text = CONFIG_TEXT.format(out=tmp_path / "out")
        cfg.write_text(
            text[:text.index("[hyperparams]")].replace(
                "[experiment]\n", f"[experiment]\nhyperparams_file = {hfile}\n"
            )
        )
        assert cli_main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == f"mogpal run: ConfigError: {hfile}: hyperparams.smooth_prec_inv.1: missing\n"

    def test_split_without_target_type_keeps_hyperparams(self, tmp_path):
        # a [split] section that names no target type must not retarget
        # the run to type 0
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            CONFIG_TEXT.format(out=tmp_path / "out")
            .replace("[split]\ntarget_types = 0\n", "[split]\n")
            .replace("dim = 1\ntarget_types = 0\n", "dim = 1\ntarget_types = 1\n")
        )
        config = load_experiment_config(str(cfg))
        assert config.hyperparams.target_type == 1
        assert config.test_count == 5

    def test_config_validation(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(
            CONFIG_TEXT.format(out=tmp_path).replace("checkpoints = 2, 4", "checkpoints = 4, 2")
        )
        with pytest.raises(ConfigError):
            load_experiment_config(str(cfg))
