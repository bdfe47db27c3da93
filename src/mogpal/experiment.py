"""Reproducible experiment harness: selection traces and error-vs-budget tables.

One repeat = one seeded test split (plus one synthetic realization when
generating data), one inducing selection, one sparse model, and one
selection run per algorithm up to the last checkpoint, which the config
held to each algorithm's pool (``ExperimentConfig.check_pool``); prediction
error is evaluated at every checkpoint on the nested selection prefix.
Each repeat draws its own dataset where it runs: a ``grid`` prior is
factored once and held for the run; a ``uniform`` draw factors its own prior.
Everything downstream of the config (including all seeds) is deterministic;
wall-clock timings go to a sidecar file, so the result table is byte-stable.
"""

import concurrent.futures
import csv
import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import kernels
from .config import SINGLE_OUTPUT, ExperimentConfig, GeneratorSpec, VerifySweepConfig
from .criterion import build_cache
from .data import Dataset, denormalize, normalize, rmse, split_test
from .errors import ConfigError, DomainError
from .hyperlearn import fit_hyperparams
from .kernels import Hyperparams, TupleArray, TypedLocation
from .linalg import chol_spd
from .pitc import build_model, pitc_posterior, select_inducing
from .selector import (
    select_greedy,
    select_mvar,
    select_smi,
    select_svar,
    write_selection_log,
)
from .verify import check_guarantee, random_instance

__all__ = [
    "ResultRow", "ResultTable", "run_experiment", "generate_synthetic",
    "load_experiment_dataset", "verify_sweep",
]


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

def generate_synthetic(spec: GeneratorSpec, h: Hyperparams):
    """A sampler ``seed -> Dataset`` of noisy realizations of the prior over
    a location layout.

    Each draw has ``h.dim`` coordinates per location, the full joint drawn
    exactly as ``L z`` (L the Cholesky factor of the noise-free prior) and
    per-type measurement noise; every (location, type) pair is measured.  A
    ``grid`` layout's locations do not depend on the seed, so its prior is
    factored once, here, and every draw shares the factor and one read-only
    ``coords`` array (threads may draw concurrently); a ``uniform`` draw
    places its own locations and factors its own prior.  A layout
    ``spec.check_drawable(h)`` refuses is a ConfigError, raised here.
    """
    spec.check_drawable(h)
    if spec.layout == "uniform":
        def sample(seed):
            rng = np.random.default_rng(seed)
            coords = rng.uniform(0.0, spec.extent, size=(spec.n_locations, h.dim))
            return _draw(rng, coords, *_prior(coords, h), h.n_types)
        return sample
    coords = np.linspace(0.0, spec.extent, spec.n_locations)[:, None]
    coords.setflags(write=False)
    factor, noise = _prior(coords, h)
    return lambda seed: _draw(np.random.default_rng(seed), coords, factor, noise, h.n_types)


def _prior(coords, h):
    """Cholesky factor of the noise-free prior (plus 1e-10 jitter) over every
    (location, type) tuple, type-major, and each tuple's noise variance."""
    n = coords.shape[0]
    tuples = TupleArray.build([
        TypedLocation(tuple(float(c) for c in coords[li]), ti)
        for ti in range(h.n_types)
        for li in range(n)
    ], h)
    total = len(tuples)
    cov = kernels.cov_matrix(tuples, tuples, h)
    noise = h.noise_var[tuples.types]
    # noise-free prior plus 1e-10 jitter, on the diagonal in place
    cov.flat[::total + 1] -= noise
    cov.flat[::total + 1] += 1e-10
    return chol_spd(cov, "synthetic prior"), noise


def _draw(rng, coords, factor, noise, n_types):
    """One noisy realization: the field ``factor.lower @ z``, then the noise."""
    total = len(noise)
    field = factor.lower @ rng.standard_normal(total)
    measured = field + rng.standard_normal(total) * np.sqrt(noise)
    # the tuples are type-major: one row per type, transposed to the table
    return Dataset(coords=coords, type_names=tuple(f"type{i}" for i in range(n_types)),
                   values=measured.reshape(n_types, -1).T)


def load_experiment_dataset(config: ExperimentConfig) -> Dataset:
    """The ``[data]`` dataset of ``config``, checked against the run before
    anything is written: its schema must list ``h.dim`` coordinates and
    ``h.n_types`` types, ``normalize`` must accept it (no type constant),
    and each repeat's split (which depends on its seed, not on the values)
    must be one ``split_test`` can make and leave a pool that
    ``ExperimentConfig.check_pool`` accepts.  A mismatch is a
    :class:`ConfigError` naming the schema or dataset file."""
    dataset = data_mod.load_dataset(config.dataset_path, data_mod.load_schema(config.schema_path))
    h = config.hyperparams
    if dataset.n_types != h.n_types:
        raise ConfigError(f"{config.schema_path}: the schema lists {dataset.n_types} types, "
                          f"but the hyperparameters have {h.n_types}")
    if dataset.coords.shape[1] != h.dim:
        raise ConfigError(f"{config.schema_path}: the schema lists {dataset.coords.shape[1]} "
                          f"coordinates, but the hyperparameters are {h.dim}-dimensional")
    try:
        normalize(dataset)
        for seed in range(config.seed, config.seed + config.repeats):
            pool = data_mod.split_test(dataset, h.target_type, config.test_count, seed).pool_tuples
            config.check_pool(len(pool), sum(p.type_index == h.target_type for p in pool),
                              len({p.location for p in pool}))
    except (ConfigError, DomainError) as exc:
        raise ConfigError(f"{config.dataset_path}: {exc}") from None
    return dataset


# ---------------------------------------------------------------------------
# result table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResultRow:
    algorithm: str
    seed: int
    budget: int
    rmse: float
    wall_ms: float


@dataclass
class ResultTable:
    rows: list

    def _write(self, path, column, cell):
        """One row per (algorithm, seed, checkpoint): its key, then
        ``cell(row)`` under the header ``column``."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["algorithm", "seed", "budget", column])
            for r in self.rows:
                writer.writerow([r.algorithm, r.seed, r.budget, cell(r)])

    def write_csv(self, path):
        """Deterministic table: the rmse at each checkpoint."""
        self._write(path, "rmse", lambda r: f"{r.rmse:.12g}")

    def write_timings(self, path):
        self._write(path, "wall_ms", lambda r: f"{r.wall_ms:.3f}")

    def mean_rmse(self, algorithm, budget):
        vals = [r.rmse for r in self.rows if r.algorithm == algorithm and r.budget == budget]
        if not vals:
            raise KeyError(f"no rows for {algorithm} at budget {budget}")
        return float(np.mean(vals))


# ---------------------------------------------------------------------------
# one repeat
# ---------------------------------------------------------------------------

def _pool_by_type(pool_tuples, n_types):
    per_type = {i: [] for i in range(n_types)}
    for t in pool_tuples:
        per_type[t.type_index].append(t)
    return {i: v for i, v in per_type.items() if v}


def _single_output_refit(config, h_model, pool_tuples, pool_values):
    """One-type hyperparameters fitted to the target pool alone."""
    t = h_model.target_type
    own = [k for k, p in enumerate(pool_tuples) if p.type_index == t]
    remapped = [TypedLocation(pool_tuples[k].location, 0) for k in own]
    return fit_hyperparams(remapped, pool_values[own], h_model.single_output(t),
                           budget=config.fit_budget).h


def _run_repeat(config: ExperimentConfig, out_dir, draw, rep_seed):
    norm, stats = normalize(draw(rep_seed))
    t = config.hyperparams.target_type
    split = split_test(norm, t, config.test_count, rep_seed)
    value_of = dict(zip(split.pool_tuples, split.pool_values))

    if config.fit:
        h_model = fit_hyperparams(split.pool_tuples, split.pool_values, config.hyperparams,
                                  budget=config.fit_budget).h
    else:
        h_model = config.hyperparams

    pool_locs = np.array([p.location for p in split.pool_tuples])
    inducing = select_inducing(pool_locs, config.inducing_count, seed=rep_seed)
    model = build_model(h_model, inducing, _pool_by_type(split.pool_tuples, h_model.n_types))
    cache = build_cache(model)

    max_budget = config.checkpoints[-1]
    single_output = None
    if config.svar_mode == "refit" and set(SINGLE_OUTPUT) & set(config.algorithms):
        single_output = _single_output_refit(
            config, h_model, split.pool_tuples, split.pool_values
        )

    truth = denormalize(split.test_values, stats[t])

    rows = []
    for algorithm in config.algorithms:
        if algorithm == "m-greedy":
            state = select_greedy(model, cache, max_budget)
        elif algorithm == "m-var":
            state = select_mvar(model, cache, max_budget)
        elif algorithm == "s-var":
            state = select_svar(model, max_budget, single_output)
        else:
            state = select_smi(model, max_budget, single_output)

        write_selection_log(state, out_dir / f"selection_{algorithm}_{rep_seed}.csv",
                            dim=model.h.dim)

        for budget in config.checkpoints:
            x = state.selected[:budget]
            y_x = np.array([value_of[p] for p in x])
            pred = pitc_posterior(model, x, y_x, split.test_tuples).mean
            rows.append(
                ResultRow(
                    algorithm=algorithm,
                    seed=rep_seed,
                    budget=budget,
                    rmse=rmse(denormalize(pred, stats[t]), truth),
                    wall_ms=1000.0 * sum(state.iteration_seconds[:budget]),
                )
            )
    return rows


def run_experiment(config: ExperimentConfig, out_dir=None, threads=1) -> ResultTable:
    """Run every repeat and algorithm of an experiment description.

    Writes ``result_table.csv`` (deterministic), ``timings.csv`` (the ms
    spent selecting each checkpoint's picks) and one selection log per
    (algorithm, repeat) into the output directory.
    Repeat ``r`` runs on seed ``config.seed + r`` and draws its own dataset:
    from one ``generate_synthetic`` sampler, so a ``grid`` prior is factored
    once and held for the run, or as the ``[data]`` dataset loaded once.  The
    output directory is made after the inputs' checks and before the first
    draw.  ``threads`` above 1 runs the repeats in a thread pool; 1 runs them
    in the calling thread; below 1 is a ConfigError.  The row order of the
    outputs does not depend on the scheduling.
    """
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    if config.dataset_path is None:
        draw = generate_synthetic(config.synthetic, config.hyperparams)
    else:
        dataset = load_experiment_dataset(config)
        draw = lambda seed: dataset
    out_dir = Path(out_dir if out_dir is not None else config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    repeat = functools.partial(_run_repeat, config, out_dir, draw)
    seeds = range(config.seed, config.seed + config.repeats)
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        chunks = (pool.map if threads > 1 else map)(repeat, seeds)
        rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r.algorithm, r.seed, r.budget))
    table = ResultTable(rows=rows)
    table.write_csv(out_dir / "result_table.csv")
    table.write_timings(out_dir / "timings.csv")
    return table


# ---------------------------------------------------------------------------
# verification sweep
# ---------------------------------------------------------------------------

def verify_sweep(config: VerifySweepConfig, out_dir=None):
    """Check the near-optimality certificate over a seeded instance family.

    Writes one key=value line per instance plus a summary line; returns
    ``(passes, failures)``.
    """
    out_dir = Path(out_dir if out_dir is not None else config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    passes = 0
    for k in range(config.instances):
        model, cache = random_instance(
            config.seed + k, n_per_type=config.pool_shape
        )
        report = check_guarantee(
            model, cache, config.budget, instance=f"seed{config.seed + k}"
        )
        passes += report.satisfied
        lines.append(report.to_line())
    failures = config.instances - passes
    lines.append(f"summary pass={passes} fail={failures}")
    (out_dir / "verify_report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return passes, failures
