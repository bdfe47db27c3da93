"""The benchmark's workloads: seeded inputs, the timed body, output checks.

Every workload is one closed-loop client in one process.  ``setup`` builds
everything the timed body needs from the seed; ``body`` is one pass of the
measured work and returns the program's outputs; ``check`` turns those
outputs into failure messages, comparing them with the reference values
recorded in ``reference.json`` when the seed has one.

Why each workload exists (each stresses one layer and leaves others idle):

- ``experiment``: ``run_experiment`` on the committed INI config.  The
  user-facing end to end; the single-output s-MI baseline dominates it.
- ``greedy-large``: greedy selection over a 4000-tuple pool with a large
  budget.  The per-iteration ``set_state`` rebuild and gain sweep dominate.
- ``target-pool-large``: a 4000-tuple target pool with a small budget.
  ``build_model`` and ``build_cache`` (set-up and memory) dominate; its
  |V_t| is double that of ``greedy-large``, which tests the claim that a
  gain evaluation costs the same whatever the target-pool size.
- ``verify-sweep``: the near-optimality sweep at the CLI's default shape,
  which calls ``criterion_F`` tens of thousands of times on tiny inputs.
"""

import csv
import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from mogpal.config import VerifySweepConfig, load_experiment_config, load_hyperparams
from mogpal.criterion import build_cache, criterion_F
from mogpal.data import rmse
from mogpal.experiment import run_experiment, verify_sweep
from mogpal.kernels import as_tuple
from mogpal.pitc import build_model, pitc_posterior, select_inducing
from mogpal.selector import select_greedy

HERE = Path(__file__).resolve().parent
CONFIG_PATH = HERE / "experiment.ini"
REFERENCE_PATH = HERE / "reference.json"

# Relative tolerances of the output checks.  Picks are compared exactly.
RMSE_RTOL = 1e-6
OBJECTIVE_RTOL = 1e-6
DRIFT_RTOL = 1e-8


def picks_digest(tuples):
    """Stable digest of a pick sequence: types and exact coordinates, in order."""
    text = ";".join(
        f"{int(t)}:" + ",".join(repr(float(c)) for c in loc) for loc, t in tuples
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(1.0, abs(b))


def load_reference(workload, seed):
    """Reference outputs recorded for (workload, seed) at full size, or None."""
    if not REFERENCE_PATH.is_file():
        return None
    table = json.loads(REFERENCE_PATH.read_text())
    return table.get(workload, {}).get(str(seed))


class Workload:
    name = None
    focus = ()            # layer functions that should dominate
    focus_phase = "wall"  # whose time the focus layers should dominate
    required = ()         # layer functions that must be called at least once

    def __init__(self, seed, size="full", work_dir=None):
        self.seed = int(seed)
        self.size = size
        self.work_dir = Path(work_dir) if work_dir is not None else None

    def setup(self):
        raise NotImplementedError

    def body(self):
        raise NotImplementedError

    @property
    def picks(self):
        """Selections made by one pass of the body."""
        raise NotImplementedError

    @property
    def ops(self):
        """Operations (selections, predictions, instances) in one pass."""
        raise NotImplementedError

    def check(self, out, reference):
        """Failure messages and a summary of one pass's outputs."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

class ExperimentWorkload(Workload):
    name = "experiment"
    focus = ("selector.select_smi",)
    required = (
        "selector.select_smi", "selector.select_svar", "selector.select_mvar",
        "selector.select_greedy", "criterion.GainEvaluator.entropies_given_selected",
        "experiment.generate_synthetic", "pitc.pitc_posterior", "linalg.chol_spd",
    )

    def setup(self):
        config = load_experiment_config(CONFIG_PATH)
        # repeat r runs on seed*1000 + r, so distinct seeds share no repeat
        config = replace(config, seed=self.seed * 1000, output_dir=str(self.work_dir))
        if self.size == "tiny":
            config = replace(
                config, checkpoints=(2, 4), inducing_count=5, test_count=5,
                synthetic=replace(config.synthetic, n_locations=30),
            )
        self.config = config

    @property
    def picks(self):
        c = self.config
        return len(c.algorithms) * c.repeats * c.checkpoints[-1]

    @property
    def ops(self):
        c = self.config
        return len(c.algorithms) * c.repeats * (1 + len(c.checkpoints))

    def body(self):
        table = run_experiment(self.config, out_dir=self.work_dir, threads=1)
        return {"table": table}

    def check(self, out, reference):
        c = self.config
        final = c.checkpoints[-1]
        failures = []
        digests = {}
        for algorithm in c.algorithms:
            for r in range(c.repeats):
                key = f"{algorithm}/repeat{r}"
                path = self.work_dir / f"selection_{algorithm}_{c.seed + r}.csv"
                with open(path, newline="") as fh:
                    rows = list(csv.DictReader(fh))
                picks = [
                    (tuple(float(row[f"x{v}"]) for v in range(c.hyperparams.dim)),
                     int(row["type_index"]))
                    for row in rows
                ]
                if len(picks) != final or len(set(picks)) != final:
                    failures.append(f"{key}: {len(picks)} picks, expected {final} distinct")
                digests[key] = picks_digest(picks)
        rows = out["table"].rows
        if len(rows) != len(c.algorithms) * c.repeats * len(c.checkpoints):
            failures.append(f"result table has {len(rows)} rows")
        failures += [
            f"{r.algorithm}/seed{r.seed}/budget{r.budget}: rmse {r.rmse}"
            for r in rows if not (math.isfinite(r.rmse) and r.rmse > 0)
        ]
        rmse_final = out["table"].mean_rmse("m-greedy", final)
        if reference is not None:
            failures += _compare_digests(digests, reference["digests"])
            if not _close(rmse_final, reference["rmse_final"], RMSE_RTOL):
                failures.append(
                    f"rmse_final {rmse_final!r} != reference {reference['rmse_final']!r}"
                )
        return failures, {"digests": digests, "rmse_final": rmse_final}


def _compare_digests(digests, expected):
    return [
        f"{key}: picks digest {digests.get(key)} != reference {want}"
        for key, want in expected.items() if digests.get(key) != want
    ]


# ---------------------------------------------------------------------------
# direct API calls on a seeded candidate pool
# ---------------------------------------------------------------------------

def pool_inputs(seed, n_target, n_aux, n_test, extent):
    """Seeded 1-D candidate pools and values from a smooth random function.

    Target values are the function plus type-0 noise; auxiliary values are a
    scaled copy plus type-1 noise; test truths are noiseless.
    """
    rng = np.random.default_rng(seed)
    amp = rng.normal(0.0, 1.0, size=6) / math.sqrt(6.0)
    freq = rng.uniform(0.1, 1.0, size=6)
    phase = rng.uniform(0.0, 2.0 * math.pi, size=6)

    def f(x):
        return np.sin(np.outer(x, freq) + phase) @ amp

    x_t = rng.uniform(0.0, extent, size=n_target)
    x_a = rng.uniform(0.0, extent, size=n_aux)
    x_test = rng.uniform(0.0, extent, size=n_test)
    y_t = f(x_t) + math.sqrt(0.25) * rng.standard_normal(n_target)
    y_a = 0.8 * f(x_a) + math.sqrt(0.1) * rng.standard_normal(n_aux)
    cands = {0: [as_tuple(x, 0) for x in x_t], 1: [as_tuple(x, 1) for x in x_a]}
    values = dict(zip(cands[0], y_t))
    values.update(zip(cands[1], y_a))
    test = [as_tuple(x, 0) for x in x_test]
    return cands, values, test, f(x_test)


class PoolWorkload(Workload):
    """select_inducing -> build_model -> build_cache in set-up; greedy
    selection and the posterior at the final budget in the timed body."""

    sizes = {}  # size -> (n_target, n_aux, n_inducing, budget)
    n_test = 200
    extent = 100.0

    def setup(self):
        n_target, n_aux, m, self.budget = self.sizes[self.size]
        h = load_hyperparams(CONFIG_PATH)
        cands, self.values, self.test, self.truth = pool_inputs(
            self.seed, n_target, n_aux, self.n_test if self.size == "full" else 20,
            self.extent,
        )
        locs = np.array([t.location for tuples in cands.values() for t in tuples])
        inducing = select_inducing(locs, m, seed=self.seed)
        self.model = build_model(h, inducing, cands)
        self.cache = build_cache(self.model)

    @property
    def picks(self):
        return self.sizes[self.size][3]

    ops = 2  # one selection and one prediction

    def body(self):
        state = select_greedy(self.model, self.cache, self.budget)
        y_x = np.array([self.values[t] for t in state.selected])
        pred = pitc_posterior(self.model, state.selected, y_x, self.test)
        return {"state": state, "mean": pred.mean}

    def check(self, out, reference):
        failures = []
        picks = out["state"].selected
        if len(picks) != self.budget or len(set(picks)) != self.budget:
            failures.append(f"{len(picks)} picks, expected {self.budget} distinct")
        digests = {"m-greedy/repeat0": picks_digest(picks)}
        objective = criterion_F(self.model, self.cache, picks)
        cumulative = out["state"].cumulative[-1]
        if not _close(cumulative, objective, DRIFT_RTOL):
            failures.append(f"cumulative gain {cumulative!r} != criterion_F {objective!r}")
        rmse_final = rmse(out["mean"], self.truth)
        if not (math.isfinite(rmse_final) and rmse_final > 0):
            failures.append(f"rmse_final {rmse_final}")
        if reference is not None:
            failures += _compare_digests(digests, reference["digests"])
            if not _close(objective, reference["objective_final"], OBJECTIVE_RTOL):
                failures.append(
                    f"objective {objective!r} != reference {reference['objective_final']!r}"
                )
            if not _close(rmse_final, reference["rmse_final"], RMSE_RTOL):
                failures.append(
                    f"rmse_final {rmse_final!r} != reference {reference['rmse_final']!r}"
                )
        return failures, {"digests": digests, "rmse_final": rmse_final,
                          "objective_final": objective}


class GreedyLargeWorkload(PoolWorkload):
    name = "greedy-large"
    focus = ("criterion.GainEvaluator.gains",)
    required = (
        "criterion.GainEvaluator.gains", "criterion.GainEvaluator.set_state",
        "selector.select_greedy", "pitc.pitc_posterior", "linalg.chol_spd",
    )
    sizes = {"full": (2000, 2000, 40, 150), "tiny": (40, 40, 5, 20)}


class TargetPoolLargeWorkload(PoolWorkload):
    name = "target-pool-large"
    focus = ("criterion.build_cache", "pitc.build_model")
    focus_phase = "setup"
    required = (
        "criterion.build_cache", "pitc.build_model", "pitc.select_inducing",
        "kernels.cov_matrix", "kernels.latent_cross_matrix", "linalg.chol_spd",
    )
    sizes = {"full": (4000, 1000, 20, 50), "tiny": (80, 20, 5, 10)}


# ---------------------------------------------------------------------------
# verification sweep
# ---------------------------------------------------------------------------

class VerifySweepWorkload(Workload):
    name = "verify-sweep"
    focus = ("criterion.criterion_F",)
    required = (
        "criterion.criterion_F", "verify.brute_force_optimum",
        "verify.estimate_epsilon1", "verify.random_instance", "linalg.chol_spd",
    )
    instances = {"full": 30, "tiny": 3}

    def setup(self):
        # instance seeds are seed*1000 + k, so distinct seeds share no instance
        self.config = VerifySweepConfig(
            instances=self.instances[self.size], seed=self.seed * 1000,
            output_dir=str(self.work_dir),
        )

    @property
    def picks(self):
        return self.config.instances * self.config.budget

    @property
    def ops(self):
        return self.config.instances

    def body(self):
        return {"counts": verify_sweep(self.config, out_dir=self.work_dir)}

    def check(self, out, reference):
        passes = out["counts"][0]
        n = self.config.instances
        failures = [f"verify instance not certified ({passes}/{n} pass)"] * (n - passes)
        if reference is not None and passes != reference["passes"]:
            failures.append(f"{passes} passes != reference {reference['passes']}")
        return failures, {"passes": passes}


WORKLOADS = {
    w.name: w for w in (
        ExperimentWorkload, GreedyLargeWorkload, TargetPoolLargeWorkload,
        VerifySweepWorkload,
    )
}
