"""Start-up contract: only a hyperparameter fit loads ``scipy.optimize``.

Each check runs in a fresh interpreter, since this test session has already
imported everything.  After every step of a run and a verification sweep
that never fit, ``scipy.optimize`` must still be absent from
``sys.modules``; a fit must load it, which shows that the check can see it.
"""

import os
import subprocess
import sys
from pathlib import Path

import mogpal

SRC = Path(mogpal.__file__).resolve().parents[1]

SCRIPT = """
import sys

def step(name):
    assert "scipy.optimize" not in sys.modules, f"scipy.optimize loaded by {name}"
    print("ok", name)

import mogpal
step("import mogpal")
import mogpal.experiment
step("import mogpal.experiment")
import mogpal.cli
step("import mogpal.cli")

from mogpal import Hyperparams
from mogpal.config import ALGORITHMS, ExperimentConfig, GeneratorSpec, VerifySweepConfig
from mogpal.experiment import run_experiment, verify_sweep

out = sys.argv[1]
h = Hyperparams(signal_var=[1.0, 0.8], noise_var=[0.25, 0.1], latent_prec_inv=[2.0],
                smooth_prec_inv=[[0.1], [0.1]], target_type=0)
run_experiment(ExperimentConfig(
    seed=1, repeats=1, algorithms=ALGORITHMS, checkpoints=(2, 4), inducing_count=5,
    test_count=4, hyperparams=h, output_dir=out + "/run",
    synthetic=GeneratorSpec(n_locations=12, extent=8.0),
))
step("run_experiment")
verify_sweep(VerifySweepConfig(instances=2, budget=2, pool_shape=(4, 4), output_dir=out + "/verify"))
step("verify_sweep")

from mogpal.hyperlearn import fit_hyperparams
from mogpal.kernels import as_tuple
fit_hyperparams([as_tuple([0.0], 0), as_tuple([1.0], 1)], [0.3, -0.2], h, budget=1)
assert "scipy.optimize" in sys.modules
print("ok fit_hyperparams loads it")
"""


def test_only_a_fit_loads_scipy_optimize(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "ok import mogpal", "ok import mogpal.experiment", "ok import mogpal.cli",
        "ok run_experiment", "ok verify_sweep", "ok fit_hyperparams loads it",
    ]
