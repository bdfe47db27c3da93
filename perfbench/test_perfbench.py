"""Self-tests of the benchmark: tracing leaves the program as it found it
and does not change its outputs, every workload runs at a tiny size without
failures, and the command prints every metric by name with its unit."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import calibrate  # noqa: E402
import mogpal  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from mogpal.criterion import GainEvaluator  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bindings():
    """Identity of every attribute the tracer may patch."""
    mods = {n: m for n, m in sys.modules.items() if n == "mogpal" or n.startswith("mogpal.")}
    mods["workloads"] = workloads
    out = {(n, a): id(v) for n, m in mods.items() for a, v in vars(m).items()}
    out.update({("GainEvaluator", a): id(v) for a, v in vars(GainEvaluator).items()})
    return out


def _tiny(name, tmp_path):
    w = workloads.WORKLOADS[name](1, "tiny", tmp_path)
    w.setup()
    return w


def test_wrappers_restored_after_traced_run(tmp_path):
    before = _bindings()
    tracer = tracing.Tracer(callers=("workloads",))
    w = _tiny("greedy-large", tmp_path)
    with tracer.installed():
        assert mogpal.linalg.chol_spd is not mogpal.linalg.chol_spd.__wrapped__
        with tracer.run(0):
            w.body()
    assert not tracer.missing
    assert {s[1] for s in tracer.spans} >= {
        "selector.select_greedy", "criterion.GainEvaluator.gains", "linalg.chol_spd",
    }
    assert _bindings() == before


def test_wrappers_restored_when_traced_run_raises(tmp_path):
    before = _bindings()
    tracer = tracing.Tracer(callers=("workloads",))
    with pytest.raises(RuntimeError), tracer.installed():
        raise RuntimeError("boom")
    assert _bindings() == before


@pytest.mark.parametrize("name", ["experiment", "greedy-large", "target-pool-large"])
def test_traced_and_untraced_picks_identical(name, tmp_path):
    w = _tiny(name, tmp_path)
    _, plain = w.check(w.body(), None)
    tracer = tracing.Tracer(callers=("workloads",))
    with tracer.installed(), tracer.run(0):
        out = w.body()
    _, traced = w.check(out, None)
    assert tracer.spans
    assert traced["digests"] == plain["digests"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_of_every_workload_has_no_failures(name, tmp_path):
    w = _tiny(name, tmp_path)
    failures, _ = w.check(w.body(), None)
    assert failures == []
    assert w.ops >= 1 and w.picks >= 1


def test_reference_mismatch_counts_as_failure(tmp_path):
    w = _tiny("greedy-large", tmp_path)
    out = w.body()
    _, summary = w.check(out, None)
    reference = {"digests": {"m-greedy/repeat0": "0" * 16},
                 "rmse_final": summary["rmse_final"],
                 "objective_final": summary["objective_final"]}
    failures, _ = w.check(out, reference)
    assert len(failures) == 1 and "digest" in failures[0]


def test_silent_zero_guard_names_uncalled_layers():
    metrics = {"criterion.criterion_F.calls": 0, "linalg.chol_spd.calls": 7}
    required = ("criterion.criterion_F", "linalg.chol_spd", "verify.renamed")
    assert run.silent_zeros(required, metrics) == ["criterion.criterion_F", "verify.renamed"]


def test_adjust_is_neutral_at_nominal_speed_and_linear_in_time():
    nominal = calibrate.NOMINAL_S
    assert calibrate.adjust(2.0, nominal) == pytest.approx(2.0)
    assert calibrate.adjust(1.0, 4 * nominal) == pytest.approx(0.5)
    assert calibrate.adjust(3.0, 2 * nominal) == pytest.approx(3 * calibrate.adjust(1.0, 2 * nominal))


def test_reference_job_times_itself():
    job = calibrate.ReferenceJob()
    assert 0.0 < job() < 10.0


def test_layer_stats_self_time_excludes_children():
    spans = [
        [0, "a", 0.0, 1.0, -1, 0, None, 0],
        [1, "b", 0.1, 0.4, 0, 0, None, 0],
        [2, "b", 0.5, 0.6, 0, 0, None, 1],
    ]
    stats = tracing.layer_stats(spans)
    assert stats["a"]["calls"] == 1
    assert stats["a"]["self_ms"] == pytest.approx(600.0)
    assert stats["b"]["calls"] == 2 and stats["b"]["errors"] == 1
    assert stats["b"]["ms"] == pytest.approx(400.0)


def _run(cwd, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-sweep", "--seed", "0",
         "--seconds", "0", "--size", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_every_metric_with_unit(trace, kind):
    done = _run(ROOT, "--trace", trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC[kind]
    assert list(result["metrics"]) == [m["name"] for m in specs]
    for m in specs:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"metric {m['name']} = ") and f" {m['unit']} " in line
                   for line in lines)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout
