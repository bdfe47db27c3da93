"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload greedy-large --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` next to this directory.  With ``--trace 0`` it prints the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a separate
traced run.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The untraced run's times are adjusted for how fast the host is at the
moment, measured by a reference job run between passes (``calibrate.py``);
the unadjusted medians are printed as ``info`` lines.
``--size tiny`` shrinks every workload for the self-tests.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

STARTED = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"

# One BLAS thread, set before numpy is first imported: the unset default
# makes timings depend on how busy the other cores are.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

# Set up at least SETUP_REPEATS times, and more (up to SETUP_REPEATS_MAX)
# while SETUP_SECONDS have not passed: cheap set-ups get a steadier median.
SETUP_REPEATS = 3
SETUP_REPEATS_MAX = 9
SETUP_SECONDS = 4.0
MIN_PASSES = 3
# Share of the previous pass's time spent on reference jobs before the next;
# see calibrate.py.
REFERENCE_SHARE = 0.1
# Share of the timed loop's time spent on further fresh-interpreter imports
# between passes, so the import's median samples the whole run.
IMPORT_SHARE = 0.1
# Times one import of the program in a fresh interpreter, then the reference
# job (the faster of two runs) in the same process, which tracks how fast the
# host was during the import; see calibrate.py.
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "t = time.perf_counter()\n"
    "import mogpal.experiment\n"
    "import_s = time.perf_counter() - t\n"
    "import calibrate\n"
    "job = calibrate.ReferenceJob()\n"
    "print(import_s, min(job(), job()))\n"
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def import_program():
    """Import the program from this checkout's ``src``, never an installed copy."""
    if not (SRC / "mogpal" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads  # imports numpy and mogpal
    import mogpal

    if Path(mogpal.__file__).resolve().parent != (SRC / "mogpal").resolve():
        raise SystemExit(f"perfbench: imported mogpal from {mogpal.__file__}")
    return workloads


def _import_seconds(calibrate):
    """One fresh-interpreter import of the program, adjusted for the host's
    speed at the time."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    import_s, reference_s = map(float, done.stdout.split()[-2:])
    return calibrate.adjust(import_s, reference_s)


def environment():
    """Machine and BLAS set-up the numbers were measured on."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
    }


def _load_metric_specs():
    spec = json.loads(BENCHMARK.read_text())
    return spec["end_to_end"], spec["per_layer"]


class Counter:
    """Operations attempted and failed over the passes of one run.

    Failure messages go to standard error; a pass whose picks differ from
    the first pass of the run fails too.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.seen_digests = None

    def record(self, workload, out, reference):
        try:
            failures, summary = workload.check(out, reference)
        except Exception:
            traceback.print_exc()
            return self.fail_pass(workload)
        digests = summary.get("digests")
        if digests is not None:
            if self.seen_digests is None:
                self.seen_digests = digests
            elif digests != self.seen_digests:
                failures.append("picks differ between passes of one run")
        self.attempted += workload.ops
        self.failed += min(len(failures), workload.ops)
        for msg in failures:
            print(f"check failed: {msg}", file=sys.stderr)
        return summary

    def fail_pass(self, workload):
        self.attempted += workload.ops
        self.failed += workload.ops
        return None


def _one_pass(workload, counter, reference, tracer=None, run_id=None):
    """Run and time one pass of the body, then check its outputs untimed."""
    started = time.perf_counter()
    try:
        if tracer is not None:
            with tracer.run(run_id):
                out = workload.body()
        else:
            out = workload.body()
    except Exception:
        traceback.print_exc()
        counter.fail_pass(workload)
        return time.perf_counter() - started, None
    seconds = time.perf_counter() - started
    if tracer is not None:
        with tracer.paused():
            summary = counter.record(workload, out, reference)
    else:
        summary = counter.record(workload, out, reference)
    return seconds, summary


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _reference_jobs(job, refs, budget):
    """Run the reference job at least once and until ``budget`` seconds pass."""
    spent = 0.0
    while not spent or spent < budget:
        refs.append(job())
        spent += refs[-1]


def run_untraced(workloads, cls, args, work_dir):
    import calibrate

    reference = load_reference(workloads, args)
    reference_job = calibrate.ReferenceJob()
    reference_job()  # warm-up
    imports, builds = [], []
    workload = None
    setup_started = time.perf_counter()
    while len(builds) < SETUP_REPEATS or (
        len(builds) < SETUP_REPEATS_MAX
        and time.perf_counter() - setup_started < SETUP_SECONDS
    ):
        workload = None  # release the previous model before building the next
        imports.append(_import_seconds(calibrate))
        started = time.perf_counter()
        workload = cls(args.seed, args.size, work_dir)
        workload.setup()
        builds.append(time.perf_counter() - started)

    counter = Counter()
    walls, refs, summary = [], [], None
    loop_imports_s = 0.0
    started = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - started < args.seconds:
        _reference_jobs(reference_job, refs, REFERENCE_SHARE * (walls[-1] if walls else 0.0))
        seconds, summary = _one_pass(workload, counter, reference)
        walls.append(seconds)
        if loop_imports_s < IMPORT_SHARE * (time.perf_counter() - started):
            probe_started = time.perf_counter()
            imports.append(_import_seconds(calibrate))
            loop_imports_s += time.perf_counter() - probe_started
    setup_s = statistics.median(imports) + statistics.median(builds)
    wall_norm_s = calibrate.adjust(statistics.median(walls), statistics.median(refs))
    measured = {
        "setup_s": setup_s,
        "wall_norm_s": wall_norm_s,
        "picks_per_norm_s": workload.picks / wall_norm_s,
        "peak_rss_mb": _peak_rss_mb(),
    }
    print(f"passes={len(walls)} walls_s={[round(w, 4) for w in walls]} "
          f"imports_s={[round(s, 4) for s in imports]} builds_s={[round(s, 4) for s in builds]}")
    print(f"info wall_s median unadjusted = {statistics.median(walls)!r}")
    print(f"info reference_job_s median = {statistics.median(refs)!r}")
    if summary is not None:
        for key in ("rmse_final", "objective_final", "passes"):
            if summary.get(key) is not None:
                print(f"info {key} = {summary[key]!r}")
    print(f"info failed_frac = {counter.failed / max(1, counter.attempted)!r}")
    return counter, measured


def load_reference(workloads, args):
    return workloads.load_reference(args.workload, args.seed) if args.size == "full" else None


def run_traced(workloads, cls, args, work_dir, meta):
    import tracer as tracing

    reference = load_reference(workloads, args)
    counter = Counter()
    tracer = tracing.Tracer(callers=(workloads.__name__,))
    untraced, traced = [], []
    with tracer.installed():
        started = time.perf_counter()
        workload = cls(args.seed, args.size, work_dir)
        with tracer.run("setup"):
            workload.setup()
        setup_s = time.perf_counter() - started
        started = time.perf_counter()
        while not traced or time.perf_counter() - started < args.seconds:
            with tracer.paused():
                untraced.append(_one_pass(workload, counter, reference)[0])
            traced.append(_one_pass(workload, counter, reference, tracer, len(traced))[0])
    per_pass = []
    for run_id in range(len(traced)):
        spans = [s for s in tracer.spans if s[5] in ("setup", run_id)]
        per_pass.append(layer_metrics(tracing.layer_stats(spans)))
    names = {k for p in per_pass for k in p}
    metrics = {k: statistics.median(p.get(k, 0) for p in per_pass) for k in names}
    wall_traced = statistics.median(traced)
    metrics["bench.trace_overhead_s"] = wall_traced - statistics.median(untraced)
    focus_ms = sum(metrics.get(f"{name}.ms", 0.0) for name in cls.focus)
    phase_s = setup_s if cls.focus_phase == "setup" else wall_traced
    metrics["bench.focus_share"] = focus_ms / 1e3 / phase_s

    for name in tracer.missing:
        print(f"warning: traced function {name} not found", file=sys.stderr)
    zero = silent_zeros(cls.required, metrics)
    for name in zero:
        print(f"check failed: {name} made no calls on {cls.name}", file=sys.stderr)
    counter.attempted += len(cls.required)
    counter.failed += len(zero)

    trace_dir = ROOT / ".perfbench_out" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"{cls.name}-seed{args.seed}-{args.size}.json.gz"
    meta = dict(meta, setup_s=setup_s, walls_traced_s=traced, walls_untraced_s=untraced)
    tracer.dump(trace_path, meta)
    print(f"trace written to {trace_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    return counter, metrics


def silent_zeros(required, metrics):
    """Layers a workload exists to stress that made no calls, for instance
    because a refactor renamed the traced function."""
    return [name for name in required if metrics.get(f"{name}.calls", 0) == 0]


def layer_metrics(stats):
    """Flatten ``tracer.layer_stats`` into ``<module>.<function>.<stat>`` names."""
    out = {}
    for name, st in stats.items():
        out[f"{name}.calls"] = st["calls"]
        out[f"{name}.ms"] = st["ms"]
        out[f"{name}.self_ms"] = st["self_ms"]
        out[f"{name}.errors"] = st["errors"]
        firsts = [v for group in st["first10"] for v in group]
        lasts = [v for group in st["last10"] for v in group]
        out[f"{name}.ms_first10"] = statistics.fmean(firsts)
        out[f"{name}.ms_last10"] = statistics.fmean(lasts)
    chol = stats.get("linalg.chol_spd")
    out["linalg.chol_spd.jitter_passes"] = chol["extra"] if chol else 0
    fcalls = out.get("criterion.criterion_F.calls", 0)
    out["criterion.criterion_F.us_per_call"] = (
        out["criterion.criterion_F.ms"] * 1e3 / fcalls if fcalls else 0.0
    )
    gains = stats.get("criterion.GainEvaluator.gains")
    per_candidate = []
    if gains:
        for durations, sizes in zip(gains["first10"], gains["first10_extra"]):
            per_candidate += [ms * 1e3 / n for ms, n in zip(durations, sizes)]
    out["criterion.gains.us_per_candidate_first10"] = (
        statistics.fmean(per_candidate) if per_candidate else 0.0
    )
    return out


def main(argv=None):
    args = _parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}"
        )
    e2e_specs, layer_specs = _load_metric_specs()
    cls = workloads.WORKLOADS[args.workload]
    meta = dict(environment(), workload=args.workload, seed=args.seed,
                seconds=args.seconds, size=args.size,
                in_process_import_s=time.perf_counter() - STARTED)
    for key, value in meta.items():
        print(f"env {key} = {value}")

    work_dir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            counter, measured = run_traced(workloads, cls, args, work_dir, meta)
            specs = layer_specs
        else:
            counter, measured = run_untraced(workloads, cls, args, work_dir)
            specs = e2e_specs
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = {}
    for spec in specs:
        value = float(measured.get(spec["name"], 0))
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"metric {spec['name']} = {value!r} {spec['unit']} ({spec['better']} is better)")
    result = {
        "correct": counter.failed == 0,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
