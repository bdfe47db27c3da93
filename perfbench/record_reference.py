"""Record the reference outputs the benchmark checks its runs against.

    python3 perfbench/record_reference.py --seeds 0-19

For every workload and seed, runs one full-size pass of the body and stores
its pick digests, ``rmse_final``, ``objective_final`` and verify pass count
in ``reference.json``.  Run it only at a commit whose outputs are known to
be right; a later run of the benchmark fails every operation whose output
differs from the recorded one.
"""

import argparse
import json
import os
import sys
import tempfile

import run


def _seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 0-19")
    parser.add_argument("--workload", action="append", help="default: all")
    args = parser.parse_args(argv)
    for var in run.BLAS_ENV:
        os.environ[var] = run.BLAS_THREADS
    workloads = run.import_program()
    names = args.workload or sorted(workloads.WORKLOADS)
    path = workloads.REFERENCE_PATH
    table = json.loads(path.read_text()) if path.is_file() else {}
    scratch = run.ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    for name in names:
        for seed in args.seeds:
            with tempfile.TemporaryDirectory(dir=scratch) as work_dir:
                workload = workloads.WORKLOADS[name](seed, "full", work_dir)
                workload.setup()
                failures, summary = workload.check(workload.body(), None)
            if failures:
                sys.exit(f"{name} seed {seed}: {failures}")
            table.setdefault(name, {})[str(seed)] = {
                key: summary[key]
                for key in ("digests", "rmse_final", "objective_final", "passes")
                if key in summary
            }
            print(name, seed, table[name][str(seed)], flush=True)
            path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
