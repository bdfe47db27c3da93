"""Command line entry point.

Subcommands: ``run`` (experiment), ``fit`` (hyperparameter MLE), ``verify``
(near-optimality sweep), ``synth`` (synthetic dataset generation).  Every
subcommand reads a plain-text config and ``--out`` overrides its output
directory; ``--seed`` overrides the config's seed for ``run``, ``verify``
and ``synth``, and ``run --threads`` runs repeats concurrently.  ``_load``
applies the overrides to the loaded config, whose own checks then hold for
them; the rules on values live in ``config``.  ``main`` is the one place
that turns an error into an exit status: a :class:`MogpalError`, or an
``OSError`` such as an ``--out`` that cannot be made, ends a command with one
line on stderr.  Exit statuses: 0 for success, 1 when ``verify`` finds a
violated certificate, 2 for an error.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import (
    load_experiment_config,
    load_verify_config,
    save_hyperparams,
)
from .data import normalize, save_dataset
from .errors import ConfigError, MogpalError
from .experiment import generate_synthetic, load_experiment_dataset, run_experiment, verify_sweep
from .hyperlearn import fit_hyperparams


def _parser():
    parser = argparse.ArgumentParser(
        prog="mogpal",
        description="Active learning of multi-output Gaussian processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("run", "run an experiment config and write result tables"),
        ("fit", "fit hyperparameters by maximum likelihood"),
        ("verify", "run the near-optimality verification sweep"),
        ("synth", "generate a synthetic dataset"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", required=True, help="path to the config file")
        cmd.add_argument("--out", default=None, help="output directory override")
        if name != "fit":
            cmd.add_argument("--seed", type=int, default=None, help="seed override")
        if name == "run":
            cmd.add_argument("--threads", type=int, default=1, help="concurrent repeats")
    return parser


def _load(args, loader):
    """The config at ``--config``, with ``--out`` and ``--seed`` in place
    of its ``output_dir`` and ``seed`` where given."""
    overrides = dict(output_dir=args.out, seed=getattr(args, "seed", None))
    return replace(loader(args.config), **{k: v for k, v in overrides.items() if v is not None})


def _cmd_run(args):
    config = _load(args, load_experiment_config)
    table = run_experiment(config, threads=args.threads)
    print(f"wrote {len(table.rows)} rows to {Path(config.output_dir) / 'result_table.csv'}")
    for algorithm in config.algorithms:
        final = config.checkpoints[-1]
        print(f"  {algorithm}: mean rmse at budget {final} = "
              f"{table.mean_rmse(algorithm, final):.6g}")
    return 0


def _cmd_fit(args):
    config = _load(args, load_experiment_config)
    if config.dataset_path is None:
        raise ConfigError(f"{args.config}: fit needs a [data] section with dataset and schema")
    norm, _ = normalize(load_experiment_dataset(config))
    measured = ~np.isnan(norm.values)  # row-major, so location-major: the fit depends on the order
    tuples = [norm.tuple_at(li, ti) for li, ti in np.argwhere(measured)]
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)  # a bad --out fails before the fit
    fit = fit_hyperparams(tuples, norm.values[measured], config.hyperparams,
                          budget=config.fit_budget)
    path = out / "fitted_hyperparams.ini"
    save_hyperparams(
        fit.h, path,
        extras={
            "final_nll": fit.final_nll,
            "iterations": fit.iterations,
            "converged": fit.converged,
        },
    )
    print(f"wrote {path} (nll {fit.final_nll:.6g}, converged={fit.converged})")
    return 0


def _cmd_verify(args):
    config = _load(args, load_verify_config)
    passes, failures = verify_sweep(config)
    print(f"wrote {Path(config.output_dir) / 'verify_report.txt'}")
    print(f"pass={passes} fail={failures}")
    return 0 if failures == 0 else 1


def _cmd_synth(args):
    config = _load(args, load_experiment_config)
    if config.synthetic is None:
        raise ConfigError(f"{args.config}: synth needs a [synthetic] section")
    dataset = generate_synthetic(config.synthetic, config.hyperparams)(config.seed)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "synthetic.csv"
    save_dataset(dataset, csv_path)
    schema_path = out / "synthetic.schema"
    coords = ", ".join(f"x{v}" for v in range(dataset.coords.shape[1]))
    types = ", ".join(dataset.type_names)
    schema_path.write_text(f"[schema]\ncoords = {coords}\ntypes = {types}\n", encoding="utf-8")
    print(f"wrote {csv_path} and {schema_path}")
    return 0


def main(argv=None):
    args = _parser().parse_args(argv)
    handler = {
        "run": _cmd_run, "fit": _cmd_fit, "verify": _cmd_verify, "synth": _cmd_synth,
    }[args.command]
    try:
        return handler(args)
    except (MogpalError, OSError) as exc:
        print(f"mogpal {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
