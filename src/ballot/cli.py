"""Command-line entry point.

Exit codes: 0 success, 1 configuration or usage error, 2 data or file
error, 3 numerical failure.  Diagnostics go to stderr; results are
written to files, never to stdout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ._version import __version__
from .config import AppConfig, config_from_dict, load_config
from .data import csv_blocks, gen_synthetic, make_dataset, save_csv, split_blocks
from .errors import (
    ConfigurationError,
    DataError,
    NumericalFailure,
    PersistenceError,
    UsageError,
)
from .masks import save_mask
from .metrics import evaluate
from .model import load_checkpoint, save_checkpoint
from .pipeline import METHODS, run_baseline, train_dense
from .reporting import (
    eval_report_dict,
    report_payload,
    run_experiment,
    write_report,
)


class _UsageExit(Exception):
    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageExit(self, message)


def _load(config_path) -> AppConfig:
    if config_path is None:
        return config_from_dict({})
    return load_config(config_path)


def _cmd_run(args) -> int:
    """``train`` and ``prune``: dense training, then for ``prune`` the
    one method it names.  The report is written first, then the mask and
    the checkpoints."""
    app = _load(args.config)
    methods = [args.method or app.method] if args.command == "prune" else []
    data = make_dataset(app.dataset)
    (artifacts,) = train_dense(app.train, data, [app.train.seed])
    results = [run_baseline(method, app.train, data, [artifacts])[0] for method in methods]
    out = Path(args.out)
    write_report(
        out / "report.json",
        report_payload(app, app.train.seed, artifacts.dense_report, results),
    )
    checkpoints = {name: getattr(artifacts, name) for name in ("theta0", "theta_k", "theta_e")}
    for result in results:
        save_mask(result.mask, out / "mask.bits")
        checkpoints["final"] = result.params
    for name, params in checkpoints.items():
        save_checkpoint(params, out / "checkpoints" / f"{name}.ckpt")
    print(f"wrote {out / 'report.json'}")
    return 0


def _cmd_evaluate(args) -> int:
    """Evaluate a checkpoint on a config's test split or on every row of
    a CSV file, both through ``metrics.evaluate``.  A config's data is
    checked against the checkpoint first: its feature count, then its
    class count."""
    params = load_checkpoint(args.checkpoint)
    if args.data.endswith(".json"):
        data = make_dataset(load_config(args.data).dataset)
        n_features, n_classes = params.dims[0], params.dims[-1]
        if data.dim != n_features:
            raise ConfigurationError(
                f"checkpoint expects {n_features} features, data has {data.dim}")
        if data.n_classes > n_classes:
            raise DataError(f"the data has {data.n_classes} classes, "
                            f"the checkpoint has {n_classes}")
        blocks = split_blocks(data.test)
    else:
        blocks = csv_blocks(args.data, args.label_column)
    report = evaluate(params, blocks)
    payload = {
        "version": __version__,
        "checkpoint": str(args.checkpoint),
        "epoch": params.epoch_tag,
        "seed": params.seed,
        "report": eval_report_dict(report),
    }
    write_report(args.out, payload)
    print(f"wrote {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    app = _load(args.config)
    csv_path = run_experiment(app, args.seeds, args.out)
    print(f"wrote {csv_path}")
    return 0


def _cmd_gen_data(args) -> int:
    app = _load(args.config)
    if app.dataset.synthetic is None:
        raise ConfigurationError(
            "gen-data needs a synthetic data section, not csv_path"
        )
    x, y = gen_synthetic(app.dataset.synthetic)
    save_csv(x, y, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ballot",
                     description="Fairness-aware pruning of small MLPs")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("train", help="dense training only")
    p.add_argument("--config", help="JSON config path (defaults apply if omitted)")
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("prune", help="train, mask, and retrain with one method")
    p.add_argument("--method", choices=METHODS,
                   help="pruning method (default: prune.method from config)")
    p.add_argument("--config")
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("evaluate", help="report metrics for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True,
                   help="a config JSON (test split is used) or a CSV file")
    p.add_argument("--label-column", default="label",
                   help="label column of a CSV --data (default: label); a "
                        "config JSON names its own in data.label_column")
    p.add_argument("--out", default="evaluation.json")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("experiment", help="dense + all methods over many seeds")
    p.add_argument("--seeds", type=int, default=1,
                   help="number of consecutive seeds, starting at config seed")
    p.add_argument("--config")
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("gen-data", help="write the synthetic dataset as CSV")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_usage(sys.stderr)
            print("ballot: a subcommand is required", file=sys.stderr)
            return 1
        return args.func(args)
    except _UsageExit as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"ballot: {exc}", file=sys.stderr)
        return 1
    except (ConfigurationError, UsageError) as exc:
        print(f"ballot: configuration error: {exc}", file=sys.stderr)
        return 1
    except (DataError, PersistenceError) as exc:
        print(f"ballot: data error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"ballot: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
