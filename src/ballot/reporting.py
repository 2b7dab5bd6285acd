"""Run reports, the multi-seed experiment driver, and the aggregate CSV.

JSON numbers go through Python's shortest round-trip float repr, so a
written report parses back to bit-identical doubles.  Everything except
wall-clock times is a pure function of config, data, and seed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace
from pathlib import Path

from ._version import __version__
from .config import AppConfig, effective_dict
from .data import make_dataset
from .errors import ConfigurationError, PersistenceError
from .fileio import read_json, writing
from .masks import save_mask
from .metrics import EvalReport
from .model import live_units
from .pipeline import METHODS, PruneResult, run_baseline, train_dense

CSV_HEADER = "method,seed,accuracy,precision,recall,cwv,mcd,retention,rounds,wall_time_s"


def eval_report_dict(report: EvalReport) -> dict:
    """The report's fields; ``absent_classes`` only when a class is absent."""
    out = asdict(report)
    if not report.absent_classes:
        del out["absent_classes"]
    return out


def result_dict(result: PruneResult) -> dict:
    """One pruned run: its test report's metrics, its retention, its
    refinement round count and, for ballot, the only method that runs
    refinement rounds, each round's test metrics.  Its mask appears as
    per-layer counts only; the flags themselves are written to
    ``mask.bits`` by ``save_mask``."""
    mask = result.mask
    out = {
        **asdict(result.report),
        "method": result.method,
        "retention": mask.retention(),
        "rounds": len(result.round_reports) - 1,
        "wall_time_s": result.wall_time_s,
        "mask": {
            "live_units": [int(u.size) for u in live_units(mask)],
            "weights_kept": [int(wk.sum()) for wk in mask.weight_keep],
            "biases_kept": [int(bk.sum()) for bk in mask.bias_keep],
        },
    }
    del out["class_counts"], out["absent_classes"]
    if result.method == "ballot":
        out["rounds_log"] = [
            {"round": r, "accuracy": rep.accuracy, "cwv": rep.cwv, "mcd": rep.mcd}
            for r, rep in enumerate(result.round_reports)
        ]
    return out


def report_payload(
    app: AppConfig,
    seed: int,
    dense_report: EvalReport,
    results: list[PruneResult],
) -> dict:
    return {
        "version": __version__,
        "seed": seed,
        "config": effective_dict(app),
        "dense": eval_report_dict(dense_report),
        "results": [result_dict(r) for r in results],
    }


def write_report(path, payload: dict) -> None:
    with writing(path, "report") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path) -> dict:
    return read_json(path, "report", PersistenceError)


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_aggregate_csv(path, rows: list[dict]) -> None:
    ordered = sorted(rows, key=lambda r: (r["method"], r["seed"]))
    lines = [CSV_HEADER]
    for row in ordered:
        lines.append(",".join(_csv_cell(row[k]) for k in CSV_HEADER.split(",")))
    with writing(path, "") as fh:
        fh.write("\n".join(lines) + "\n")


def _summary_row(seed: int, run: dict) -> dict:
    """A run's aggregate CSV row, from its fields as ``result_dict``
    names them."""
    return {**run, "seed": seed,
            "precision": run["macro_precision"], "recall": run["macro_recall"]}


def _phase_runs(apps: list[AppConfig], artifacts, results: list[PruneResult]) -> list:
    """What one phase's results leave for the files: per seed, the run's
    directory name, its report payload, its mask and its aggregate row.
    The results themselves, and with them their retrained weights, are
    freed when this returns; a caller's loop variable bound to one would
    keep it alive into the next phase."""
    runs = []
    for app_seed, a, res in zip(apps, artifacts, results):
        payload = report_payload(app_seed, a.seed, a.dense_report, [res])
        runs.append((f"{res.method}-seed{a.seed}", payload, res.mask,
                     _summary_row(a.seed, payload["results"][0])))
    return runs


def run_experiment(app: AppConfig, n_seeds: int, out_dir) -> Path:
    """Dense plus all four pruners for seeds base..base+n-1.

    The seeds run in lockstep, phase by phase: dense training, ballot,
    then each baseline.  A phase's results are reduced to their reports,
    masks and aggregate rows as soon as it returns, so only one phase's
    retrained weights are held at a time.  Every file is written after
    the last phase, so a failing phase writes none: one report per
    (method, seed) run under runs/, the dense reports alongside them,
    and the sorted aggregate CSV.
    """
    if n_seeds < 1:
        raise ConfigurationError("experiment needs at least one seed")
    out_dir = Path(out_dir)
    data = make_dataset(app.dataset)
    seeds = [app.train.seed + i for i in range(n_seeds)]
    artifacts = train_dense(app.train, data, seeds)
    apps = [replace(app, train=replace(app.train, seed=seed)) for seed in seeds]
    runs = [
        (f"dense-seed{a.seed}",
         report_payload(app_seed, a.seed, a.dense_report, []),
         None,
         _summary_row(a.seed, {**asdict(a.dense_report), "method": "dense",
                               "retention": 1.0, "rounds": 0,
                               "wall_time_s": a.wall_time_s}))
        for app_seed, a in zip(apps, artifacts)
    ]
    for method in METHODS:
        runs += _phase_runs(apps, artifacts, run_baseline(method, app.train, data, artifacts))

    for name, payload, mask, _ in runs:
        run_dir = out_dir / "runs" / name
        write_report(run_dir / "report.json", payload)
        if mask is not None:
            save_mask(mask, run_dir / "mask.bits")
    csv_path = out_dir / "aggregate.csv"
    write_aggregate_csv(csv_path, [row for *_, row in runs])
    return csv_path
