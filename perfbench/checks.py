"""Output checks and the non-timing digest of a command's output.

The checks re-derive what the program reports from what it promises:
every retention is floor(omega * n) / n, cwv and mcd follow from the
per-class accuracies, and the aggregate has one row per method and seed.
They never read a mask's ``trimmed`` list, whose location is planned to
change.

The digest covers every byte a command writes except timings.  By the
program's convention a field holding seconds ends in ``_s``
(``wall_time_s``): such JSON values and CSV columns are blanked before
hashing, so the digest of one commit is identical across repeats.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from pathlib import Path

METHODS = ("dense", "ballot", "lth", "magnitude", "random")
TOLERANCE = 1e-12

_JSON_SECONDS = re.compile(
    rb'("[A-Za-z0-9_]*_s"\s*:\s*)(-?[0-9][0-9.eE+-]*|NaN|-?Infinity|null)'
)


def strip_timing(name: str, data: bytes) -> bytes:
    """Blank the seconds fields of one output file."""
    if name.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        if not rows:
            return data
        keep = [i for i, h in enumerate(rows[0]) if not h.endswith("_s")]
        return "\n".join(",".join(r[i] for i in keep if i < len(r))
                         for r in rows).encode("utf-8")
    if name.endswith((".json", ".jsonl")):
        return _JSON_SECONDS.sub(rb"\1null", data)
    return data


def digest(out_dir) -> str:
    """SHA-256 over the relative path and stripped bytes of every file
    under ``out_dir``, in sorted path order."""
    root = Path(out_dir)
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        h.update(rel.encode("utf-8") + b"\0")
        h.update(strip_timing(rel, path.read_bytes()) + b"\0")
    return h.hexdigest()


def cwv(per_class_acc) -> float:
    """Population variance of the per-class accuracies."""
    v = [float(a) for a in per_class_acc]
    mean = sum(v) / len(v)
    return sum((a - mean) ** 2 for a in v) / len(v)


def mcd(per_class_acc) -> float:
    return max(per_class_acc) - min(per_class_acc)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOLERANCE, abs_tol=TOLERANCE)


def check_fairness(report: dict, where: str) -> list[str]:
    """cwv and mcd of a report dict match its per_class_acc."""
    acc = report["per_class_acc"]
    problems = []
    if not _close(cwv(acc), report["cwv"]):
        problems.append(f"{where}: cwv {report['cwv']!r} != {cwv(acc)!r}")
    if not _close(mcd(acc), report["mcd"]):
        problems.append(f"{where}: mcd {report['mcd']!r} != {mcd(acc)!r}")
    return problems


def param_count(config: dict) -> int:
    """Parameter count of the network an effective config describes."""
    synth = config["data"]["synthetic"]
    dims = [synth["dim"], *config["model"]["hidden"], synth["classes"]]
    return sum(a * b + b for a, b in zip(dims, dims[1:]))


def train_rows(config: dict) -> int:
    """Size of the stratified training split of the synthetic data."""
    split = config["data"]["split"]
    return sum(min(max(int(round(split * c)), 1), c - 1)
               for c in config["data"]["synthetic"]["counts"])


def finetune_epochs(epochs: int) -> int:
    """Magnitude pruning fine-tunes for a fifth of the budget."""
    return max(1, epochs // 5)


def read_aggregate(out_dir) -> list[dict]:
    with open(Path(out_dir) / "aggregate.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def check_experiment(out_dir, seeds: list[int]) -> tuple[list[str], dict]:
    """Check an ``experiment`` output directory.

    Returns the problems found and, when there are none to stop it, the
    run facts the benchmark reports: training samples stepped, the
    per-phase wall times and the ballot results, all per seed.
    """
    out_dir = Path(out_dir)
    problems: list[str] = []
    rows = read_aggregate(out_dir)
    by_seed: dict[int, dict] = {}
    for row in rows:
        by_seed.setdefault(int(row["seed"]), {})[row["method"]] = row
    for seed in seeds:
        got = sorted(by_seed.get(seed, {}))
        n_rows = sum(1 for r in rows if int(r["seed"]) == seed)
        if n_rows != len(METHODS) or got != sorted(METHODS):
            problems.append(f"seed {seed}: aggregate rows {got}, "
                            f"expected one each of {sorted(METHODS)}")
    if sorted(by_seed) != sorted(seeds):
        problems.append(f"aggregate seeds {sorted(by_seed)} != {sorted(seeds)}")
    if problems:
        return problems, {}

    facts = {"samples": 0, "run_dense_s": [], "run_ballot_s": [],
             "run_baselines_s": [], "ballot_cwv": [], "ballot_accuracy": []}
    for seed in seeds:
        dense = json.loads((out_dir / "runs" / f"dense-seed{seed}" /
                            "report.json").read_text())
        config = dense["config"]
        n = param_count(config)
        kept = math.floor(config["prune"]["omega"] * n) / n
        problems += check_fairness(dense["dense"], f"dense-seed{seed}")
        for method, row in by_seed[seed].items():
            want = 1.0 if method == "dense" else kept
            if float(row["retention"]) != want:
                problems.append(f"{method}-seed{seed}: retention "
                                f"{row['retention']} != {want!r}")
            report = json.loads((out_dir / "runs" / f"{method}-seed{seed}" /
                                 "report.json").read_text())
            result = report["dense"] if method == "dense" else report["results"][0]
            problems += check_fairness(result, f"{method}-seed{seed}")
            for key in ("cwv", "mcd"):
                if float(row[key]) != result[key]:
                    problems.append(f"{method}-seed{seed}: csv {key} "
                                    f"{row[key]} != report {result[key]!r}")

        # Full-budget trainings: dense, lth, random, and ballot's round 0
        # plus one per refinement round; magnitude only fine-tunes.
        epochs = config["train"]["epochs"]
        full = 4 + int(by_seed[seed]["ballot"]["rounds"])
        facts["samples"] += train_rows(config) * (
            full * epochs + finetune_epochs(epochs))
        wall = {m: float(r["wall_time_s"]) for m, r in by_seed[seed].items()}
        facts["run_dense_s"].append(wall["dense"])
        facts["run_ballot_s"].append(wall["ballot"])
        facts["run_baselines_s"].append(
            wall["lth"] + wall["magnitude"] + wall["random"])
        facts["ballot_cwv"].append(float(by_seed[seed]["ballot"]["cwv"]))
        facts["ballot_accuracy"].append(float(by_seed[seed]["ballot"]["accuracy"]))
    return problems, facts


def check_evaluation(path, class_counts: list[int]) -> tuple[list[str], dict]:
    """Check an ``evaluate`` output file against the CSV's class counts."""
    report = json.loads(Path(path).read_text())["report"]
    problems = check_fairness(report, "evaluate")
    if list(report["class_counts"]) != list(class_counts):
        problems.append(f"class_counts {report['class_counts']} != {class_counts}")
    return problems, {"samples": sum(report["class_counts"])}
