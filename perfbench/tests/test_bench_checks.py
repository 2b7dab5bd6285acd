"""Output checks and the non-timing digest."""

import csv
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402


def test_strip_timing_blanks_seconds_fields_only():
    raw = (b'{\n  "cwv": 0.5,\n  "wall_time_s": 1.25,\n'
           b'  "inner": {"setup_s": 3.2e-05, "rounds": 2}\n}\n')
    out = checks.strip_timing("report.json", raw)
    assert json.loads(out) == {"cwv": 0.5, "wall_time_s": None,
                               "inner": {"setup_s": None, "rounds": 2}}


def test_strip_timing_drops_seconds_csv_column():
    raw = b"method,seed,cwv,wall_time_s\nballot,0,0.1,1.5\ndense,0,0.2,0.7\n"
    out = checks.strip_timing("aggregate.csv", raw)
    assert out == b"method,seed,cwv\nballot,0,0.1\ndense,0,0.2"


def _write(root: Path, files: dict) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_digest_ignores_timings_but_not_results(tmp_path):
    base = {"aggregate.csv": "method,cwv,wall_time_s\nballot,0.1,1.0\n",
            "runs/a/report.json": '{"cwv": 0.1, "wall_time_s": 2.0}'}
    a = checks.digest(_write(tmp_path / "a", base))
    retimed = {"aggregate.csv": "method,cwv,wall_time_s\nballot,0.1,9.5\n",
               "runs/a/report.json": '{"cwv": 0.1, "wall_time_s": 7.25}'}
    assert checks.digest(_write(tmp_path / "b", retimed)) == a
    changed = dict(base, **{"runs/a/report.json": '{"cwv": 0.2, "wall_time_s": 2.0}'})
    assert checks.digest(_write(tmp_path / "c", changed)) != a
    moved = {"aggregate.csv": base["aggregate.csv"],
             "runs/b/report.json": base["runs/a/report.json"]}
    assert checks.digest(_write(tmp_path / "d", moved)) != a


def test_fairness_recomputation():
    acc = [0.9, 0.5, 0.7, 0.3]
    assert checks.cwv(acc) == pytest.approx(0.05)
    assert checks.mcd(acc) == pytest.approx(0.6)
    good = {"per_class_acc": acc, "cwv": 0.05, "mcd": 0.6}
    assert checks.check_fairness(good, "x") == []
    assert len(checks.check_fairness(dict(good, cwv=0.06), "x")) == 1


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    from ballot.cli import main

    root = tmp_path_factory.mktemp("exp")
    config = root / "config.json"
    config.write_text(json.dumps({"model": {"hidden": [6, 5]},
                                  "train": {"epochs": 3},
                                  "refine": {"rewind_epoch": 1}}))
    assert main(["experiment", "--seeds", "2", "--config", str(config),
                 "--out", str(root / "out")]) == 0
    return root / "out"


def test_real_experiment_passes(experiment):
    problems, facts = checks.check_experiment(experiment, [0, 1])
    assert problems == []
    rounds = [int(r["rounds"]) for r in checks.read_aggregate(experiment)
              if r["method"] == "ballot"]
    rows_per_epoch = 560 + 80 + 80 + 80
    assert facts["samples"] == sum(rows_per_epoch * (3 * (4 + r) + 1)
                                   for r in rounds)
    assert len(facts["run_dense_s"]) == 2


def _tamper(path: Path, old: str, new: str):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_tampered_outputs_are_caught(experiment, tmp_path):
    import shutil

    out = tmp_path / "out"
    shutil.copytree(experiment, out)
    rows = checks.read_aggregate(out)
    lth = next(r for r in rows if r["method"] == "lth" and r["seed"] == "0")
    report = out / "runs" / "lth-seed0" / "report.json"
    _tamper(report, f'"cwv": {lth["cwv"]}', '"cwv": 0.123')
    problems, _ = checks.check_experiment(out, [0, 1])
    assert any("lth-seed0: cwv" in p for p in problems)

    with open(out / "aggregate.csv", newline="") as fh:
        table = list(csv.reader(fh))
    table[1][table[0].index("retention")] = "0.5"
    (out / "aggregate.csv").write_text("\n".join(",".join(r) for r in table) + "\n")
    problems, _ = checks.check_experiment(out, [0, 1])
    assert any("retention" in p for p in problems)

    problems, _ = checks.check_experiment(out, [0, 1, 2])
    assert any("seed 2" in p for p in problems)
