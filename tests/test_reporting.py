"""Report files, the aggregate CSV, and the multi-seed experiment driver."""

import gc
import json
import weakref

import pytest

from ballot import reporting
from ballot.config import config_from_dict
from ballot.errors import ConfigurationError, PersistenceError
from ballot.reporting import (
    CSV_HEADER,
    load_report,
    run_experiment,
    write_aggregate_csv,
    write_report,
)

APP_RAW = {
    "model": {"hidden": [8]},
    "train": {"epochs": 6, "batch": 16},
    "prune": {"omega": 0.4},
    "refine": {"rewind_epoch": 2, "max_rounds": 2},
    "data": {"synthetic": {"counts": [30, 12, 12], "dim": 4, "std": 0.8,
                           "seed": 1}},
}


def summary_row(method="ballot", seed=0, **overrides):
    row = {
        "method": method,
        "seed": seed,
        "accuracy": 0.9,
        "precision": 0.8,
        "recall": 0.7,
        "cwv": 0.01,
        "mcd": 0.2,
        "retention": 0.05,
        "rounds": 1,
        "wall_time_s": 1.5,
    }
    row.update(overrides)
    return row


def strip_wall_time_csv(text: str) -> str:
    return "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())


def strip_wall_time_json(obj):
    if isinstance(obj, dict):
        return {k: strip_wall_time_json(v) for k, v in obj.items()
                if k != "wall_time_s"}
    if isinstance(obj, list):
        return [strip_wall_time_json(v) for v in obj]
    return obj


class TestReportFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        payload = {
            "accuracy": 0.1 + 0.2,
            "values": [1 / 3, 1e-17, -0.0, 2.2250738585072014e-308],
            "nested": {"cwv": 0.060000000000000005},
        }
        path = tmp_path / "deep" / "report.json"
        write_report(path, payload)
        assert load_report(path) == payload

    def test_write_creates_directories(self, tmp_path):
        target = tmp_path / "a" / "b" / "report.json"
        write_report(target, {"x": 1})
        assert target.exists()

    def test_write_is_deterministic(self, tmp_path):
        payload = {"b": 2.5, "a": [1.0, {"z": 0.1, "y": 3}]}
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        write_report(pa, payload)
        write_report(pb, payload)
        assert pa.read_bytes() == pb.read_bytes()

    def test_keys_sorted_on_disk(self, tmp_path):
        path = tmp_path / "r.json"
        write_report(path, {"zeta": 1, "alpha": 2})
        text = path.read_text()
        assert text.index('"alpha"') < text.index('"zeta"')

    def test_load_missing(self, tmp_path):
        with pytest.raises(PersistenceError, match="cannot read report"):
            load_report(tmp_path / "nope.json")

    def test_load_corrupt(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("{broken")
        with pytest.raises(PersistenceError, match="not valid JSON"):
            load_report(path)

    def test_load_invalid_utf8(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_bytes(b'{"x": "\xff"}')
        with pytest.raises(PersistenceError, match="cannot read report .*'utf-8'"):
            load_report(path)


class TestAggregateCsv:
    def test_sorts_by_method_then_seed(self, tmp_path):
        rows = [
            summary_row("random", 1),
            summary_row("ballot", 1),
            summary_row("random", 0),
            summary_row("dense", 0),
            summary_row("ballot", 0),
        ]
        path = tmp_path / "agg.csv"
        write_aggregate_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        keys = [tuple(line.split(",")[:2]) for line in lines[1:]]
        assert keys == [("ballot", "0"), ("ballot", "1"), ("dense", "0"),
                        ("random", "0"), ("random", "1")]

    def test_floats_round_trip(self, tmp_path):
        row = summary_row(accuracy=0.1, cwv=1 / 3, wall_time_s=0.30000000000000004)
        path = tmp_path / "agg.csv"
        write_aggregate_csv(path, [row])
        cells = path.read_text().splitlines()[1].split(",")
        header = CSV_HEADER.split(",")
        assert float(cells[header.index("accuracy")]) == 0.1
        assert float(cells[header.index("cwv")]) == 1 / 3
        assert float(cells[header.index("wall_time_s")]) == 0.30000000000000004

    def test_header_exact(self):
        assert CSV_HEADER == ("method,seed,accuracy,precision,recall,cwv,mcd,"
                              "retention,rounds,wall_time_s")

    def test_unwritable_path(self, tmp_path):
        (tmp_path / "afile").write_text("")
        with pytest.raises(PersistenceError, match="cannot write"):
            write_aggregate_csv(tmp_path / "afile" / "agg.csv", [])


@pytest.fixture(scope="module")
def outcome(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    csv_path = run_experiment(config_from_dict(APP_RAW), 2, out)
    return out, csv_path


class TestRunExperiment:
    def test_layout(self, outcome):
        out, csv_path = outcome
        assert csv_path == out / "aggregate.csv"
        for seed in (0, 1):
            for method in ("dense", "ballot", "lth", "magnitude", "random"):
                run_dir = out / "runs" / f"{method}-seed{seed}"
                assert (run_dir / "report.json").exists()
                assert (run_dir / "mask.bits").exists() == (method != "dense")

    def test_csv_rows(self, outcome):
        out, csv_path = outcome
        lines = csv_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 11  # header + (dense + 4 methods) x 2 seeds
        keys = [tuple(line.split(",")[:2]) for line in lines[1:]]
        assert keys == sorted(keys)
        assert {k[0] for k in keys} == {"ballot", "dense", "lth", "magnitude",
                                        "random"}

    def test_report_contents(self, outcome):
        out, _ = outcome
        report = load_report(out / "runs" / "ballot-seed1" / "report.json")
        assert set(report) == {"version", "seed", "config", "dense", "results"}
        assert report["seed"] == 1
        assert report["config"]["seed"] == 1
        assert report["config"]["model"]["hidden"] == [8]
        (result,) = report["results"]
        assert result["method"] == "ballot"
        assert 0.0 <= result["retention"] <= 1.0
        assert set(result["mask"]) == {"live_units", "weights_kept", "biases_kept"}
        assert "rounds_log" in result
        assert result["rounds_log"][0]["round"] == 0

        dense = load_report(out / "runs" / "dense-seed1" / "report.json")
        assert dense["results"] == []
        assert dense["dense"] == report["dense"]

    def test_repeat_run_identical_minus_wall_time(self, outcome, tmp_path):
        out, csv_path = outcome
        again = tmp_path / "rerun"
        csv_again = run_experiment(config_from_dict(APP_RAW), 2, again)
        assert strip_wall_time_csv(csv_again.read_text()) == strip_wall_time_csv(
            csv_path.read_text()
        )
        for run_dir in sorted((out / "runs").iterdir()):
            a = load_report(run_dir / "report.json")
            b = load_report(again / "runs" / run_dir.name / "report.json")
            assert strip_wall_time_json(a) == strip_wall_time_json(b)
            if run_dir.name.startswith("dense-"):
                continue
            assert (run_dir / "mask.bits").read_bytes() == \
                (again / "runs" / run_dir.name / "mask.bits").read_bytes()

    def test_zero_seeds_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="at least one seed"):
            run_experiment(config_from_dict(APP_RAW), 0, tmp_path)

    def test_base_seed_offsets(self, tmp_path):
        raw = dict(APP_RAW)
        raw["seed"] = 5
        out = tmp_path / "offset"
        run_experiment(config_from_dict(raw), 1, out)
        assert (out / "runs" / "dense-seed5" / "report.json").exists()

    def test_no_retrained_weights_outlive_their_phase(self, tmp_path, monkeypatch):
        # every phase's retrained weights are freed before the next phase
        # starts, and the last phase's before the run returns
        real = reporting.run_baseline
        phases = []

        def live_refs():
            gc.collect()
            return [method for method, refs in phases
                    if any(ref() is not None for ref in refs)]

        def tracked(method, *args):
            assert live_refs() == [], f"alive when {method} starts"
            results = real(method, *args)
            phases.append((method, [weakref.ref(r.params.weights[0]) for r in results]))
            return results

        monkeypatch.setattr(reporting, "run_baseline", tracked)
        run_experiment(config_from_dict(APP_RAW), 2, tmp_path / "exp")
        assert [method for method, _ in phases] == ["ballot", "lth", "magnitude", "random"]
        assert live_refs() == []
