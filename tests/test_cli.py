"""End-to-end CLI runs, in process via main(argv).

Exit codes under test: 0 success, 1 configuration or usage error,
2 data or file error, 3 numerical failure.
"""

import hashlib
import json
import os
import re
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from ballot import cli, errors, metrics, pipeline, reporting
from ballot._version import __version__
from ballot.cli import main
from ballot.data import Split, require_labels_below, split_blocks
from ballot.errors import ConfigurationError, NumericalFailure
from ballot.masks import load_mask
from ballot.metrics import evaluate
from ballot.model import (
    FORWARD_BLOCK_ROWS,
    init_network,
    live_units,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from ballot.reporting import CSV_HEADER, load_report

from conftest import write_undecodable_at_block_edge

WALL_TIME = re.compile(rb'(?<="wall_time_s": )[^,\n]+')
# every JSON value of a key ending in _s, as the benchmark's digest
# (perfbench/checks.py) blanks it
SECONDS = re.compile(
    rb'("[A-Za-z0-9_]*_s"\s*:\s*)(-?[0-9][0-9.eE+-]*|NaN|-?Infinity|null)'
)

SMALL = {
    "model": {"hidden": [8]},
    "train": {"epochs": 6, "batch": 16},
    "prune": {"omega": 0.4},
    "refine": {"rewind_epoch": 2, "max_rounds": 2},
    "data": {"synthetic": {"counts": [30, 12, 12], "dim": 4, "std": 0.8,
                           "seed": 1}},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


def write_config(tmp_path, raw, name="c.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def checkpoint_bytes(manifest: bytes) -> bytes:
    """A version-1 checkpoint of the raw ``manifest`` and no parameters."""
    return b"BLTC" + struct.pack("<IQ", 1, len(manifest)) + manifest


class TestTrain:
    def test_writes_report_and_checkpoints(self, tmp_path, config_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", config_path, "--out", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        report = load_report(out / "report.json")
        assert report["results"] == []
        assert 0.0 <= report["dense"]["accuracy"] <= 1.0
        for name in ("theta0", "theta_k", "theta_e"):
            ck = load_checkpoint(out / "checkpoints" / f"{name}.ckpt")
            assert ck.seed == 0
        assert not (out / "mask.bits").exists()  # dense runs have no mask
        assert load_checkpoint(out / "checkpoints" / "theta_k.ckpt").epoch_tag == 2

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err

    def test_bad_eta(self, tmp_path, capsys):
        raw = dict(SMALL, prune={"eta": 1.5})
        code = main(["train", "--config", write_config(tmp_path, raw),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "prune.eta" in capsys.readouterr().err

    def test_non_finite_integer_is_a_configuration_error(self, tmp_path, capsys):
        raw = dict(SMALL, train={"epochs": float("nan"), "batch": 16})
        code = main(["train", "--config", write_config(tmp_path, raw),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("ballot: configuration error:")
        assert "train.epochs" in err and "Traceback" not in err

    def test_integer_beyond_float_range_is_a_configuration_error(
            self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(SMALL).replace(
            '"train": {', '"train": {"lr0": 1' + "0" * 400 + ", ", 1))
        code = main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("ballot: configuration error:")
        assert "'train.lr0' must be finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_undecodable_csv_block_start_is_data_error(self, tmp_path, capsys, blocks):
        bad = tmp_path / "bad.csv"
        write_undecodable_at_block_edge(bad, blocks)
        raw = {**SMALL, "data": {"csv_path": str(bad)}}
        code = main(["train", "--config", write_config(tmp_path, raw),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"data error: cannot read {bad}: " in capsys.readouterr().err

    def test_checkpoint_dir_that_is_a_file_is_data_error(self, tmp_path,
                                                           config_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "checkpoints").write_text("")
        assert main(["train", "--config", config_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "data error: cannot write checkpoint" in err
        assert "Traceback" not in err

    def test_numerical_failure(self, tmp_path, capsys):
        raw = dict(SMALL, train={"epochs": 6, "lr0": 1e200})
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train", "--config", write_config(tmp_path, raw),
                         "--out", str(tmp_path / "o")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err


class TestPrune:
    def test_full_run(self, tmp_path, config_path, capsys):
        out = tmp_path / "run"
        code = main(["prune", "--method", "ballot", "--config", config_path,
                     "--out", str(out)])
        assert code == 0
        report = load_report(out / "report.json")
        (result,) = report["results"]
        assert result["method"] == "ballot"
        final = load_checkpoint(out / "checkpoints" / "final.ckpt")
        # retrained for 6 epochs from theta0 (epoch 0) or theta_k (epoch 2)
        assert final.epoch_tag in (6, 8)

    def test_method_from_config(self, tmp_path, capsys):
        raw = dict(SMALL)
        raw["prune"] = {"omega": 0.4, "method": "magnitude"}
        out = tmp_path / "run"
        code = main(["prune", "--config", write_config(tmp_path, raw),
                     "--out", str(out)])
        assert code == 0
        report = load_report(out / "report.json")
        assert report["results"][0]["method"] == "magnitude"

    @pytest.mark.parametrize("method", pipeline.METHODS)
    def test_report_counts_match_mask_bits(self, tmp_path, capsys, method):
        raw = {**SMALL, "model": {"hidden": [8, 6]}}
        out = tmp_path / "run"
        assert main(["prune", "--method", method, "--config",
                     write_config(tmp_path, raw), "--out", str(out)]) == 0
        summary = load_report(out / "report.json")["results"][0]["mask"]
        dims = load_checkpoint(out / "checkpoints" / "final.ckpt").dims
        mask = load_mask(out / "mask.bits", dims)
        total = param_count(dims)
        assert set(summary) == {"live_units", "weights_kept", "biases_kept"}
        assert sum(summary["weights_kept"]) + sum(summary["biases_kept"]) \
            == mask.kept_count() == int(np.floor(0.4 * total))
        assert summary["weights_kept"] == [int(w.sum()) for w in mask.weight_keep]
        assert summary["biases_kept"] == [int(b.sum()) for b in mask.bias_keep]
        assert summary["live_units"] == [len(u) for u in live_units(mask)]

    def test_unknown_method_is_usage_error(self, tmp_path, config_path, capsys):
        code = main(["prune", "--method", "snip", "--config", config_path,
                     "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "usage" in err
        assert "invalid choice" in err


class TestEvaluate:
    @pytest.fixture
    def pruned(self, tmp_path, config_path):
        out = tmp_path / "run"
        assert main(["prune", "--method", "ballot", "--config", config_path,
                     "--out", str(out)]) == 0
        return out

    def test_against_config_test_split(self, tmp_path, config_path, pruned,
                                       capsys):
        ck = pruned / "checkpoints" / "final.ckpt"
        out = tmp_path / "eval.json"
        code = main(["evaluate", "--checkpoint", str(ck), "--data", config_path,
                     "--out", str(out)])
        assert code == 0
        payload = load_report(out)
        assert set(payload) == {"version", "checkpoint", "epoch", "seed",
                                "report"}
        assert payload["version"] == __version__
        # masked entries are zero in the stored params, so evaluating the
        # checkpoint reproduces the pruned run's report exactly
        report = load_report(pruned / "report.json")["results"][0]
        assert payload["report"]["accuracy"] == report["accuracy"]
        assert payload["report"]["cwv"] == report["cwv"]

    def test_against_csv_uses_all_rows(self, tmp_path, config_path, pruned,
                                       capsys):
        csv_path = tmp_path / "d.csv"
        assert main(["gen-data", "--config", config_path,
                     "--out", str(csv_path)]) == 0
        out = tmp_path / "eval.json"
        code = main(["evaluate",
                     "--checkpoint", str(pruned / "checkpoints" / "final.ckpt"),
                     "--data", str(csv_path), "--out", str(out)])
        assert code == 0
        payload = load_report(out)
        assert sum(payload["report"]["class_counts"]) == 54  # 30 + 12 + 12
        assert "absent_classes" not in payload["report"]

    def test_csv_with_single_sample_class(self, tmp_path, config_path, pruned,
                                          capsys):
        # a held-out file is evaluated as is, never split, so a class
        # with one row is fine
        full = tmp_path / "d.csv"
        assert main(["gen-data", "--config", config_path,
                     "--out", str(full)]) == 0
        header, *rows = full.read_text().splitlines()
        ones = [r for r in rows if r.endswith(",1")]
        kept = [r for r in rows if not r.endswith(",1")] + ones[:1]
        one = tmp_path / "one.csv"
        one.write_text("\n".join([header, *kept]) + "\n")
        out = tmp_path / "eval.json"
        code = main(["evaluate",
                     "--checkpoint", str(pruned / "checkpoints" / "final.ckpt"),
                     "--data", str(one), "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        assert load_report(out)["report"]["class_counts"] == [30, 1, 12]

    def test_csv_label_column_is_named_by_the_flag(self, tmp_path, config_path,
                                                   pruned, capsys):
        # a CSV --data reads its labels from --label-column, "label" by
        # default; a config --data takes its own data.label_column
        full = tmp_path / "d.csv"
        assert main(["gen-data", "--config", config_path,
                     "--out", str(full)]) == 0
        header, *rows = full.read_text().splitlines()
        features, label = header.rsplit(",", 1)
        assert label == "label"
        target = tmp_path / "target.csv"
        target.write_text("\n".join([f"{features},target", *rows]) + "\n")
        file_counts = np.bincount([int(r.rsplit(",", 1)[1]) for r in rows]).tolist()
        ck = str(pruned / "checkpoints" / "final.ckpt")
        out = tmp_path / "eval.json"
        code = main(["evaluate", "--checkpoint", ck, "--data", str(target),
                     "--label-column", "target", "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        assert load_report(out)["report"]["class_counts"] == file_counts == [30, 12, 12]
        code = main(["evaluate", "--checkpoint", ck, "--data", str(target),
                     "--out", str(tmp_path / "e.json")])
        assert code == 2
        assert ("data error: label column 'label' not found in header"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("absent, counts", [
        (2, [30, 12, 0]),  # the last class is missing
        (1, [30, 0, 12]),  # a gap: labels 0 and 2 only
    ])
    def test_csv_lacking_a_class(self, tmp_path, config_path, pruned, capsys,
                                 absent, counts):
        # the checkpoint fixes the classes, so a file may lack one
        full = tmp_path / "d.csv"
        assert main(["gen-data", "--config", config_path,
                     "--out", str(full)]) == 0
        header, *rows = full.read_text().splitlines()
        lacking = tmp_path / "lacking.csv"
        lacking.write_text("\n".join(
            [header, *(r for r in rows if not r.endswith(f",{absent}"))]) + "\n")
        out = tmp_path / "eval.json"
        code = main(["evaluate",
                     "--checkpoint", str(pruned / "checkpoints" / "final.ckpt"),
                     "--data", str(lacking), "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        report = load_report(out)["report"]
        assert report["class_counts"] == counts
        assert report["absent_classes"] == [absent]
        accs = report["per_class_acc"]
        assert accs[absent] is None
        present = [a for a in accs if a is not None]
        assert report["mcd"] == max(present) - min(present)
        assert report["cwv"] == pytest.approx(float(np.var(present)), abs=1e-15)

    def test_label_beyond_the_checkpoint_classes(self, tmp_path, pruned,
                                                 capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("f0,f1,f2,f3,label\n1,2,3,4,0\n1,2,3,4,2\n1,2,3,4,3\n")
        code = main(["evaluate",
                     "--checkpoint", str(pruned / "checkpoints" / "final.ckpt"),
                     "--data", str(bad), "--out", str(tmp_path / "e.json")])
        assert code == 2
        assert ("label 3 at line 4 is outside 0..2 (the checkpoint has 3 classes)"
                in capsys.readouterr().err)

    def test_feature_mismatch(self, tmp_path, config_path, pruned, capsys):
        wide = dict(SMALL, data={"synthetic": {"counts": [30, 12, 12],
                                               "dim": 9, "std": 0.8,
                                               "seed": 1}})
        code = main(["evaluate",
                     "--checkpoint", str(pruned / "checkpoints" / "final.ckpt"),
                     "--data", write_config(tmp_path, wide, "wide.json"),
                     "--out", str(tmp_path / "eval.json")])
        assert code == 1
        assert "4 features" in capsys.readouterr().err

    @pytest.mark.parametrize("dim, code, message", [
        (4, 2, "data error: the data has 4 classes, the checkpoint has 3"),
        # the feature count is checked before the classes
        (9, 1, "configuration error: checkpoint expects 4 features, data has 9"),
    ])
    def test_config_beyond_the_checkpoint_classes(self, tmp_path, pruned, capsys,
                                                  dim, code, message):
        more = dict(SMALL, data={"synthetic": {"counts": [30, 12, 12, 12],
                                               "dim": dim, "std": 0.8,
                                               "seed": 1}})
        got = main(["evaluate",
                    "--checkpoint", str(pruned / "checkpoints" / "final.ckpt"),
                    "--data", write_config(tmp_path, more, "more.json"),
                    "--out", str(tmp_path / "eval.json")])
        err = capsys.readouterr().err
        assert got == code and message in err and "line" not in err

    def test_corrupt_csv_is_data_error(self, tmp_path, pruned, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("f0,f1,f2,f3,label\n1,2,oops,4,0\n1,2,3,4,1\n")
        code = main(["evaluate",
                     "--checkpoint", str(pruned / "checkpoints" / "final.ckpt"),
                     "--data", str(bad), "--out", str(tmp_path / "e.json")])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_quoted_line_break_is_data_error(self, tmp_path, pruned, capsys):
        # one record per line: the error names the record's first line,
        # and a later bad cell is not reached
        bad, out = tmp_path / "bad.csv", tmp_path / "e.json"
        bad.write_text('f0,f1,f2,f3,label\n1,2,3,4,0\n1,"2\n",3,4,1\n1,2,3,x,0\n')
        code = main(["evaluate",
                     "--checkpoint", str(pruned / "checkpoints" / "final.ckpt"),
                     "--data", str(bad), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == \
            "ballot: data error: row at line 3 runs onto the next line\n"
        assert not out.exists()

    def test_oversized_csv_cell_is_data_error(self, tmp_path, pruned, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("f0,f1,f2,f3,label\n1,2,3,4,0\n1,2," + "9" * 200_000
                       + "x,4,1\n")
        code = main(["evaluate",
                     "--checkpoint", str(pruned / "checkpoints" / "final.ckpt"),
                     "--data", str(bad), "--out", str(tmp_path / "e.json")])
        assert code == 2
        assert "data error: malformed CSV at line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_undecodable_block_start_is_data_error(self, tmp_path, capsys, blocks):
        # the file matches the checkpoint, so only the bad byte can fail
        bad, out = tmp_path / "bad.csv", tmp_path / "e.json"
        write_undecodable_at_block_edge(bad, blocks)
        checkpoint = tmp_path / "one-feature.ckpt"
        save_checkpoint(init_network((1, 4, 2), 0), checkpoint)
        code = main(["evaluate", "--checkpoint", str(checkpoint),
                     "--data", str(bad), "--out", str(out)])
        assert code == 2
        assert f"data error: cannot read {bad}: " in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_manifest_layer_is_data_error(self, tmp_path, config_path,
                                                    capsys):
        # one 2**32 x 2**32 layer: its size is counted in Python ints, so
        # the missing payload is reported instead of a size wrapped to 0
        manifest = json.dumps({"layers": [{"d_in": 2**32, "d_out": 2**32,
                                           "activation": "none"}],
                               "seed": 0, "epoch": 0}).encode()
        path = tmp_path / "huge.ckpt"
        path.write_bytes(b"BLTC" + struct.pack("<I", 1)
                         + struct.pack("<Q", len(manifest)) + manifest)
        code = main(["evaluate", "--checkpoint", str(path), "--data", config_path,
                     "--out", str(tmp_path / "e.json")])
        assert code == 2
        assert ("data error: truncated parameters: 0 bytes, expected "
                f"{8 * (2**64 + 2**32)}") in capsys.readouterr().err

    @pytest.mark.parametrize("raw, message", [
        (b"BLTC\x01\x00\x00\x00", "truncated header"),
        (checkpoint_bytes(b"{x}"),
         "unreadable manifest: Expecting property name enclosed in double quotes"),
        (checkpoint_bytes(b"\xff}"), "unreadable manifest: 'utf-8' codec"),
        (checkpoint_bytes(b"[]"), "manifest field 'layers' missing or not a list"),
        (checkpoint_bytes(b'{"layers": {}}'), "manifest field 'layers' missing or not a list"),
        (checkpoint_bytes(b'{"layers": [3], "seed": 0, "epoch": 0}'),
         "manifest layer 0 is not an object"),
    ], ids=["header", "json", "utf-8", "root-list", "layers-object", "layer-number"])
    def test_unreadable_checkpoint_is_data_error(self, tmp_path, config_path, capsys,
                                                 raw, message):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(raw)
        code = main(["evaluate", "--checkpoint", str(path), "--data", config_path,
                     "--out", str(tmp_path / "e.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"ballot: data error: {message}") and err.count("\n") == 1

    def test_missing_checkpoint_is_file_error(self, tmp_path, config_path,
                                              capsys):
        code = main(["evaluate", "--checkpoint", str(tmp_path / "nope.ckpt"),
                     "--data", config_path,
                     "--out", str(tmp_path / "e.json")])
        assert code == 2


def whole_file_evaluation(params, blocks):
    """The oracle of the streamed evaluation: every block read before any
    inference, as if the whole file were loaded, its labels and feature
    count checked, then one ``evaluate`` of its rows as a split."""
    xs, ys = zip(*blocks)
    x, y = np.concatenate(xs), np.concatenate(ys)
    dims = params.dims
    n_classes = dims[-1]
    require_labels_below(y, n_classes, f"the checkpoint has {n_classes} classes")
    if dims[0] != x.shape[1]:
        raise ConfigurationError(
            f"checkpoint expects {dims[0]} features, data has {x.shape[1]}")
    return evaluate(params, split_blocks(Split(x, y)))


def csv_cells(n, n_features=4, classes=3, seed=0):
    """``n`` rows of string cells, features first and the label last."""
    rng = np.random.default_rng(seed)
    x, y = rng.normal(scale=2.0, size=(n, n_features)), rng.integers(0, classes, n)
    return [[repr(float(v)) for v in row] + [str(label)] for row, label in zip(x, y)]


def write_cells(path, rows, at=-1):
    """The rows under a header f0.. with the label column moved to
    position ``at``."""
    names = [f"f{i}" for i in range(len(rows[0]) - 1)] + ["label"]
    lines = []
    for row in [names, *rows]:
        row = list(row)
        row.insert(at % len(row), row.pop())
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


class TestStreamedEvaluate:
    """``evaluate --data file.csv`` reads, infers and scores one block of
    ``FORWARD_BLOCK_ROWS`` rows at a time; its output, exit code and
    message equal those of ``whole_file_evaluation``."""

    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("streamed")
        raw = {**SMALL, "model": {"hidden": [32, 16]}}
        assert main(["train", "--config", write_config(tmp, raw),
                     "--out", str(tmp / "run")]) == 0
        return str(tmp / "run" / "checkpoints" / "theta_e.ckpt")

    @staticmethod
    def outcomes(monkeypatch, capsys, tmp_path, checkpoint, data):
        """(exit code, stderr, output bytes) of the streamed evaluation,
        asserted equal to the oracle's."""
        results = []
        for streamed in (True, False):
            out = tmp_path / f"eval-{streamed}.json"
            with monkeypatch.context() as patch:
                if not streamed:
                    patch.setattr(cli, "evaluate", whole_file_evaluation)
                with np.errstate(over="ignore", invalid="ignore"):
                    code = main(["evaluate", "--checkpoint", checkpoint,
                                 "--data", str(data), "--out", str(out)])
            results.append((code, capsys.readouterr().err,
                            out.read_bytes() if code == 0 else None))
        assert results[0] == results[1]
        return results[0]

    @pytest.mark.parametrize("n, at, absent", [
        (1, -1, None), (1023, 0, None), (1024, 2, 1), (1025, -1, 2),
        (2048, 0, 0), (3500, 2, None),
        # the block edges, wherever FORWARD_BLOCK_ROWS puts them
        (FORWARD_BLOCK_ROWS - 1, 1, None), (FORWARD_BLOCK_ROWS, -1, 0),
        (FORWARD_BLOCK_ROWS + 1, 0, 2), (2 * FORWARD_BLOCK_ROWS, 2, 1),
    ])
    def test_report_bytes_equal_the_whole_file_oracle(
            self, tmp_path, monkeypatch, capsys, checkpoint, n, at, absent):
        rows = csv_cells(n, seed=n)
        if absent is not None:
            for row in rows:
                if row[-1] == str(absent):
                    row[-1] = str((absent + 1) % 3)
        path = tmp_path / "d.csv"
        write_cells(path, rows, at)
        code, _, out = self.outcomes(monkeypatch, capsys, tmp_path, checkpoint, path)
        report = json.loads(out)["report"]
        assert code == 0 and sum(report["class_counts"]) == n
        if absent is not None:
            assert absent in report["absent_classes"]

    HUGE = [repr(1.7e308)] * 4

    @pytest.mark.parametrize("edits, n_features, code, message", [
        # a parse error in a later block outranks a label error in an earlier one
        ({10: {4: "7"}, 2100: {1: "oops"}}, 4, 2,
         "non-numeric value 'oops' in column 'f1' at line 2102"),
        # a label error outranks a feature-count mismatch
        ({3000: {5: "3"}}, 5, 2,
         "label 3 at line 3002 is outside 0..2 (the checkpoint has 3 classes)"),
        # a parse error in a later block outranks a non-finite logit in an earlier one
        ({5: dict(enumerate(HUGE)), 1500: {0: "#"}}, 4, 2,
         "non-numeric value '#' in column 'f0' at line 1502"),
        # a label error outranks a non-finite logit before it
        ({5: dict(enumerate(HUGE)), 3400: {4: "9"}}, 4, 2,
         "label 9 at line 3402 is outside 0..2"),
        # a quoted cell in a middle block loads through the row-wise pass
        ({1500: {2: '"3"'}}, 4, 0, ""),
        ({2000: dict(enumerate(HUGE))}, 4, 3,
         "numerical failure: non-finite layer output in forward pass"),
        ({}, 5, 1, "checkpoint expects 4 features, data has 5"),
    ], ids=["parse-after-label", "label-and-width", "parse-after-logit",
            "label-after-logit", "quoted-cell", "logit", "width"])
    def test_errors_equal_the_whole_file_oracle(
            self, tmp_path, monkeypatch, capsys, checkpoint, edits, n_features,
            code, message):
        rows = csv_cells(3500, n_features)
        for line, cells in edits.items():
            for col, cell in cells.items():
                rows[line][col] = cell
        path = tmp_path / "d.csv"
        write_cells(path, rows)
        got, err, _ = self.outcomes(monkeypatch, capsys, tmp_path, checkpoint, path)
        assert got == code and message in err

    @staticmethod
    def evaluate_pipe(tmp_path, checkpoint, data: bytes):
        """``ballot evaluate`` run in a subprocess on a named pipe that a
        thread feeds ``data`` into once."""
        pipe = tmp_path / "pipe.csv"
        os.mkfifo(pipe)

        def feed():
            try:
                with open(pipe, "wb") as fh:
                    fh.write(data)
            except BrokenPipeError:
                pass  # the reader stopped early

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            return subprocess.run(
                [sys.executable, "-m", "ballot.cli", "evaluate",
                 "--checkpoint", checkpoint, "--data", str(pipe),
                 "--out", str(tmp_path / "pipe.json")],
                capture_output=True, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
        finally:
            # a writer still waiting for a reader gets one that closes at once
            os.close(os.open(pipe, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(timeout=10)

    def assert_pipe_evaluates_as_the_file(self, tmp_path, checkpoint, path):
        proc = self.evaluate_pipe(tmp_path, checkpoint, path.read_bytes())
        assert proc.returncode == 0, proc.stderr
        assert main(["evaluate", "--checkpoint", checkpoint, "--data", str(path),
                     "--out", str(tmp_path / "file.json")]) == 0
        assert (tmp_path / "pipe.json").read_bytes() == \
            (tmp_path / "file.json").read_bytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_named_pipe_that_parses_in_c_evaluates(self, tmp_path, checkpoint):
        path = tmp_path / "d.csv"
        write_cells(path, csv_cells(3500))
        self.assert_pipe_evaluates_as_the_file(tmp_path, checkpoint, path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_named_pipe_needing_the_row_wise_pass_evaluates(self, tmp_path,
                                                            checkpoint):
        # the quoted cell, past the pipe's fifth block, sends its block to
        # the row-wise pass, which goes on from the lines already read
        rows = csv_cells(3500)
        rows[1500][2] = '"3"'
        path = tmp_path / "d.csv"
        write_cells(path, rows)
        self.assert_pipe_evaluates_as_the_file(tmp_path, checkpoint, path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("blocks", [1, 2])
    def test_named_pipe_with_undecodable_byte_fails_as_a_file(self, tmp_path, blocks):
        path, checkpoint = tmp_path / "d.csv", tmp_path / "one-feature.ckpt"
        write_undecodable_at_block_edge(path, blocks)
        save_checkpoint(init_network((1, 4, 2), 0), checkpoint)
        proc = self.evaluate_pipe(tmp_path, str(checkpoint), path.read_bytes())
        assert proc.returncode == 2
        # a pipe's reads may split the input elsewhere than a file's, so
        # the byte's position in the decoder's chunk is not pinned
        assert proc.stderr.startswith(f"ballot: data error: cannot read {tmp_path / 'pipe.csv'}: "
                                      "'utf-8' codec can't decode byte 0xff in position ")
        assert proc.stderr.count("\n") == 1
        assert not (tmp_path / "pipe.json").exists()

    def test_no_block_exceeds_forward_block_rows(self, tmp_path, monkeypatch,
                                                 checkpoint):
        # every report, of a CSV file, of a config's test split and of
        # each evaluation in training, scores rows that ``forward_block``
        # inferred in blocks of at most FORWARD_BLOCK_ROWS rows
        path = tmp_path / "d.csv"
        write_cells(path, csv_cells(3500))
        large = write_config(tmp_path, {
            **SMALL, "train": {"epochs": 3, "batch": 64},
            "refine": {"rewind_epoch": 1, "max_rounds": 1},
            "data": {"synthetic": {"counts": [4000, 1000, 1000], "dim": 4,
                                   "std": 0.8, "seed": 1}},
        }, "large.json")  # a test split of 1,200 rows, a train split of 4,800
        parsed, inferred, scored = [], [], []
        real_loadtxt, real_block = np.loadtxt, metrics.forward_block
        real_report = metrics.report_from_predictions

        def loadtxt(*args, **kwargs):
            table = real_loadtxt(*args, **kwargs)
            parsed.append(table.shape[0])
            return table

        def forward_block(params, x, bufs):
            inferred.append(x.shape[0])
            return real_block(params, x, bufs)

        def report_from_predictions(y_true, y_pred, n_classes):
            scored.append(len(y_true))
            return real_report(y_true, y_pred, n_classes)

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        monkeypatch.setattr(metrics, "forward_block", forward_block)
        monkeypatch.setattr(metrics, "report_from_predictions",
                            report_from_predictions)
        def run(*argv):
            parsed.clear(), inferred.clear(), scored.clear()
            assert main(list(argv)) == 0, argv
            assert max(inferred) <= FORWARD_BLOCK_ROWS < max(scored), argv
            assert sum(inferred) == sum(scored), argv

        evaluate = ["evaluate", "--checkpoint", checkpoint,
                    "--out", str(tmp_path / "e.json"), "--data"]
        run(*evaluate, str(path))
        assert sum(parsed) == 3500 and max(parsed) <= FORWARD_BLOCK_ROWS
        assert scored == [3500]
        run(*evaluate, large)
        assert scored == [1200]
        run("train", "--config", large, "--out", str(tmp_path / "t"))
        run("prune", "--config", large, "--out", str(tmp_path / "p"))


class TestGenData:
    def test_byte_identical_runs(self, tmp_path, config_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["gen-data", "--config", config_path, "--out", str(a)]) == 0
        assert main(["gen-data", "--config", config_path, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[0] == "f0,f1,f2,f3,label"

    def test_out_required(self, config_path, capsys):
        assert main(["gen-data", "--config", config_path]) == 1
        assert "usage" in capsys.readouterr().err

    def test_rejects_csv_config(self, tmp_path, capsys):
        raw = {"data": {"csv_path": "d.csv"}}
        code = main(["gen-data", "--config", write_config(tmp_path, raw),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "synthetic" in capsys.readouterr().err

    def test_unwritable_out_is_data_error(self, tmp_path, config_path, capsys):
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "x.csv"
        assert main(["gen-data", "--config", config_path, "--out", str(out)]) == 2
        assert f"data error: cannot write CSV {out}" in capsys.readouterr().err


class TestExperiment:
    def test_one_seed(self, tmp_path, config_path, capsys):
        out = tmp_path / "exp"
        code = main(["experiment", "--seeds", "1", "--config", config_path,
                     "--out", str(out)])
        assert code == 0
        lines = (out / "aggregate.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 6  # dense + 4 methods

    def test_zero_seeds(self, tmp_path, config_path, capsys):
        code = main(["experiment", "--seeds", "0", "--config", config_path,
                     "--out", str(tmp_path / "exp")])
        assert code == 1

    def test_failing_last_phase_writes_nothing(self, tmp_path, config_path,
                                               monkeypatch, capsys):
        # every other phase succeeds first; no file is written before
        # the last phase returns
        real = reporting.run_baseline
        methods = []

        def failing(method, *args):
            methods.append(method)
            if method == "random":
                raise NumericalFailure("retraining epoch 0, seed 0: injected")
            return real(method, *args)

        monkeypatch.setattr(reporting, "run_baseline", failing)
        out = tmp_path / "exp"
        code = main(["experiment", "--seeds", "2", "--config", config_path,
                     "--out", str(out)])
        assert code == 3
        assert "numerical failure: retraining epoch 0" in capsys.readouterr().err
        assert methods == ["ballot", "lth", "magnitude", "random"]
        assert not out.exists() or not any(out.rglob("*"))


class TestConfigFile:
    @pytest.mark.parametrize("command", ["train", "prune", "experiment", "evaluate"])
    def test_invalid_utf8_is_one_configuration_error_line(self, tmp_path, capsys,
                                                          command):
        path = tmp_path / "c.json"
        path.write_bytes(b'{"seed": "\xff"}')
        if command == "evaluate":
            ck = tmp_path / "n.ckpt"
            save_checkpoint(init_network((4, 8, 3), 0), ck)
            argv = ["evaluate", "--checkpoint", str(ck), "--data", str(path)]
        else:
            argv = [command, "--config", str(path)]
        code = main([*argv, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"ballot: configuration error: cannot read config "
                              f"{path}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestTopLevel:
    def test_subcommand_required(self, capsys):
        assert main([]) == 1
        err = capsys.readouterr().err
        assert "usage" in err
        assert "subcommand is required" in err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    EXITS = {
        errors.ConfigurationError: (1, "configuration error"),
        errors.InfeasibleMaskError: (1, "configuration error"),
        errors.UsageError: (1, "configuration error"),
        errors.DataError: (2, "data error"),
        errors.PersistenceError: (2, "data error"),
        errors.NumericalFailure: (3, "numerical failure"),
    }

    def test_every_error_class_has_an_exit(self):
        def subclasses(cls):
            return {c for sub in cls.__subclasses__() for c in {sub, *subclasses(sub)}}
        assert subclasses(errors.BallotError) == set(self.EXITS)

    @pytest.mark.parametrize("error", list(EXITS), ids=lambda cls: cls.__name__)
    def test_error_exits_with_its_code_and_prefix(self, monkeypatch, capsys, error):
        def failing(args):
            raise (error("boom", 0.5) if error is errors.InfeasibleMaskError
                   else error("boom"))

        monkeypatch.setattr(cli, "_cmd_gen_data", failing)
        code, prefix = self.EXITS[error]
        assert main(["gen-data", "--out", "unused.csv"]) == code
        assert capsys.readouterr().err == f"ballot: {prefix}: boom\n"

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestLockstep:
    def _seed_runs(self, tmp_path, capsys):
        """``experiment --seeds 3`` next to single-seed ``train`` and
        ``prune`` runs at each of its seeds."""
        raw = {**SMALL, "prune": {"omega": 0.5}}
        exp = tmp_path / "exp"
        assert main(["experiment", "--seeds", "3", "--config",
                     write_config(tmp_path, raw), "--out", str(exp)]) == 0
        singles = {}
        for seed in range(3):
            cfg = write_config(tmp_path, {**raw, "seed": seed}, f"seed{seed}.json")
            out = tmp_path / f"train-seed{seed}"
            assert main(["train", "--config", cfg, "--out", str(out)]) == 0
            singles["dense", seed] = out / "report.json"
            for method in ("ballot", "lth", "magnitude", "random"):
                out = tmp_path / f"{method}-seed{seed}"
                assert main(["prune", "--method", method, "--config", cfg,
                             "--out", str(out)]) == 0
                singles[method, seed] = out / "report.json"
        capsys.readouterr()
        return exp, singles

    def test_every_seed_matches_its_single_seed_run(self, tmp_path, capsys):
        exp, singles = self._seed_runs(tmp_path, capsys)
        rounds = [load_report(exp / "runs" / f"ballot-seed{s}" / "report.json")
                  ["results"][0]["rounds"] for s in range(3)]
        # seeds that stop refining at different rounds share the lockstep
        assert len(set(rounds)) == 3
        for (method, seed), single in singles.items():
            stacked = exp / "runs" / f"{method}-seed{seed}" / "report.json"
            assert WALL_TIME.sub(b"null", stacked.read_bytes()) == \
                WALL_TIME.sub(b"null", single.read_bytes()), (method, seed)

    def test_one_diverging_seed_exits_3_naming_it(self, tmp_path, capsys,
                                                   monkeypatch):
        real_init = pipeline.init_network

        def seed_1_overflows(dims, seed):
            params = real_init(dims, seed)
            if seed == 1:
                params.weights[0][:] = 1e308
            return params

        monkeypatch.setattr(pipeline, "init_network", seed_1_overflows)
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["experiment", "--seeds", "3", "--config",
                         write_config(tmp_path, SMALL), "--out",
                         str(tmp_path / "exp")])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure: dense training epoch 0, seed 1:" in err


class TestPinnedBytes:
    """A ballot prune run's output bytes, pinned: any change to the
    training arithmetic (dense training, compacted retraining,
    refinement) or to the mask moves a hash.  At omega 0.3 refinement runs two rounds;
    at 0.1 the first hidden layer keeps one unit."""

    RAW = {
        "model": {"hidden": [24, 16]},
        "train": {"epochs": 10, "batch": 16},
        "refine": {"rewind_epoch": 2, "max_rounds": 3},
        "data": {"synthetic": {"counts": [80, 40, 24, 16], "dim": 6,
                               "std": 0.9, "seed": 2}},
    }
    THETA_E = "c7839466eedb3bdd78d1a1c385e2a17452c0b8bc03f997dda37212b1719e941c"

    @pytest.mark.parametrize("omega, final, report, bits", [
        (0.3, "5fd7bdecefe99e7e877165b1e2aa6728d8bdcbe906c73d168ac7064920559ad1",
         "76797bbe382b42219a953c333c5868e2f9830dd4ce7a5b4510dbc68dd0e19915",
         "50430151154145f3169ff4513abb1d0d8c3ca8ad49fd0f292c1f2f5fccd5c113"),
        (0.1, "a6b790e21983a9f94a1962707151a1b3098fdca71dadaed765956c6bf7491db8",
         "adb8849100bff2eed73443cf938d9a7631deb72d87cc5832214506dab182395d",
         "60c56c7222d0aba9b034768e28248b0a403dd3b5e6f113cc667cc8917c914e3f"),
    ], ids=["omega0.3", "omega0.1"])
    def test_prune_ballot_bytes(self, tmp_path, capsys, omega, final, report,
                                bits):
        raw = {**self.RAW, "prune": {"omega": omega}}
        out = tmp_path / "run"
        assert main(["prune", "--method", "ballot", "--config",
                     write_config(tmp_path, raw), "--out", str(out)]) == 0

        def sha(name, strip=False):
            data = (out / name).read_bytes()
            return hashlib.sha256(SECONDS.sub(rb"\1null", data) if strip
                                  else data).hexdigest()

        assert sha("checkpoints/theta_e.ckpt") == self.THETA_E
        assert sha("checkpoints/final.ckpt") == final
        assert sha("report.json", strip=True) == report
        assert sha("mask.bits") == bits
