"""Every file goes through ``fileio``: writers replace their target
atomically and make missing parent directories, and every writer and
reader fails with one exact message."""

import json

import numpy as np
import pytest

from ballot import fileio
from ballot.config import load_config
from ballot.data import csv_blocks, save_csv
from ballot.errors import ConfigurationError, DataError, PersistenceError
from ballot.masks import build_random_mask, load_mask, save_mask
from ballot.model import init_network, load_checkpoint, save_checkpoint
from ballot.reporting import load_report, write_aggregate_csv, write_report

from conftest import load_csv_rows

DIMS = (3, 4, 2)

WRITERS = {
    "report": lambda path, v: write_report(path, {"value": v}),
    "checkpoint": lambda path, v: save_checkpoint(init_network(DIMS, v), path),
    "aggregate": lambda path, v: write_aggregate_csv(path, [{
        "method": "dense", "seed": v, "accuracy": 0.5, "precision": 0.5,
        "recall": 0.5, "cwv": 0.0, "mcd": 0.0, "retention": 1.0,
        "rounds": 0, "wall_time_s": 0.1,
    }]),
    "csv": lambda path, v: save_csv(np.full((2, 3), v / 3), np.array([0, v]), path),
    "mask": lambda path, v: save_mask(build_random_mask(DIMS, 0.5, v), path),
}
# how each writer's message names its file; the aggregate CSV's is bare
WRITE_NOUNS = {"report": "report ", "checkpoint": "checkpoint ", "aggregate": "",
               "csv": "CSV ", "mask": "mask "}

# name: (read call, error class, how its message names the file)
READERS = {
    "checkpoint": (load_checkpoint, PersistenceError, "checkpoint "),
    "mask": (lambda path: load_mask(path, DIMS), PersistenceError, "mask "),
    "report": (load_report, PersistenceError, "report "),
    "config": (load_config, ConfigurationError, "config "),
    "csv_blocks": (lambda path: list(csv_blocks(path)), DataError, ""),
    "csv_rows": (load_csv_rows, DataError, ""),
}
TEXT_READERS = ("report", "config", "csv_blocks", "csv_rows")
JSON_READERS = ("report", "config")


class _DiskFull:
    """A file that takes half of the first write, then fails like a
    full disk."""

    def __init__(self, path, mode, newline=None):
        self.fh = open(path, mode, newline=newline)

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_write_keeps_previous_file(name, tmp_path, monkeypatch):
    write = WRITERS[name]
    target = tmp_path / "out"
    write(target, 1)
    before = target.read_bytes()

    monkeypatch.setattr(fileio, "open", _DiskFull, raising=False)
    with pytest.raises(PersistenceError, match="No space left"):
        write(target, 2)
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out"]

    monkeypatch.undo()
    write(target, 2)
    assert target.read_bytes() != before
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writer_makes_missing_parents(name, tmp_path):
    target = tmp_path / "a" / "b" / "out"
    WRITERS[name](target, 1)
    assert target.is_file()
    assert [p.name for p in target.parent.iterdir()] == ["out"]


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writer_failure_message(name, tmp_path, monkeypatch):
    target = tmp_path / "out"
    monkeypatch.setattr(fileio, "open", _DiskFull, raising=False)
    with pytest.raises(PersistenceError) as info:
        WRITERS[name](target, 1)
    assert str(info.value) == (f"cannot write {WRITE_NOUNS[name]}{target}: "
                               "[Errno 28] No space left on device")


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writer_under_a_regular_file(name, tmp_path):
    (tmp_path / "afile").write_text("")
    target = tmp_path / "afile" / "out"
    with pytest.raises(PersistenceError) as info:
        WRITERS[name](target, 1)
    assert str(info.value) == (f"cannot write {WRITE_NOUNS[name]}{target}: "
                               f"[Errno 17] File exists: '{tmp_path / 'afile'}'")


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_missing_file_message(name, tmp_path):
    read, error, noun = READERS[name]
    path = tmp_path / "nope"
    with pytest.raises(error) as info:
        read(path)
    assert type(info.value) is error
    assert str(info.value) == (f"cannot read {noun}{path}: "
                               f"[Errno 2] No such file or directory: '{path}'")


@pytest.mark.parametrize("name", TEXT_READERS)
def test_reader_invalid_utf8_message(name, tmp_path):
    read, error, noun = READERS[name]
    path = tmp_path / "bad"
    path.write_bytes(b"\xff{}")
    with pytest.raises(error) as info:
        read(path)
    assert type(info.value) is error
    assert str(info.value) == (
        f"cannot read {noun}{path}: 'utf-8' codec can't decode byte 0xff "
        "in position 0: invalid start byte")


@pytest.mark.parametrize("name", JSON_READERS)
def test_reader_invalid_json_message(name, tmp_path):
    read, error, noun = READERS[name]
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    with pytest.raises(json.JSONDecodeError) as parse:
        json.loads("{broken")
    with pytest.raises(error) as info:
        read(path)
    assert type(info.value) is error
    assert str(info.value) == f"{noun}{path} is not valid JSON: {parse.value}"
