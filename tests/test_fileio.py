"""Every file writer replaces its target atomically."""

import numpy as np
import pytest

from ballot import fileio
from ballot.data import save_csv
from ballot.errors import PersistenceError
from ballot.masks import build_random_mask, save_mask
from ballot.model import init_network, save_checkpoint
from ballot.reporting import write_aggregate_csv, write_report

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
