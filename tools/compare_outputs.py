"""Compare every output file of the ``ballot`` command line between two
source trees.

Usage:
    python3 tools/compare_outputs.py OLD_TREE NEW_TREE

Each tree's ``src`` is run with the same interpreter, in its own
temporary directory, through one fixed command set:

- ``train`` and ``prune --method {ballot,lth,magnitude,random}`` on the
  default config;
- ``prune --method ballot`` with ``refine.rewind_epoch=0``, where the
  rewind snapshot is the initial weights and ``theta0.ckpt`` is rebuilt
  from the seed, so ``theta0.ckpt``, ``theta_k.ckpt`` and ``final.ckpt``
  on that path are compared;
- ``experiment --seeds 5`` on the default config;
- ``experiment --seeds 1`` with ``model.hidden=[512, 512]``, and
  ``prune --method`` each method on that config, so the ``final.ckpt``
  of each wide masked retrain is compared byte for byte too: lth's and
  random's full retrains, magnitude's fine-tune from ``theta_e``, and
  the round ``refine`` picks for ballot after a refinement round (seed
  0 runs one there);
- ``experiment --seeds 3`` with ``model.hidden=[128, 128]`` and
  ``prune.omega=0.2``, where the seeds' compacted networks differ in
  shape and retrain padded to a common width at which padding can move
  weight bits, so the reports of a padded stack are compared;
- ``experiment --seeds 3`` with ``prune.omega=0.004``, where unit
  removal cuts every hidden layer to one unit and still keeps too many
  entries, so the unit-ranking builders trim across the whole network;
- ``evaluate`` of the ballot ``final.ckpt`` on the default config's
  test split, through a config file of ``{}``;
- ``gen-data`` on the default config, then ``evaluate`` of the ballot
  ``final.ckpt`` on that CSV;
- ``gen-data`` of 3,500 rows, more than ``model.FORWARD_BLOCK_ROWS``,
  then ``evaluate`` of the ballot ``final.ckpt`` on it, so the blocked
  inference pass and a longer CSV parse are compared too, and
  ``evaluate`` of the 512-512 ballot ``final.ckpt`` on it, so blocked
  inference at the benchmark's width is compared byte for byte;
- ``gen-data`` of 2,048 rows, a whole number of blocks, and a copy of
  it with the label column moved first, each evaluated the same way, so
  block edges and the label column's position are compared;
- a copy of the 3,500-row CSV with its last line's first cell quoted,
  evaluated the same way, so the row-wise parse of a file's last block
  after blocks parsed in C is compared, and that copy piped into
  ``evaluate --data /dev/stdin``, so a pipe that needs the row-wise
  parse is compared too: its exit code and stderr go to
  ``piped-quoted-last.txt``;
- ``train`` on a config that sets every key but ``data.csv_path`` to a
  non-default value, with integral numbers for float keys and ``4.0``
  for ``train.epochs``, so the config echo is compared key by key;
- ``train`` on that CSV through ``data.csv_path``, for the echo of a
  CSV data section;
- on a config with ``model.hidden=[37, 29, 13]``, 11 features, 5 classes
  and ``prune.omega=0.2``: ``prune --method`` each method, ``gen-data``
  and ``evaluate`` of each method's ``final.ckpt`` on that CSV, and
  ``experiment --seeds 3``.  Its odd widths start layer blocks off
  64-byte boundaries, so per-layer views that are not aligned are
  compared, and its third hidden layer takes compaction and expansion
  deeper than the two-layer configs above.

Then each command of ``FAILING`` runs, expected to fail: ``evaluate`` of
copies of the ballot ``final.ckpt`` whose manifest breaks one layer rule
each (no layers, a zero width, a broken d_in/d_out chain, a hidden layer
without ReLU, an output layer with one), ``train`` with
``model.hidden=[0]``, and the file errors: ``train`` with a missing
``--config`` and with a config holding a byte that is not UTF-8,
``evaluate`` of a missing checkpoint and of a missing ``--data`` CSV,
``evaluate`` of a CSV whose byte 0xff opens both a block of lines and
a text-decoder chunk, of a CSV with a line break in a quoted cell and
of a CSV whose third line opens a quote that no line closes,
``train --out`` where ``checkpoints`` is a regular file, and
``gen-data --out`` under that file.  Its exit code
and stderr are written to ``failures/NAME.txt``, so a change that
moves a check is compared by the message and exit code it gives.

Seconds fields (JSON keys and CSV columns ending in ``_s``) are blanked
as the benchmark's digest blanks them (``perfbench/checks.py``).  The
script prints every file that differs, with the largest absolute
difference between the two float64 payloads for a checkpoint and the
dotted key paths that differ for a JSON file (``report.json:
results.0.mask``), then a count.  It exits 0 when every file is identical and 1 otherwise.
"""

from __future__ import annotations

import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from checks import strip_timing  # noqa: E402

WIDE = {"model": {"hidden": [512, 512]}, "seed": 0}
PADDED = {"model": {"hidden": [128, 128]}, "prune": {"omega": 0.2}}
SPARSEST = {"prune": {"omega": 0.004}}
EVERY_KEY = {
    "model": {"hidden": [16, 8]},
    "train": {"epochs": 4.0, "lr0": 0.05, "batch": 16, "milestones": [0.5]},
    "prune": {"omega": 0.3, "gamma": 5, "eta": 0.9, "method": "random"},
    "refine": {"rewind_epoch": 1, "epsilon": 0.1, "delta": 1, "max_rounds": 2},
    "data": {"split": 0.75, "normalize": True, "label_column": "target",
             "synthetic": {"classes": 3, "counts": [40, 20, 10], "dim": 6,
                           "mean_scale": 2, "std": 0.5, "seed": 3}},
    "seed": 1,
}
CSV = {"train": {"epochs": 3}, "data": {"csv_path": "data.csv"}}
REWIND0 = {"refine": {"rewind_epoch": 0}}
HIDDEN_ZERO = {"model": {"hidden": [0]}}
ODD = {"model": {"hidden": [37, 29, 13]}, "prune": {"omega": 0.2},
       "data": {"synthetic": {"counts": [500, 120, 120, 80, 80], "dim": 11}}}
METHODS = ("ballot", "lth", "magnitude", "random")
# the default generator with more rows: same 20 features and 4 classes
LONG = {"data": {"synthetic": {"counts": [2450, 350, 350, 350]}}}
WHOLE_BLOCKS = {"data": {"synthetic": {"counts": [1436, 204, 204, 204]}}}


def layer_records(dims, activations=("relu", "relu", "none")) -> list[dict]:
    """Manifest ``layers`` records of the widths ``dims``."""
    return [{"d_in": a, "d_out": b, "activation": act}
            for a, b, act in zip(dims, dims[1:], activations)]


# manifest layers that each break one rule of ``load_checkpoint``, for
# copies of the default config's 20-64-64-4 ballot ``final.ckpt``
BAD_LAYERS = {
    "empty": [],
    "zero-width": layer_records([20, 0, 64, 4]),
    "chain": layer_records([20, 64]) + layer_records([65, 64, 4], ("relu", "none")),
    "hidden-none": layer_records([20, 64, 64, 4], ("relu", "none", "none")),
    "output-relu": layer_records([20, 64, 64, 4], ("relu", "relu", "relu")),
}


def label_first(work: Path) -> None:
    """Copy ``whole-blocks.csv`` with its last column, the label, moved first."""
    lines = (work / "whole-blocks.csv").read_text().splitlines()
    (work / "label-first.csv").write_text("".join(
        ",".join([cells[-1], *cells[:-1]]) + "\n"
        for cells in (line.split(",") for line in lines)))


def bad_manifests(work: Path) -> None:
    """Copy the ballot ``final.ckpt`` as ``bad-NAME.ckpt`` for each entry
    of ``BAD_LAYERS``, with its manifest ``layers`` replaced."""
    raw = (work / "prune-ballot" / "checkpoints" / "final.ckpt").read_bytes()
    manifest, values = checkpoint_payload(raw)
    for name, layers in BAD_LAYERS.items():
        new = json.dumps({**json.loads(manifest), "layers": layers}, sort_keys=True).encode()
        (work / f"bad-{name}.ckpt").write_bytes(
            raw[:8] + struct.pack("<Q", len(new)) + new + values.tobytes())


def quote_last(work: Path) -> None:
    """Copy ``long.csv`` with the first cell of its last line quoted."""
    *lines, last = (work / "long.csv").read_text().splitlines(keepends=True)
    first, rest = last.split(",", 1)
    (work / "quoted-last.csv").write_text("".join(lines) + f'"{first}",{rest}')


def multi_line(work: Path) -> None:
    """Copy ``data.csv`` with a line break inside the quoted first cell
    of its third line, a cell that ``float`` takes: one record on two
    lines."""
    head, second, third, *rest = (work / "data.csv").read_text().splitlines(keepends=True)
    first, tail = third.split(",", 1)
    (work / "multi-line.csv").write_text(head + second + f'"{first}\n",{tail}' + "".join(rest))


def undecodable_csv(work: Path) -> None:
    """Write ``undecodable.txt``: a CSV of 20 features, as the default
    config's checkpoints take, whose header and first 256 rows
    (``model.FORWARD_BLOCK_ROWS``, class 0) make exactly two 8,192-byte
    text-decoder chunks, then a row that starts with the byte 0xff, then
    299 rows of classes 1-3.  It is not named ``.csv``, so that
    ``strip_timing`` compares its bytes instead of decoding them."""
    head = ",".join([f"f{i}" for i in range(20)] + ["label"]) + "\n"
    width, extra = divmod(2 * 8192 - len(head), 256)
    rows = "".join("0," * 19 + "0." + "5" * (width - 43 + (i < extra)) + ",0\n"
                   for i in range(256))
    tail = "".join("0," * 19 + f"0.25,{1 + i % 3}\n" for i in range(299))
    (work / "undecodable.txt").write_bytes((head + rows).encode() + b"\xff" + tail.encode())


def unclosed_quote(work: Path) -> None:
    """Write ``unclosed-quote.txt``: a CSV ``a,label`` whose third line
    opens a quote that none of the 40,000 lines after it closes, so the
    ``csv`` module joins them into one cell until its field limit stops
    it.  Not named ``.csv``, as ``undecodable.txt`` is not."""
    (work / "unclosed-quote.txt").write_text('a,label\n1,0\n"2,0\n' + "3,1\n" * 40_000)


COMMANDS = [
    ["train", "--out", "train"],
    *[["prune", "--method", m, "--out", f"prune-{m}"]
      for m in METHODS],
    ["prune", "--method", "ballot", "--config", "rewind0.json", "--out", "prune-rewind0"],
    ["experiment", "--seeds", "5", "--out", "experiment"],
    ["experiment", "--seeds", "1", "--config", "wide.json", "--out", "wide"],
    *[["prune", "--method", m, "--config", "wide.json", "--out", f"wide-{m}"]
      for m in METHODS],
    ["experiment", "--seeds", "3", "--config", "padded.json", "--out", "padded"],
    ["experiment", "--seeds", "3", "--config", "sparsest.json", "--out", "sparsest"],
    ["evaluate", "--checkpoint", "prune-ballot/checkpoints/final.ckpt",
     "--data", "default.json", "--out", "evaluation-default.json"],
    ["gen-data", "--out", "data.csv"],
    ["evaluate", "--checkpoint", "prune-ballot/checkpoints/final.ckpt",
     "--data", "data.csv", "--out", "evaluation.json"],
    ["gen-data", "--config", "long.json", "--out", "long.csv"],
    ["evaluate", "--checkpoint", "prune-ballot/checkpoints/final.ckpt",
     "--data", "long.csv", "--out", "evaluation-long.json"],
    ["evaluate", "--checkpoint", "wide-ballot/checkpoints/final.ckpt",
     "--data", "long.csv", "--out", "evaluation-wide-long.json"],
    ["gen-data", "--config", "whole-blocks.json", "--out", "whole-blocks.csv"],
    label_first,
    *[["evaluate", "--checkpoint", "prune-ballot/checkpoints/final.ckpt",
       "--data", f"{name}.csv", "--out", f"evaluation-{name}.json"]
      for name in ("whole-blocks", "label-first")],
    quote_last,
    ["evaluate", "--checkpoint", "prune-ballot/checkpoints/final.ckpt",
     "--data", "quoted-last.csv", "--out", "evaluation-quoted-last.json"],
    ["train", "--config", "every-key.json", "--out", "train-every-key"],
    ["train", "--config", "csv.json", "--out", "train-csv"],
    *[["prune", "--method", m, "--config", "odd.json", "--out", f"odd-{m}"]
      for m in METHODS],
    ["gen-data", "--config", "odd.json", "--out", "odd.csv"],
    *[["evaluate", "--checkpoint", f"odd-{m}/checkpoints/final.ckpt",
       "--data", "odd.csv", "--out", f"evaluation-odd-{m}.json"]
      for m in METHODS],
    ["experiment", "--seeds", "3", "--config", "odd.json", "--out", "odd-experiment"],
    bad_manifests,
    undecodable_csv,
    multi_line,
    unclosed_quote,
]
FAILING = [
    *[(f"bad-{name}", ["evaluate", "--checkpoint", f"bad-{name}.ckpt",
                       "--data", "default.json", "--out", f"failures/bad-{name}.json"])
      for name in BAD_LAYERS],
    ("train-hidden-zero", ["train", "--config", "hidden-zero.json",
                           "--out", "failures/train-hidden-zero"]),
    ("missing-config", ["train", "--config", "nope.json", "--out", "failures/missing-config"]),
    ("config-not-utf8", ["train", "--config", "not-utf8.json",
                         "--out", "failures/config-not-utf8"]),
    ("missing-checkpoint", ["evaluate", "--checkpoint", "nope.ckpt", "--data", "default.json",
                            "--out", "failures/missing-checkpoint.json"]),
    ("missing-csv", ["evaluate", "--checkpoint", "prune-ballot/checkpoints/final.ckpt",
                     "--data", "nope.csv", "--out", "failures/missing-csv.json"]),
    ("undecodable-csv", ["evaluate", "--checkpoint", "prune-ballot/checkpoints/final.ckpt",
                         "--data", "undecodable.txt", "--out", "failures/undecodable-csv.json"]),
    ("multi-line-csv", ["evaluate", "--checkpoint", "prune-ballot/checkpoints/final.ckpt",
                        "--data", "multi-line.csv", "--out", "failures/multi-line-csv.json"]),
    ("unclosed-quote", ["evaluate", "--checkpoint", "prune-ballot/checkpoints/final.ckpt",
                        "--data", "unclosed-quote.txt", "--out", "failures/unclosed-quote.json"]),
    # ``blocked/checkpoints`` is a regular file
    ("checkpoints-is-a-file", ["train", "--out", "blocked"]),
    ("gen-data-under-a-file", ["gen-data", "--out", "blocked/checkpoints/data.csv"]),
]


def run_all(tree: Path, work: Path) -> None:
    """Run the command set with ``tree``'s sources inside ``work``; a
    callable in it is a step of this script, given ``work``.  Then run
    the piped command and the failing ones and record each one's exit
    code and stderr."""
    for name, raw in (("default", {}), ("wide", WIDE), ("padded", PADDED),
                      ("sparsest", SPARSEST),
                      ("every-key", EVERY_KEY), ("csv", CSV), ("long", LONG),
                      ("whole-blocks", WHOLE_BLOCKS), ("odd", ODD), ("rewind0", REWIND0),
                      ("hidden-zero", HIDDEN_ZERO)):
        (work / f"{name}.json").write_text(json.dumps(raw))
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    for args in COMMANDS:
        if callable(args):
            args(work)
            continue
        subprocess.run([sys.executable, "-m", "ballot.cli", *args], cwd=work,
                       env=env, check=True, stdout=subprocess.DEVNULL)
    record(work, env, "piped-quoted-last",
           ["evaluate", "--checkpoint", "prune-ballot/checkpoints/final.ckpt",
            "--data", "/dev/stdin", "--out", "evaluation-quoted-last-piped.json"],
           (work / "quoted-last.csv").read_text())
    (work / "failures").mkdir()
    (work / "not-utf8.json").write_bytes(b'{"seed": "\xff"}')
    (work / "blocked").mkdir()
    (work / "blocked" / "checkpoints").write_text("")
    for name, args in FAILING:
        record(work, env, f"failures/{name}", args)


def record(work: Path, env: dict, name: str, args: list[str], stdin: str = "") -> None:
    """Run one command inside ``work``, fed ``stdin``, and write its exit
    code and stderr to ``NAME.txt``."""
    done = subprocess.run([sys.executable, "-m", "ballot.cli", *args], cwd=work,
                          env=env, input=stdin, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    (work / f"{name}.txt").write_text(f"exit {done.returncode}\n{done.stderr}")


def checkpoint_payload(raw: bytes) -> tuple[bytes, np.ndarray]:
    """The manifest and the float64 values of a checkpoint file."""
    (mlen,) = struct.unpack_from("<Q", raw, 8)
    return raw[16 : 16 + mlen], np.frombuffer(raw, dtype="<f8", offset=16 + mlen)


def json_diffs(old, new, path: str = "") -> list[str]:
    """Dotted key paths where two parsed JSON values differ.  An object
    whose key set changed, or a list whose length changed, is named as a
    whole; otherwise the comparison descends into it."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        items = [(k, old[k], new[k]) for k in sorted(old)]
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        items = list(zip(range(len(old)), old, new))
    else:
        return [] if json.dumps(old) == json.dumps(new) else [path or "(root)"]
    return [d for k, a, b in items
            for d in json_diffs(a, b, f"{path}.{k}" if path else str(k))]


def describe(name: str, old: bytes, new: bytes) -> str:
    """One line naming how a differing file differs: its largest value
    change for a checkpoint, its differing key paths for a JSON file."""
    if name.endswith(".ckpt"):
        (m_old, v_old), (m_new, v_new) = checkpoint_payload(old), checkpoint_payload(new)
        if m_old != m_new or v_old.shape != v_new.shape:
            return f"{name}: manifest or size differs"
        return f"{name}: max abs diff {np.abs(v_old - v_new).max():.3g}"
    if name.endswith(".json"):
        paths = json_diffs(json.loads(old), json.loads(new))
        return f"{name}: {', '.join(paths) if paths else 'formatting differs'}"
    return name


def compare(old_root: Path, new_root: Path) -> int:
    """Print each differing file; return the count of differing files."""
    names = sorted({p.relative_to(root).as_posix()
                    for root in (old_root, new_root)
                    for p in root.rglob("*") if p.is_file()})
    differ = 0
    for name in names:
        a, b = old_root / name, new_root / name
        if not (a.is_file() and b.is_file()):
            print(f"{name}: only in {'old' if a.is_file() else 'new'} tree")
            differ += 1
            continue
        old, new = (strip_timing(name, p.read_bytes()) for p in (a, b))
        if old != new:
            print(describe(name, old, new))
            differ += 1
    print(f"{len(names)} files compared, {differ} differ")
    return differ


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in argv]
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        roots = [Path(tmp) / "old", Path(tmp) / "new"]
        for tree, root in zip(trees, roots):
            root.mkdir()
            run_all(tree, root)
        return 1 if compare(*roots) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
