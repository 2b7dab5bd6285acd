"""Datasets: a synthetic imbalanced-Gaussian generator and a CSV loader,
both feeding the same stratified train/test split."""

from __future__ import annotations

import csv
import itertools
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import DatasetSpec, SyntheticSpec
from .errors import DataError
from .fileio import reading, writing
from .model import FORWARD_BLOCK_ROWS


@dataclass(frozen=True)
class Split:
    X: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class Dataset:
    train: Split
    test: Split
    n_classes: int
    dim: int

    @cached_property
    def train_onehot(self) -> np.ndarray:
        """One-hot targets of the training split, built once per dataset.
        Raises DataError unless every label lies in 0..n_classes-1."""
        y = self.train.y
        if ((y < 0) | (y >= self.n_classes)).any():
            raise DataError(f"training labels must lie in 0..{self.n_classes - 1}")
        return np.eye(self.n_classes)[y]


def split_blocks(split: Split):
    """The rows of ``split`` as ``(features, labels)`` views of
    ``FORWARD_BLOCK_ROWS`` rows, the last one shorter, for
    ``metrics.evaluate``."""
    for start in range(0, split.y.shape[0], FORWARD_BLOCK_ROWS):
        stop = start + FORWARD_BLOCK_ROWS
        yield split.X[start:stop], split.y[start:stop]


def gen_synthetic(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray]:
    """Samples grouped by class, class 0 first.  The same seed always
    reproduces the same arrays bit for bit."""
    rng = np.random.default_rng(spec.seed)
    means = []
    for _ in range(spec.classes):
        v = rng.normal(size=spec.dim)
        means.append(spec.mean_scale * v / np.linalg.norm(v))
    xs, ys = [], []
    for c, count in enumerate(spec.counts):
        noise = rng.normal(size=(int(count), spec.dim))
        xs.append(means[c] + spec.std * noise)
        ys.append(np.full(int(count), c, dtype=np.int64))
    return np.concatenate(xs), np.concatenate(ys)


def save_csv(x: np.ndarray, y: np.ndarray, path) -> None:
    """Header f0..f{d-1},label; floats written in shortest round-trip
    form, so equal arrays always produce identical bytes.  Missing
    parent directories are made; the file is replaced atomically."""
    with writing(path, "CSV", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(x.shape[1])] + ["label"])
        for row, label in zip(x, y):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


# A label must fit an int64 class index; a float at or above 2**63 does not.
_LABEL_LIMIT = 2.0 ** 63


def _read_header(reader, path, label_column: str) -> tuple[list[str], int]:
    """The header row from ``reader`` and the label column's index."""
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise DataError(f"malformed CSV at line {reader.line_num}: {exc}") from None
    if header is None:
        raise DataError(f"{path} is empty")
    if reader.line_num > 1:
        raise DataError("header at line 1 runs onto the next line")
    if label_column not in header:
        raise DataError(f"label column '{label_column}' not found in header")
    if len(header) < 2:
        raise DataError("no feature columns besides the label")
    return header, header.index(label_column)


def csv_blocks(path, label_column: str = "label"):
    """Yield the features and integer labels of a CSV file in file order,
    one ``(x, y)`` pair per ``FORWARD_BLOCK_ROWS`` data rows, so that
    memory holds one block of the file at a time.

    Each line is read once, front to back, so a pipe loads as a file
    does.  A block of lines is parsed in C by ``np.loadtxt`` and yielded
    when its lines decode, no line is longer than
    ``csv.field_size_limit()``, it has one row of ``len(header)`` cells
    per line, every label is an integer in 0..2**63-1 and every feature
    is finite.  From the first block that fails this on, ``_row_blocks``
    parses its lines, then the rest of the input or the decode error
    that stopped its read: it raises the first error, or yields rows
    that only ``float`` accepts (a quoted number, ``1_0``).  So the
    blocks hold the same bits, and a bad input fails with the same
    message, as the row-wise pass over the whole input.
    """
    rows = 0
    with reading(path, "", DataError, newline="") as fh:
        header, label_idx = _read_header(csv.reader(fh), path, label_column)
        while True:
            lines, rest = [], fh
            try:
                # extend keeps the lines decoded before a decode error
                lines.extend(itertools.islice(fh, FORWARD_BLOCK_ROWS))
            except UnicodeDecodeError as exc:
                rest = _raising(exc)
            if rest is fh and not lines and rows:
                return  # every block of the input loaded
            block = _parse_block(lines, len(header), label_idx) if rest is fh else None
            if block is None:
                break  # a block for the row-wise pass, or no data rows
            yield block
            rows += len(lines)
        yield from _row_blocks(itertools.chain(lines, rest), path, header, label_idx, rows)


def _raising(exc: Exception):
    """An iterator that raises ``exc`` when it is first advanced."""
    raise exc
    yield


def _parse_block(lines: list[str], n_cells: int, label_idx: int):
    """``lines`` as features and labels parsed by ``np.loadtxt``; None
    when there are none or loadtxt cannot take them exactly."""
    # a longer line may hold a cell over the csv module's field limit
    if not lines or max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        with warnings.catch_warnings():
            # blank lines only, which the row-wise pass reports
            warnings.simplefilter("ignore", UserWarning)
            # comments=None: '#' is a bad cell, not a comment; blank
            # lines, which loadtxt skips, show in the row count
            table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                               dtype=np.float64)
    except ValueError:
        return None
    if table.shape != (len(lines), n_cells):
        return None
    labels = table[:, label_idx]
    if not ((labels >= 0.0) & (labels < _LABEL_LIMIT) & (np.floor(labels) == labels)).all():
        return None
    x = np.delete(table, label_idx, axis=1)
    if not np.isfinite(x).all():
        return None
    return x, labels.astype(np.int64)


def load_csv(path, label_column: str = "label") -> tuple[np.ndarray, np.ndarray]:
    """Read features and non-negative integer labels: the blocks of
    ``csv_blocks`` joined, so every rule and message is theirs.  Which
    labels form the classes is the caller's rule."""
    xs, ys = zip(*csv_blocks(path, label_column))
    return np.concatenate(xs), np.concatenate(ys)


def _parse_rows(reader, header: list[str], label_idx: int, first_line: int):
    """Each row of ``reader``, a fresh reader, as its features and label,
    parsed with ``float``; a bad row raises, naming its line counted from
    ``first_line``.  A row is one line: a quoted line break is an error."""
    for line_no, row in enumerate(reader, start=first_line):
        if first_line + reader.line_num - 1 > line_no:
            raise DataError(f"row at line {line_no} runs onto the next line")
        if len(row) != len(header):
            raise DataError(f"row at line {line_no} has {len(row)} cells, "
                            f"expected {len(header)}")
        raw = row.pop(label_idx)
        try:
            feats = [float(v) for v in row]
        except ValueError:
            row.insert(label_idx, raw)
            bad = next(i for i, v in enumerate(row) if i != label_idx and not _is_float(v))
            raise DataError(f"non-numeric value '{row[bad]}' in column "
                            f"'{header[bad]}' at line {line_no}") from None
        try:
            label = float(raw)
        except ValueError:
            raise DataError(f"non-numeric label '{raw}' at line {line_no}") from None
        if not (label.is_integer() and label >= 0.0):
            raise DataError(f"label '{raw}' at line {line_no} is not a "
                            "non-negative integer")
        if label >= _LABEL_LIMIT:
            raise DataError(f"label '{raw}' at line {line_no} is too large")
        yield feats, int(label)


def _row_blocks(lines, path, header: list[str], label_idx: int, skip: int = 0):
    """The data rows in ``lines``, which follow the header and the first
    ``skip`` data rows of the CSV file ``path``, parsed by ``csv`` and
    ``float`` into ``FORWARD_BLOCK_ROWS`` blocks: the only source of
    line-numbered messages.  A bad row raises when it is reached; a
    non-finite feature raises after the last row, and stops the blocks."""
    finite, any_rows = True, False
    reader = csv.reader(lines)
    try:
        parsed = _parse_rows(reader, header, label_idx, skip + 2)
        # a list of Python floats takes about ten times the bytes, so
        # one block of them at a time
        while chunk := list(itertools.islice(parsed, FORWARD_BLOCK_ROWS)):
            feats, labels = zip(*chunk)
            x = np.array(feats, dtype=np.float64)
            finite = finite and bool(np.isfinite(x).all())
            any_rows = True
            if finite:
                yield x, np.array(labels, dtype=np.int64)
    except csv.Error as exc:
        # for example a cell over the csv module's field size limit
        raise DataError(f"malformed CSV at line {skip + 1 + reader.line_num}: {exc}") from None
    if not any_rows:
        raise DataError(f"{path} has no data rows")
    if not finite:
        raise DataError("non-finite feature value in CSV")


def require_labels_below(y: np.ndarray, n_classes: int, why: str) -> None:
    """Raise DataError naming the first label of ``y``, the labels of a
    CSV file in file order, that is ``n_classes`` or more, with its line."""
    outside = np.flatnonzero(y >= n_classes)
    if outside.size:
        # data row i sits on file line i + 2, after the header
        first = int(outside[0])
        raise DataError(f"label {int(y[first])} at line {first + 2} is outside "
                        f"0..{n_classes - 1} ({why})")


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def _distinct(y: np.ndarray) -> np.ndarray:
    """The distinct values of ``y`` in ascending order, as ``np.unique``
    gives them, without the ``numpy.ma`` import that it brings."""
    s = np.sort(y)
    keep = np.ones(s.size, dtype=bool)
    keep[1:] = s[1:] != s[:-1]
    return s[keep]


def _stratified_split(y: np.ndarray, frac: float, seed: int):
    train_idx, test_idx = [], []
    rng = np.random.default_rng((int(seed), 1))
    for c in _distinct(y):
        members = np.nonzero(y == c)[0]
        if members.size < 2:
            raise DataError(f"class {int(c)} has fewer than 2 samples")
        perm = members[rng.permutation(members.size)]
        n_train = int(round(frac * members.size))
        n_train = min(max(n_train, 1), members.size - 1)
        train_idx.append(perm[:n_train])
        test_idx.append(perm[n_train:])
    return np.sort(np.concatenate(train_idx)), np.sort(np.concatenate(test_idx))


def make_dataset(spec: DatasetSpec) -> Dataset:
    """Materialize, split per class at the configured fraction, and
    optionally standardize features using training-split statistics."""
    if spec.synthetic is not None:
        x, y = gen_synthetic(spec.synthetic)
        split_seed = spec.synthetic.seed
    else:
        x, y = load_csv(spec.csv_path, spec.label_column)
        # training takes its classes from the file: exactly 0..C-1
        n_distinct = _distinct(y).size
        require_labels_below(y, n_distinct,
                             f"the file has {n_distinct} distinct labels")
        split_seed = 0

    n_classes = int(y.max()) + 1
    train_idx, test_idx = _stratified_split(y, spec.split, split_seed)
    x_train, y_train = x[train_idx], y[train_idx]
    x_test, y_test = x[test_idx], y[test_idx]

    if spec.normalize:
        mu = x_train.mean(axis=0)
        sd = x_train.std(axis=0)
        sd[sd == 0.0] = 1.0
        x_train = (x_train - mu) / sd
        x_test = (x_test - mu) / sd

    return Dataset(
        train=Split(x_train, y_train),
        test=Split(x_test, y_test),
        n_classes=n_classes,
        dim=x.shape[1],
    )
