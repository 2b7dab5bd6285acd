"""Datasets: a synthetic imbalanced-Gaussian generator and a CSV loader,
both feeding the same stratified train/test split."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import DatasetSpec, SyntheticSpec
from .errors import DataError


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
    form, so equal arrays always produce identical bytes."""
    with open(path, "w", newline="") as fh:
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
    if label_column not in header:
        raise DataError(f"label column '{label_column}' not found in header")
    if len(header) < 2:
        raise DataError("no feature columns besides the label")
    return header, header.index(label_column)


def load_csv(path, label_column: str = "label") -> tuple[np.ndarray, np.ndarray]:
    """Read features and non-negative integer labels.

    The rows after the header are streamed from the open file through
    ``np.loadtxt``, which parses them in C.  That result is returned only
    when it has one row of ``len(header)`` cells per file line, every
    label is an integer in 0..2**63-1 and every feature is finite.  Any
    other file is read again by ``_load_csv_rows``, which accepts every
    cell Python's ``float`` accepts (a quoted number, ``1_0``) and
    reports the first bad row with its 1-based file line number, so both
    passes load the same files to the same bits and fail with the same
    messages.  Which labels form the classes is the caller's rule.
    """
    n_lines = 0
    table = None
    try:
        with open(path, newline="") as fh:
            header, label_idx = _read_header(csv.reader(fh), path, label_column)

            def lines():
                nonlocal n_lines
                for n_lines, line in enumerate(fh, start=1):
                    yield line

            try:
                with warnings.catch_warnings():
                    # a file without data rows: the row-wise pass says so
                    warnings.simplefilter("ignore", UserWarning)
                    # comments=None: '#' is a bad cell, not a comment; blank
                    # lines, which loadtxt skips, show in the line count
                    table = np.loadtxt(lines(), delimiter=",", comments=None,
                                       ndmin=2, dtype=np.float64)
            except ValueError:
                pass
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if table is not None and table.shape == (n_lines, len(header)):
        labels = table[:, label_idx]
        valid = (labels >= 0.0) & (labels < _LABEL_LIMIT) & (np.floor(labels) == labels)
        if valid.all():
            y = labels.astype(np.int64)
            x = np.delete(table, label_idx, axis=1)
            del labels, table
            if np.isfinite(x).all():
                return x, y
    return _load_csv_rows(path, label_column)


def _load_csv_rows(path, label_column: str = "label") -> tuple[np.ndarray, np.ndarray]:
    """``load_csv`` row by row with ``csv`` and ``float``: the reference
    parser, and the only source of line-numbered messages."""
    feats, labels = [], []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header, label_idx = _read_header(reader, path, label_column)
            for line_no, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise DataError(f"row at line {line_no} has {len(row)} cells, "
                                    f"expected {len(header)}")
                raw = row.pop(label_idx)
                try:
                    feats.append([float(v) for v in row])
                except ValueError:
                    row.insert(label_idx, raw)
                    bad = next(i for i in range(len(row))
                               if i != label_idx and not _is_float(row[i]))
                    raise DataError(
                        f"non-numeric value '{row[bad]}' in column "
                        f"'{header[bad]}' at line {line_no}"
                    ) from None
                try:
                    label = float(raw)
                except ValueError:
                    raise DataError(f"non-numeric label '{raw}' at line {line_no}") from None
                if not (label.is_integer() and label >= 0.0):
                    raise DataError(f"label '{raw}' at line {line_no} is not a "
                                    "non-negative integer")
                if label >= _LABEL_LIMIT:
                    raise DataError(f"label '{raw}' at line {line_no} is too large")
                labels.append(int(label))
    except csv.Error as exc:
        # for example a cell over the csv module's field size limit
        raise DataError(f"malformed CSV at line {reader.line_num}: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not labels:
        raise DataError(f"{path} has no data rows")
    x = np.array(feats, dtype=np.float64)
    if not np.isfinite(x).all():
        raise DataError("non-finite feature value in CSV")
    return x, np.array(labels, dtype=np.int64)


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


def _stratified_split(y: np.ndarray, frac: float, seed: int):
    train_idx, test_idx = [], []
    rng = np.random.default_rng((int(seed), 1))
    for c in np.unique(y):
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
        n_distinct = np.unique(y).size
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
