"""Datasets: a synthetic imbalanced-Gaussian generator and a CSV loader,
both feeding the same stratified train/test split."""

from __future__ import annotations

import csv
from array import array
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


def load_csv(path, label_column: str = "label") -> tuple[np.ndarray, np.ndarray]:
    """Read features and integer labels.

    Labels must be exactly 0..C-1 where C is the number of distinct
    label values; the first row violating that (or any non-numeric
    cell) is reported with its 1-based file line number.  Rows are
    parsed one at a time straight into packed float64 and int64 buffers.
    """
    feats, labels = array("d"), array("q")
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path} is empty")
            if label_column not in header:
                raise DataError(f"label column '{label_column}' not found in header")
            label_idx = header.index(label_column)
            if len(header) < 2:
                raise DataError("no feature columns besides the label")
            for line_no, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise DataError(f"row at line {line_no} has {len(row)} cells, "
                                    f"expected {len(header)}")
                raw = row.pop(label_idx)
                try:
                    feats.extend(map(float, row))
                except ValueError:
                    row.insert(label_idx, raw)
                    bad = next(i for i in range(len(row))
                               if i != label_idx and not _is_float(row[i]))
                    raise DataError(
                        f"non-numeric value '{row[bad]}' in column "
                        f"'{header[bad]}' at line {line_no}"
                    ) from None
                try:
                    as_float = float(raw)
                except ValueError:
                    raise DataError(f"non-numeric label '{raw}' at line {line_no}") from None
                label = int(as_float)
                if label != as_float or label < 0:
                    raise DataError(f"label '{raw}' at line {line_no} is not a "
                                    "non-negative integer")
                labels.append(label)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not labels:
        raise DataError(f"{path} has no data rows")

    y = np.frombuffer(labels, dtype=np.int64)
    n_classes = np.unique(y).size
    outside = np.flatnonzero(y >= n_classes)
    if outside.size:
        # data row i sits on file line i + 2, after the header
        first = int(outside[0])
        raise DataError(
            f"label {int(y[first])} at line {first + 2} is outside 0..{n_classes - 1} "
            f"(the file has {n_classes} distinct labels)"
        )
    x = np.frombuffer(feats, dtype=np.float64).reshape(y.size, len(header) - 1)
    if not np.isfinite(x).all():
        raise DataError("non-finite feature value in CSV")
    return x, y


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
