"""Evaluation metrics: accuracy, macro precision/recall, and the two
fairness summaries (class-wise variance and maximum class discrepancy),
plus the per-class loss weighting they feed.

``evaluate`` is the one inference path: every report, of a split or of
a CSV file, comes from its blocked pass through ``model.forward_block``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import require_labels_below
from .errors import ConfigurationError, DataError, NumericalFailure
from .model import NetworkParams, block_buffers, forward_block

WEIGHT_FLOOR = 0.01


def _acc_vector(values) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise DataError("need a non-empty vector of per-class accuracies")
    if not np.isfinite(v).all() or (v < 0.0).any() or (v > 1.0).any():
        raise DataError("per-class accuracies must lie in [0, 1]")
    return v


def cwv(per_class_acc) -> float:
    """Population variance of the per-class accuracies."""
    v = _acc_vector(per_class_acc)
    if v.size == 2:
        # two-point form keeps the ((max-min)/2)^2 identity bit-exact
        half = (v[0] - v[1]) / 2.0
        return float(half * half)
    return float(np.mean((v - v.mean()) ** 2))


def mcd(per_class_acc) -> float:
    """Spread between the best- and worst-classified class."""
    v = _acc_vector(per_class_acc)
    return float(v.max() - v.min())


def confusion(y_true, y_pred, n_classes: int) -> np.ndarray:
    """Counts indexed [true, predicted] of the vectors ``evaluate`` builds."""
    yt = np.asarray(y_true)
    yp = np.asarray(y_pred)
    m = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(m, (yt, yp), 1)
    return m


def macro_precision(conf: np.ndarray) -> float:
    """Unweighted mean over classes of TP / (TP + FP); a class that is
    never predicted contributes 0."""
    conf = np.asarray(conf)
    tp = np.diag(conf).astype(np.float64)
    col = conf.sum(axis=0).astype(np.float64)
    out = np.divide(tp, col, out=np.zeros_like(tp), where=col > 0)
    return float(out.mean())


def macro_recall(conf: np.ndarray) -> float:
    """Unweighted mean of TP / (TP + FN) over the classes present, those
    with at least one true sample."""
    conf = np.asarray(conf)
    row = conf.sum(axis=1)
    present = row > 0
    tp = np.diag(conf)[present].astype(np.float64)
    return float((tp / row[present]).mean())


@dataclass(frozen=True)
class EvalReport:
    """``per_class_acc`` holds None for an absent class, one with no
    sample among the labels, and ``absent_classes`` lists those classes."""

    accuracy: float
    per_class_acc: tuple
    class_counts: tuple
    macro_precision: float
    macro_recall: float
    cwv: float
    mcd: float
    absent_classes: tuple = ()


def report_from_predictions(y_true, y_pred, n_classes: int) -> EvalReport:
    """Metrics of predictions against labels over ``n_classes`` classes.
    A class without samples has no accuracy: ``cwv``, ``mcd`` and
    ``macro_recall`` are taken over the classes present, while
    ``macro_precision`` still averages over all ``n_classes``."""
    conf = confusion(y_true, y_pred, n_classes)
    counts = conf.sum(axis=1)
    present = counts > 0
    acc = np.diag(conf) / np.maximum(counts, 1)
    per_class = acc[present]
    return EvalReport(
        accuracy=float(np.diag(conf).sum() / conf.sum()),
        per_class_acc=tuple(float(a) if p else None for a, p in zip(acc, present)),
        class_counts=tuple(int(c) for c in counts),
        macro_precision=macro_precision(conf),
        macro_recall=macro_recall(conf),
        cwv=cwv(per_class),
        mcd=mcd(per_class),
        absent_classes=tuple(int(c) for c in np.flatnonzero(~present)),
    )


def evaluate(params: NetworkParams, blocks) -> EvalReport:
    """The report of a network on every row of ``blocks``: ``(features,
    labels)`` pairs of at most ``FORWARD_BLOCK_ROWS`` rows, none longer
    than the first, from ``data.split_blocks`` or ``data.csv_blocks``.
    The network's output width fixes the classes; the labels may lack some.

    Each block is inferred as it arrives, into buffers sized by the first
    block, and only its argmax is kept (ties go to the lowest class).
    Only the reader's errors raise in the loop; after the last block the
    others raise in this order, as after loading every row: a label
    outside the classes, with its file line; a feature count the network
    does not take (no block is inferred); a non-finite layer output."""
    dims = params.dims
    n_features, n_classes = dims[0], dims[-1]
    bufs, labels, preds, failure = None, [], [], None
    for x, y in blocks:
        labels.append(y)
        width = x.shape[1]
        if width == n_features and failure is None:
            if bufs is None:
                bufs = block_buffers(dims, x.shape[0])
            try:
                preds.append(np.argmax(forward_block(params, x, bufs), axis=1))
            except NumericalFailure as exc:
                failure = exc
    y = np.concatenate(labels)
    require_labels_below(y, n_classes, f"the checkpoint has {n_classes} classes")
    if width != n_features:
        raise ConfigurationError(
            f"checkpoint expects {n_features} features, data has {width}")
    if failure is not None:
        raise failure
    return report_from_predictions(y, np.concatenate(preds), n_classes)


def update_class_weights(report: EvalReport) -> np.ndarray:
    """Per-class loss weights, 1 / max(accuracy, floor), as a float64
    array, from ``report``'s per-class accuracies; a class absent from
    the evaluated labels has no accuracy to weight by."""
    if report.absent_classes:
        raise DataError(f"class {report.absent_classes[0]} has no sample, "
                        "so it has no accuracy to weight its loss by")
    return 1.0 / np.maximum(report.per_class_acc, WEIGHT_FLOOR)


def bias_delta(pruned: EvalReport, dense: EvalReport) -> float:
    """Signed CWV change, pruned minus dense; negative is fairer."""
    if len(pruned.per_class_acc) != len(dense.per_class_acc):
        raise DataError("reports cover different class counts")
    return pruned.cwv - dense.cwv
