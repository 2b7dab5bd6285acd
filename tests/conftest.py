"""Shared fixtures and oracles for the test suite."""

import csv
from pathlib import Path

import numpy as np
import pytest

from ballot import data
from ballot.data import DatasetSpec, SyntheticSpec, make_dataset
from ballot.errors import DataError
from ballot.fileio import reading
from ballot.model import (
    FORWARD_BLOCK_ROWS,
    NetworkParams,
    block_buffers,
    forward_block,
    init_network,
)
from ballot.pipeline import TrainConfig

# one verdict line per acceptance criterion, echoed after the run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def small_dataset(counts=(30, 12, 12), dim=4, std=0.8, seed=1, split=0.8,
                  mean_scale=3.0):
    spec = DatasetSpec(
        synthetic=SyntheticSpec(
            classes=len(counts), counts=tuple(counts), dim=dim,
            mean_scale=mean_scale, std=std, seed=seed,
        ),
        split=split,
    )
    return make_dataset(spec)


def small_config(**overrides):
    base = dict(
        hidden=(8,), epochs=6, lr0=0.1, batch_size=16, omega=0.4,
        rewind_epoch=2, max_rounds=2, seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


def load_csv_rows(path, label_column: str = "label") -> tuple[np.ndarray, np.ndarray]:
    """``load_csv`` of the whole file row by row: the reference parser.
    The header is read first, and every other line by ``_row_blocks``."""
    with reading(path, "", DataError, newline="") as fh:
        header, label_idx = data._read_header(csv.reader(fh), path, label_column)
        xs, ys = zip(*data._row_blocks(fh, path, header, label_idx))
    return np.concatenate(xs), np.concatenate(ys)


# the bytes a text file's decoder takes at a time (``io.TextIOWrapper``)
DECODE_CHUNK = 8192


def write_undecodable_at_block_edge(path, blocks: int) -> None:
    """A CSV ``f0,label`` whose header and first ``blocks`` blocks of
    class-0 rows make exactly ``blocks`` decoder chunks, then a data row
    that starts with the byte 0xff, then 299 class-1 rows.  So the bad
    byte is the first of both a block of lines and a decoder chunk."""
    head, n_rows = "f0,label\n", blocks * FORWARD_BLOCK_ROWS
    width, extra = divmod(blocks * DECODE_CHUNK - len(head), n_rows)
    rows = "".join("0." + "5" * (width - 5 + (i < extra)) + ",0\n" for i in range(n_rows))
    good = (head + rows).encode()
    assert len(good) == blocks * DECODE_CHUNK
    Path(path).write_bytes(good + b"\xff0.5,1\n" + b"0.25,1\n" * 299)


def random_dims(rng, max_hidden_layers=2, max_units=8, n_classes=None):
    """Random MLP layer widths with at least one hidden layer."""
    d_in = int(rng.integers(1, 6))
    n_hidden = int(rng.integers(1, max_hidden_layers + 1))
    hidden = [int(rng.integers(1, max_units + 1)) for _ in range(n_hidden)]
    return (d_in, *hidden, int(n_classes if n_classes else rng.integers(2, 5)))


def net_from_layers(weights, biases):
    """A seed-0 network holding hand-written per-layer ``weights`` and
    ``biases``, copied into one flat buffer; its widths are the weights'
    shapes."""
    dims = (np.shape(weights[0])[0], *(np.shape(w)[1] for w in weights))
    flat = np.concatenate([np.ravel(np.asarray(a, dtype=np.float64))
                           for pair in zip(weights, biases) for a in pair])
    return NetworkParams(flat, dims, seed=0)


def random_net(rng, **kwargs):
    dims = random_dims(rng, **kwargs)
    params = init_network(dims, int(rng.integers(0, 2**31)))
    return dims, params


def logits(params, x):
    """The logits of all the rows ``x`` by one ``forward_block`` call,
    as a fresh array."""
    x = np.asarray(x, dtype=np.float64)
    return forward_block(params, x, block_buffers(params.dims, x.shape[0])).copy()


def reference_loss(weights, biases, x, onehot, class_w):
    """Plain-numpy forward plus weighted cross-entropy, written
    independently of the training kernel: the finite-difference oracle.
    Every layer but the last feeds a ReLU."""
    h = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w + b
        h = np.maximum(z, 0.0) if i + 1 < len(weights) else z
    zmax = h.max(axis=1, keepdims=True)
    shifted = h - zmax
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    sample_w = onehot @ class_w
    return float(np.mean(-sample_w * (onehot * logp).sum(axis=1)))


def per_layer(units, dims):
    """Split the last axis of ``units``, the hidden units of a network of
    layer widths ``dims`` in layer-major order, into one view per hidden
    layer."""
    return np.split(units, np.cumsum(dims[1:-2]), axis=-1)


def reference_fair_means(weights, biases, x, onehot, class_w):
    """The fairness loss's batch-mean gradient of every hidden
    pre-activation, by that loss's own backward sweep: the class-weighted
    dlogits pushed back through the layers and their ReLU gates, one
    network, x [n, d_in] and onehot [n, C].  The training kernel derives
    these means from the plain loss's sweep instead."""
    h, gates = x, []
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w + b
        if i + 1 < len(weights):
            gates.append(z > 0.0)
            h = np.maximum(z, 0.0)
        else:
            h = z
    n = x.shape[0]
    zmax = h.max(axis=1, keepdims=True)
    logp = h - (np.log(np.exp(h - zmax).sum(axis=1, keepdims=True)) + zmax)
    g = (onehot @ class_w)[:, None] * (np.exp(logp) - onehot) / n
    means = []
    for i in range(len(weights) - 1, 0, -1):
        g = (g @ weights[i].T) * gates[i - 1]
        means.insert(0, g.sum(axis=0) / n)
    return means


def brute_force_report(y_true, y_pred, n_classes):
    """Per-sample recount of every EvalReport field, loops only."""
    n = len(y_true)
    per_class_correct = [0] * n_classes
    per_class_total = [0] * n_classes
    conf = [[0] * n_classes for _ in range(n_classes)]
    correct = 0
    for t, p in zip(y_true, y_pred):
        conf[t][p] += 1
        per_class_total[t] += 1
        if t == p:
            per_class_correct[t] += 1
            correct += 1
    acc = [c / t for c, t in zip(per_class_correct, per_class_total)]
    mean = sum(acc) / n_classes
    var = sum((a - mean) ** 2 for a in acc) / n_classes
    prec = 0.0
    rec = 0.0
    for c in range(n_classes):
        col = sum(conf[r][c] for r in range(n_classes))
        row = sum(conf[c])
        prec += conf[c][c] / col if col else 0.0
        rec += conf[c][c] / row if row else 0.0
    return {
        "accuracy": correct / n,
        "per_class_acc": acc,
        "cwv": var,
        "mcd": max(acc) - min(acc),
        "macro_precision": prec / n_classes,
        "macro_recall": rec / n_classes,
    }


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)
