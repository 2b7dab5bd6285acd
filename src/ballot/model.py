"""Fully connected network: parameters, the training step, SGD,
checkpoints.

A network is a list of ``LayerSpec`` entries applied in order.  Every
layer except the last feeds a ReLU; the last layer always emits raw
logits.  Units of all non-final layers are the "hidden neurons" that
pruning may remove.

Training steps R networks of one architecture at once, stacked on a
leading seed axis (``ParamStack``, ``MaskStack``): weights [R, d_in,
d_out], biases [R, d_out], inputs [R, n, d_in].  Each batch runs one
forward pass, then one fused backward pass that carries the gradients
of one or two weighted cross-entropies through the shared ReLU gates.
Every matmul runs slot by slot with the shapes of a single network, so
a network's bytes do not depend on what it is stacked with; a single
network is a stack of one.  Inference (``forward``) runs one network.

Masking lives in the parameters: a masked weight or bias is stored as
exactly +0.0.  ``apply_mask`` establishes that and ``sgd_step`` keeps it,
re-zeroing masked entries after each update; every other function reads
the parameters as stored and takes no mask.

A masked network retrains at its compacted shape: ``compact_network``
gathers its live hidden units into a smaller dense network, whose
trimmed entries stay masked, and ``expand_network`` scatters the trained
result back into full shape.  A unit that is not live contributes exact
zeros and receives zero gradients, so training the compacted network
leaves every entry outside it as it was.  These two and ``apply_mask``
are the only functions that know both shapes.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DataError, NumericalFailure, PersistenceError
from .fileio import atomic_open

_MAGIC = b"BLTC"
_VERSION = 1


@dataclass(frozen=True)
class LayerSpec:
    d_in: int
    d_out: int
    activation: str = "relu"


def validate_specs(specs: list[LayerSpec]) -> None:
    """Reject empty, non-conforming, or non-logit-terminated stacks."""
    if not specs:
        raise ConfigurationError("network needs at least one layer")
    for i, spec in enumerate(specs):
        if spec.d_in < 1 or spec.d_out < 1:
            raise ConfigurationError(f"layer {i} has non-positive dimensions")
        if i < len(specs) - 1 and spec.activation != "relu":
            raise ConfigurationError(
                f"hidden layer {i} activation must be 'relu', "
                f"got {spec.activation!r}"
            )
        if i > 0 and spec.d_in != specs[i - 1].d_out:
            raise ConfigurationError(
                f"layer {i} d_in {spec.d_in} does not match "
                f"layer {i - 1} d_out {specs[i - 1].d_out}"
            )
    if specs[-1].activation != "none":
        raise ConfigurationError("output layer must use activation 'none'")


def hidden_sizes(specs: list[LayerSpec]) -> list[int]:
    return [spec.d_out for spec in specs[:-1]]


def param_count(specs: list[LayerSpec]) -> int:
    return sum(s.d_in * s.d_out + s.d_out for s in specs)


@dataclass
class NetworkParams:
    """Weight matrices (d_in by d_out) and bias vectors, one pair per layer."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    seed: int
    epoch_tag: int = 0

    def copy(self) -> "NetworkParams":
        return NetworkParams(
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.seed,
            self.epoch_tag,
        )

    def count(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)


@dataclass
class ParamGrads:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


def init_network(specs: list[LayerSpec], seed: int) -> NetworkParams:
    """He-style uniform init, U(-sqrt(6/d_in), +sqrt(6/d_in)), zero biases.

    The draw order is fixed (layer by layer, weights row-major), so the
    same seed always reproduces the same parameters bit for bit.
    """
    validate_specs(specs)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for spec in specs:
        lim = math.sqrt(6.0 / spec.d_in)
        weights.append(rng.uniform(-lim, lim, (spec.d_in, spec.d_out)))
        biases.append(np.zeros(spec.d_out))
    return NetworkParams(weights, biases, seed=seed, epoch_tag=0)


@dataclass
class ParamStack:
    """R networks of one architecture on a leading seed axis:
    ``weights[i]`` is [R, d_in, d_out] and ``biases[i]`` is [R, d_out]."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


def stack_params(nets: list[NetworkParams]) -> ParamStack:
    """Stack ``nets`` in order and rebind each network's arrays to views
    of its slot, so a step on the stack trains every network in place."""
    stack = ParamStack(
        [np.stack(ws) for ws in zip(*(net.weights for net in nets))],
        [np.stack(bs) for bs in zip(*(net.biases for net in nets))],
    )
    for r, net in enumerate(nets):
        net.weights = [w[r] for w in stack.weights]
        net.biases = [b[r] for b in stack.biases]
    return stack


@dataclass
class MaskStack:
    """Drop flags (negated keep flags) of R masks shaped like a
    ``ParamStack``, computed once for the re-zeroing after every step."""

    weight_drop: list[np.ndarray]
    bias_drop: list[np.ndarray]


def stack_masks(masks) -> MaskStack:
    """Stack the per-layer drop flags of ``masks`` in order."""
    return MaskStack(
        [~np.stack(keeps) for keeps in zip(*(m.weight_keep for m in masks))],
        [~np.stack(keeps) for keeps in zip(*(m.bias_keep for m in masks))],
    )


def _check_input(x, specs: list[LayerSpec], lead: tuple = ()) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != len(lead) + 2 or x.shape[:-2] != lead or x.shape[-1] != specs[0].d_in:
        stacked = f" for {lead[0]} stacked networks" if lead else ""
        raise ConfigurationError(
            f"input shape {x.shape} does not match d_in {specs[0].d_in}{stacked}"
        )
    return x


def _require_finite(a: np.ndarray, what: str) -> None:
    """Raise NumericalFailure if ``a`` holds a NaN or infinity, naming
    the first slot of its leading seed axis that does."""
    if not np.isfinite(a).all():
        bad = ~np.isfinite(a.reshape(a.shape[0], -1)).all(axis=1)
        raise NumericalFailure(what, index=int(np.argmax(bad)))


# Rows per block of an inference pass.  A larger input runs block by
# block, so its hidden activations never exceed this many rows.
FORWARD_BLOCK_ROWS = 1024


def _forward_rows(x, params: NetworkParams) -> np.ndarray:
    h = x
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w + b
        if not np.isfinite(z).all():
            raise NumericalFailure("non-finite layer output in forward pass")
        h = np.maximum(z, 0.0) if i < last else z
    return h


def forward(params: NetworkParams, x: np.ndarray, specs: list[LayerSpec]) -> np.ndarray:
    """Inference pass of one network as stored, returns logits of shape
    [n, C]; a masked network is one whose masked entries are 0.

    Inputs longer than ``FORWARD_BLOCK_ROWS`` rows run in blocks of that
    many rows; every row's logits are the same either way."""
    x = _check_input(x, specs)
    n = x.shape[0]
    if n <= FORWARD_BLOCK_ROWS:
        return _forward_rows(x, params)
    return np.concatenate([
        _forward_rows(x[start : start + FORWARD_BLOCK_ROWS], params)
        for start in range(0, n, FORWARD_BLOCK_ROWS)
    ])


def weighted_cross_entropy(logits, onehot, class_weights):
    """Batch-mean weighted cross-entropy of R networks under one or more
    class weightings, and its gradient with respect to the logits.

    ``logits`` and ``onehot`` are [R, n, C]; ``onehot`` must be exactly
    one-hot rows.  ``class_weights`` holds one [R, C] array of strictly
    positive weights per loss.  Returns one ``(loss, dlogits)`` pair per
    loss, the loss of shape [R] and dlogits [R, n, C]; the losses share
    one softmax.  With all weights equal to 1 this is the plain softmax
    cross-entropy, bit for bit, because multiplying by 1.0 is exact.
    The log-sum-exp uses max subtraction, so extreme but finite logits
    stay finite.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 3:
        raise ConfigurationError("logits must have shape [R, n, C]")
    _require_finite(z, "non-finite values in logits")
    y = np.asarray(onehot, dtype=np.float64)
    if y.shape != z.shape:
        raise ConfigurationError(
            f"targets shape {y.shape} does not match logits {z.shape}"
        )
    if not ((y == 0.0) | (y == 1.0)).all() or not (y.sum(axis=2) == 1.0).all():
        raise DataError("targets must be exactly one-hot rows")
    weightings = [np.asarray(w, dtype=np.float64) for w in class_weights]
    for w in weightings:
        if w.shape != (z.shape[0], z.shape[2]):
            raise ConfigurationError(
                f"class_weights must have shape {(z.shape[0], z.shape[2])}, "
                f"got {w.shape}"
            )
        if not np.isfinite(w).all() or (w <= 0.0).any():
            raise ConfigurationError("class_weights must be finite and positive")

    n = z.shape[1]
    if n == 0:
        raise DataError("empty batch")
    zmax = z.max(axis=2, keepdims=True)
    shifted = z - zmax
    lse = np.log(np.exp(shifted).sum(axis=2, keepdims=True)) + zmax
    logp = z - lse
    picked = (y * logp).sum(axis=2)
    residual = np.exp(logp) - y
    out = []
    for w in weightings:
        # exact: every row of y has a single 1 and zeros elsewhere
        sample_w = (y * w[:, None, :]).sum(axis=2)
        loss = (-(sample_w * picked)).mean(axis=1)
        _require_finite(loss, "non-finite cross-entropy loss")
        out.append((loss, (sample_w[:, :, None] * residual) / n))
    return out


def train_step(params: ParamStack, x, onehot, specs: list[LayerSpec],
               class_weights) -> tuple[ParamGrads, list[list[np.ndarray]]]:
    """Gradients of one batch per network under one or more weighted
    cross-entropies, for R networks at once.

    ``x`` is [R, n, d_in] and ``onehot`` [R, n, C]; slot r of every
    array belongs to network r, and ``class_weights`` holds one [R, C]
    array per loss.  Returns the parameter gradients of the first loss,
    shaped like the stack, and, for every loss, the batch-mean gradient
    of each hidden pre-activation ([R, units] per hidden layer).  The
    parameters are used as stored, so gradients flow through exactly the
    network that inference sees; ``sgd_step`` discards the gradients of
    masked entries.  Each slot's arithmetic is that of a stack of one, so
    stacking never changes a network's result.
    """
    x = _check_input(x, specs, (params.weights[0].shape[0],))
    ws = params.weights
    n_layers = len(specs)
    inputs, gates = [], []
    h = x
    for i, (w, b) in enumerate(zip(ws, params.biases)):
        inputs.append(h)
        z = h @ w + b[:, None, :]
        _require_finite(z, "non-finite layer output in training pass")
        if i < n_layers - 1:
            gates.append(z > 0.0)
            h = np.maximum(z, 0.0)
        else:
            h = z

    upstream = [g for _, g in weighted_cross_entropy(h, onehot, class_weights)]
    grads = ParamGrads([None] * n_layers, [None] * n_layers)
    preact_means = []
    for k, g in enumerate(upstream):
        means = []
        for i in range(n_layers - 1, -1, -1):
            if k == 0:
                grads.weights[i] = np.swapaxes(inputs[i], 1, 2) @ g
                grads.biases[i] = g.sum(axis=1)
            if i > 0:
                g = (g @ np.swapaxes(ws[i], 1, 2)) * gates[i - 1]
                _require_finite(g, "non-finite pre-activation gradient")
                means.insert(0, g.mean(axis=1))
        preact_means.append(means)
    return grads, preact_means


def sgd_step(
    params: ParamStack, grads: ParamGrads, lr: float, mask: MaskStack | None = None
) -> ParamStack:
    """In-place step theta <- theta - lr * g on every network of the
    stack, then re-zero masked entries."""
    if len(grads.weights) != len(params.weights):
        raise ConfigurationError("gradient layer count does not match network")
    for g in grads.weights + grads.biases:
        _require_finite(g, "non-finite gradient in sgd_step")
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        if grads.weights[i].shape != w.shape or grads.biases[i].shape != b.shape:
            raise ConfigurationError(f"gradient shape mismatch at layer {i}")
        w -= lr * grads.weights[i]
        b -= lr * grads.biases[i]
    if mask is not None:
        for w, b, wd, bd in zip(
            params.weights, params.biases, mask.weight_drop, mask.bias_drop
        ):
            np.putmask(w, wd, 0.0)
            np.putmask(b, bd, 0.0)
    return params


def apply_mask(params: NetworkParams, mask) -> NetworkParams:
    """Fresh parameter set with masked entries set to exactly +0.0."""
    if len(mask.weight_keep) != len(params.weights):
        raise ConfigurationError("mask layer count does not match network")
    out = params.copy()
    for w, b, wk, bk in zip(out.weights, out.biases, mask.weight_keep, mask.bias_keep):
        if wk.shape != w.shape or bk.shape != b.shape:
            raise ConfigurationError("mask shape does not match network")
        w[~wk] = 0.0
        b[~bk] = 0.0
    return out


class Keep(NamedTuple):
    """Per-layer keep flags shaped like a network's weights and biases."""

    weight_keep: list[np.ndarray]
    bias_keep: list[np.ndarray]


def live_units(mask) -> list[np.ndarray]:
    """Indices of every hidden layer's live units, in ascending order.

    A hidden unit is live when it has a kept incoming weight or a kept
    bias, and a kept outgoing weight.  Any other unit's pre-activation
    is +0.0 or its output is multiplied by +0.0 only, so it changes no
    logit and every entry tied to it gets a zero gradient."""
    return [
        np.flatnonzero((wk.any(axis=0) | bk) & out.any(axis=1))
        for wk, bk, out in zip(mask.weight_keep, mask.bias_keep, mask.weight_keep[1:])
    ]


def _unit_ends(mask) -> list[np.ndarray]:
    """Kept unit indices at every layer boundary: all inputs, each hidden
    layer's live units, all outputs."""
    d_in, n_out = mask.weight_keep[0].shape[0], mask.weight_keep[-1].shape[1]
    return [np.arange(d_in), *live_units(mask), np.arange(n_out)]


def compact_network(
    params: NetworkParams, mask, specs: list[LayerSpec]
) -> tuple[NetworkParams, list[LayerSpec], Keep]:
    """The live part of a masked network as a smaller dense network.

    Returns fresh copies of the weights and biases of the live hidden
    units (see ``live_units``), the specs of that network, whose hidden
    layers may have width 0, and its keep flags: entries ``mask`` trims
    inside the live part stay trimmed.  ``expand_network`` scatters the
    result back."""
    ends = _unit_ends(mask)
    blocks = [np.ix_(rows, cols) for rows, cols in zip(ends, ends[1:])]
    small = NetworkParams(
        [w[block] for w, block in zip(params.weights, blocks)],
        [b[cols] for b, cols in zip(params.biases, ends[1:])],
        params.seed,
        params.epoch_tag,
    )
    small_specs = [
        LayerSpec(len(rows), len(cols), spec.activation)
        for rows, cols, spec in zip(ends, ends[1:], specs)
    ]
    keep = Keep(
        [wk[block] for wk, block in zip(mask.weight_keep, blocks)],
        [bk[cols] for bk, cols in zip(mask.bias_keep, ends[1:])],
    )
    return small, small_specs, keep


def expand_network(small: NetworkParams, params: NetworkParams, mask) -> NetworkParams:
    """Write ``small``, the ``compact_network`` of ``params`` under
    ``mask``, back into the live part of ``params`` in place; every entry
    outside it keeps its value.  Returns ``params``."""
    ends = _unit_ends(mask)
    for i, (rows, cols) in enumerate(zip(ends, ends[1:])):
        params.weights[i][np.ix_(rows, cols)] = small.weights[i]
        params.biases[i][cols] = small.biases[i]
    return params


@dataclass
class Checkpoint:
    params: NetworkParams
    specs: list[LayerSpec] = field(default_factory=list)
    epoch: int = 0
    seed: int = 0


def save_checkpoint(ck: Checkpoint, path) -> None:
    """Binary layout: magic 'BLTC', u32 version, u64 manifest length, the
    UTF-8 JSON manifest, then per layer the weights (row-major) and bias
    as little-endian float64."""
    validate_specs(ck.specs)
    if len(ck.params.weights) != len(ck.specs):
        raise PersistenceError("params do not match layer specs")
    manifest = json.dumps(
        {
            "layers": [
                {"d_in": s.d_in, "d_out": s.d_out, "activation": s.activation}
                for s in ck.specs
            ],
            "seed": int(ck.seed),
            "epoch": int(ck.epoch),
        },
        sort_keys=True,
    ).encode("utf-8")
    chunks = [_MAGIC, struct.pack("<I", _VERSION), struct.pack("<Q", len(manifest)), manifest]
    for w, b in zip(ck.params.weights, ck.params.biases):
        chunks.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        chunks.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    try:
        with atomic_open(path, "wb") as fh:
            fh.write(b"".join(chunks))
    except OSError as exc:
        raise PersistenceError(f"cannot write checkpoint {path}: {exc}") from exc


def load_checkpoint(path) -> Checkpoint:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise PersistenceError(f"cannot read checkpoint {path}: {exc}") from exc

    if len(raw) < 16:
        raise PersistenceError("truncated header")
    if raw[:4] != _MAGIC:
        raise PersistenceError(f"bad magic {raw[:4]!r}, expected {_MAGIC!r}")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != _VERSION:
        raise PersistenceError(f"unsupported version {version}")
    (mlen,) = struct.unpack_from("<Q", raw, 8)
    if len(raw) < 16 + mlen:
        raise PersistenceError("truncated manifest")
    try:
        manifest = json.loads(raw[16 : 16 + mlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PersistenceError(f"unreadable manifest: {exc}") from exc

    if not isinstance(manifest, dict) or not isinstance(manifest.get("layers"), list):
        raise PersistenceError("manifest field 'layers' missing or not a list")
    for key in ("seed", "epoch"):
        if not isinstance(manifest.get(key), int):
            raise PersistenceError(f"manifest field '{key}' missing or not an integer")

    specs = []
    for i, entry in enumerate(manifest["layers"]):
        if not isinstance(entry, dict):
            raise PersistenceError(f"manifest layer {i} is not an object")
        try:
            specs.append(
                LayerSpec(int(entry["d_in"]), int(entry["d_out"]), str(entry["activation"]))
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PersistenceError(f"manifest layer {i} is malformed: {exc}") from exc
    try:
        validate_specs(specs)
    except ConfigurationError as exc:
        raise PersistenceError(f"manifest layers invalid: {exc}") from exc

    offset = 16 + mlen
    weights, biases = [], []
    for i, spec in enumerate(specs):
        for name, shape in (("weights", (spec.d_in, spec.d_out)), ("bias", (spec.d_out,))):
            nbytes = 8 * int(np.prod(shape))
            if len(raw) < offset + nbytes:
                raise PersistenceError(f"truncated {name} for layer {i}")
            arr = np.frombuffer(raw, dtype="<f8", count=nbytes // 8, offset=offset)
            offset += nbytes
            block = arr.astype(np.float64).reshape(shape)
            if name == "weights":
                weights.append(block)
            else:
                biases.append(block)
    if offset != len(raw):
        raise PersistenceError(f"{len(raw) - offset} trailing bytes after last layer")

    params = NetworkParams(
        weights, biases, seed=manifest["seed"], epoch_tag=manifest["epoch"]
    )
    return Checkpoint(params, specs, epoch=manifest["epoch"], seed=manifest["seed"])
