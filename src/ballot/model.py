"""Fully connected network: parameters, the training step, SGD,
checkpoints.

A network is a list of ``LayerSpec`` entries applied in order.  Every
layer except the last feeds a ReLU (or, if configured, no activation);
the last layer always emits raw logits.  Units of all non-final layers
are the "hidden neurons" that pruning may remove.

Training runs one forward pass per batch, then one fused backward pass
that carries the gradients of one or two weighted cross-entropies
through the shared ReLU gates.

Masking is value-level: a masked weight or bias behaves as exactly 0 in
every forward pass, and ``sgd_step`` re-zeroes masked entries after each
update so they can never drift away from 0.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DataError, NumericalFailure, PersistenceError
from .fileio import atomic_open

_MAGIC = b"BLTC"
_VERSION = 1
_ACTIVATIONS = ("relu", "none")


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
        if spec.activation not in _ACTIVATIONS:
            raise ConfigurationError(
                f"layer {i} activation must be one of {_ACTIVATIONS}"
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


def _masked_values(params: NetworkParams, mask):
    if mask is None:
        return params.weights, params.biases
    if len(mask.weight_keep) != len(params.weights):
        raise ConfigurationError("mask layer count does not match network")
    ws, bs = [], []
    for w, b, wk, bk in zip(
        params.weights, params.biases, mask.weight_keep, mask.bias_keep
    ):
        if wk.shape != w.shape or bk.shape != b.shape:
            raise ConfigurationError("mask shape does not match network")
        ws.append(w * wk)
        bs.append(b * bk)
    return ws, bs


def _check_input(x, specs: list[LayerSpec]) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != specs[0].d_in:
        raise ConfigurationError(
            f"input shape {x.shape} does not match d_in {specs[0].d_in}"
        )
    return x


def forward(params: NetworkParams, mask, x: np.ndarray, specs: list[LayerSpec]) -> np.ndarray:
    """Inference pass, returns logits of shape [n, C]."""
    x = _check_input(x, specs)
    ws, bs = _masked_values(params, mask)
    h = x
    for spec, w, b in zip(specs, ws, bs):
        z = h @ w + b
        if not np.isfinite(z).all():
            raise NumericalFailure("non-finite layer output in forward pass")
        h = np.maximum(z, 0.0) if spec.activation == "relu" else z
    return h


def weighted_cross_entropy(logits, onehot, class_weights):
    """Mean over the batch of per-sample weighted cross-entropy, and its
    gradient with respect to the logits.

    ``onehot`` must be exactly one-hot rows, ``class_weights`` a
    strictly positive vector of length C.  With all weights equal to 1
    this is the plain softmax cross-entropy, bit for bit, because
    multiplying by 1.0 is exact.  The log-sum-exp uses max subtraction,
    so extreme but finite logits stay finite.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2:
        raise ConfigurationError("logits must have shape [n, C]")
    if not np.isfinite(z).all():
        raise NumericalFailure("non-finite values in logits")
    y = np.asarray(onehot, dtype=np.float64)
    if y.shape != z.shape:
        raise ConfigurationError(
            f"targets shape {y.shape} does not match logits {z.shape}"
        )
    if not ((y == 0.0) | (y == 1.0)).all() or not (y.sum(axis=1) == 1.0).all():
        raise DataError("targets must be exactly one-hot rows")
    w = np.asarray(class_weights, dtype=np.float64)
    if w.shape != (z.shape[1],):
        raise ConfigurationError(
            f"class_weights must have shape ({z.shape[1]},), got {w.shape}"
        )
    if not np.isfinite(w).all() or (w <= 0.0).any():
        raise ConfigurationError("class_weights must be finite and positive")

    n = z.shape[0]
    if n == 0:
        raise DataError("empty batch")
    zmax = z.max(axis=1, keepdims=True)
    shifted = z - zmax
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True)) + zmax
    logp = z - lse
    sample_w = y @ w
    loss = float((-(sample_w * (y * logp).sum(axis=1))).mean())
    if not math.isfinite(loss):
        raise NumericalFailure("non-finite cross-entropy loss")
    dlogits = (sample_w[:, None] * (np.exp(logp) - y)) / n
    return loss, dlogits


def train_step(params: NetworkParams, mask, x, onehot, specs: list[LayerSpec],
               class_weights) -> tuple[ParamGrads, list[list[np.ndarray]]]:
    """Gradients of one batch under one or more weighted cross-entropies.

    ``class_weights`` holds one class-weight vector per loss.  Returns
    the parameter gradients of the first loss and, for every loss, the
    batch-mean gradient of each hidden pre-activation (one vector per
    hidden layer).  Masked values enter already zeroed, so gradients
    flow through exactly the network that inference sees.
    """
    x = _check_input(x, specs)
    ws, bs = _masked_values(params, mask)
    inputs, gates = [], []
    h = x
    for spec, w, b in zip(specs, ws, bs):
        inputs.append(h)
        z = h @ w + b
        if not np.isfinite(z).all():
            raise NumericalFailure("non-finite layer output in training pass")
        relu = spec.activation == "relu"
        gates.append(z > 0.0 if relu else None)
        h = np.maximum(z, 0.0) if relu else z

    upstream = [weighted_cross_entropy(h, onehot, cw)[1] for cw in class_weights]
    n_layers = len(specs)
    grads = ParamGrads([None] * n_layers, [None] * n_layers)
    preact_means = []
    for k, g in enumerate(upstream):
        means = []
        for i in range(n_layers - 1, -1, -1):
            if k == 0:
                grads.weights[i] = inputs[i].T @ g
                grads.biases[i] = g.sum(axis=0)
            if i > 0:
                g = g @ ws[i].T
                if gates[i - 1] is not None:
                    g = g * gates[i - 1]
                if not np.isfinite(g).all():
                    raise NumericalFailure("non-finite pre-activation gradient")
                means.insert(0, g.mean(axis=0))
        preact_means.append(means)
    return grads, preact_means


def sgd_step(
    params: NetworkParams, grads: ParamGrads, lr: float, mask=None
) -> NetworkParams:
    """In-place step theta <- theta - lr * g, then re-zero masked entries."""
    if len(grads.weights) != len(params.weights):
        raise ConfigurationError("gradient layer count does not match network")
    for g in grads.weights + grads.biases:
        if not np.isfinite(g).all():
            raise NumericalFailure("non-finite gradient in sgd_step")
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        if grads.weights[i].shape != w.shape or grads.biases[i].shape != b.shape:
            raise ConfigurationError(f"gradient shape mismatch at layer {i}")
        w -= lr * grads.weights[i]
        b -= lr * grads.biases[i]
    if mask is not None:
        for w, b, wk, bk in zip(
            params.weights, params.biases, mask.weight_keep, mask.bias_keep
        ):
            w[~wk] = 0.0
            b[~bk] = 0.0
    return params


def apply_mask(params: NetworkParams, mask) -> NetworkParams:
    """Fresh parameter set with masked entries set to exactly 0."""
    out = params.copy()
    if mask is None:
        return out
    for w, b, wk, bk in zip(out.weights, out.biases, mask.weight_keep, mask.bias_keep):
        w[~wk] = 0.0
        b[~bk] = 0.0
    return out


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
