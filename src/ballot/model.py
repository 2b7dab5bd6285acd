"""Fully connected network: parameters, the training step, SGD, the
inference block, checkpoints.

A network's shape is one tuple of layer widths, ``dims = (d_in, h_1,
..., h_L, C)``: layer i maps ``dims[i]`` inputs to ``dims[i + 1]``
outputs.  Every layer except the last feeds a ReLU; the last layer
always emits raw logits.  Units of all non-final layers are the "hidden
neurons" that pruning may remove.

One flat layout serves parameters, checkpoints and masks: per layer the
weights row-major, then the bias, layers in order.  This module is its
only owner: ``layer_offsets`` gives each layer's block start and the
total, and ``layer_views`` the per-layer arrays of a buffer in it.
``NetworkParams`` holds one network as its dims and one [P] buffer in
that layout, whose per-layer arrays are views; a checkpoint stores the
buffer after a manifest of the layers, seed and epoch, and ``Mask.keep``
flags its entries.  ``ParamStack`` holds R networks of one shape
as one C-contiguous [R, P] buffer, a row per network, next to a
gradient buffer of the same shape; the per-layer arrays the step reads
and writes are views of them, and ``stack_params`` rebinds each network
to its row.  Every function given a network or a stack reads the
shape from it and takes no dims of its own.

Each batch runs one forward pass and one backward pass that writes the
cross-entropy's parameter gradients into the gradient buffer.  Dense
training also asks for the hidden units' pre-activation means of both
losses, one array for the conflict ledger; the fairness loss's follow
from the same backward pass by linearity, so that loss is never formed.
``sgd_step`` updates the whole buffer in one call.  Every matmul runs
slot by slot with the shapes of a single network, so stacking networks
of one shape never changes their bytes.

Masking lives in the parameters: a masked weight or bias is stored as
exactly +0.0.  ``apply_mask`` establishes that and ``sgd_step`` keeps
it: a stack's keep flags scale a masked entry's finite gradient to
+0.0 or -0.0, and +0.0 minus either is +0.0.  Every other function
reads the parameters as stored and takes no mask.

A masked network retrains at its compacted shape: ``compact_network``
gathers the live hidden units of a network, masked or not, into a
smaller dense network whose trimmed entries are +0.0, and
``expand_network`` scatters the trained result back into full shape.
A unit that is not live contributes exact zeros and receives zero
gradients, so training the compacted network leaves every entry
outside it as it was.  Padding with dead units lets
networks of different live widths share one stack; it changes matmul
shapes, so weights may move in their last bits.  These two and
``apply_mask`` are the only functions that know both shapes.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .errors import ConfigurationError, NumericalFailure, PersistenceError
from .fileio import reading, writing

_MAGIC = b"BLTC"
_VERSION = 1


def check_dims(dims) -> None:
    """Raise ConfigurationError unless ``dims`` holds at least two
    widths, every one of them positive."""
    if len(dims) < 2:
        raise ConfigurationError("network needs at least one layer")
    for i, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
        if d_in < 1 or d_out < 1:
            raise ConfigurationError(f"layer {i} has non-positive dimensions")


def layer_offsets(dims) -> list[int]:
    """Flat offset of every layer's block, then the parameter count P."""
    offsets = [0]
    for d_in, d_out in zip(dims, dims[1:]):
        offsets.append(offsets[-1] + d_in * d_out + d_out)
    return offsets


def param_count(dims) -> int:
    return layer_offsets(dims)[-1]


class NetworkParams:
    """One network: its layer widths ``dims``, a tuple, and its values in
    one C-contiguous [P] float64 buffer ``flat``, in the flat layout.
    ``weights[i]`` [dims[i], dims[i + 1]] and ``biases[i]`` [dims[i + 1]]
    are views into it, so writing either writes ``flat``; ``epoch_tag``
    counts the epochs trained.  A compacted network's hidden widths may
    be 0."""

    def __init__(self, flat: np.ndarray, dims, seed: int, epoch_tag: int = 0):
        self.dims, self.seed, self.epoch_tag = tuple(dims), seed, epoch_tag
        self._bind(flat)

    def _bind(self, flat: np.ndarray) -> None:
        """Hold ``flat`` as the values, with per-layer views into it."""
        self.flat = flat
        self.weights, self.biases = layer_views(flat, self.dims)

    def copy(self) -> "NetworkParams":
        return NetworkParams(self.flat.copy(), self.dims, self.seed, self.epoch_tag)


def init_network(dims, seed: int) -> NetworkParams:
    """He-style uniform init, U(-sqrt(6/d_in), +sqrt(6/d_in)), zero biases.

    The draw order is fixed (layer by layer, weights row-major), so the
    same seed always reproduces the same parameters bit for bit.
    """
    check_dims(dims)
    rng = np.random.default_rng(seed)
    params = NetworkParams(np.zeros(param_count(dims)), dims, seed)
    for d_in, w in zip(dims, params.weights):
        lim = math.sqrt(6.0 / d_in)
        w[...] = rng.uniform(-lim, lim, w.shape)
    return params


def layer_views(buf: np.ndarray, dims) -> tuple[list, list]:
    """Per-layer weight [..., dims[i], dims[i + 1]] and bias
    [..., dims[i + 1]] views into ``buf`` ([..., P]), which holds the
    flat layout of ``dims`` on its last axis."""
    lead = buf.shape[:-1]
    weights, biases, offsets = [], [], layer_offsets(dims)
    for d_in, d_out, base, end in zip(dims, dims[1:], offsets, offsets[1:]):
        w_end = end - d_out
        weights.append(buf[..., base:w_end].reshape(*lead, d_in, d_out))
        biases.append(buf[..., w_end:end])
    return weights, biases


class ParamStack:
    """R networks of the layer widths ``dims`` in one C-contiguous [R, P]
    float64 buffer ``flat``, a row per network in the flat layout, the
    last ``train_step``'s gradients ``grad`` and bool keep flags ``keep``
    (or None), both [R, P].  ``weights[i]`` [R, d_in, d_out], ``biases[i]``
    [R, d_out], ``grad_weights[i]`` and ``grad_biases[i]`` are views."""

    def __init__(self, flat: np.ndarray, dims, keep: np.ndarray | None = None):
        self.flat, self.dims, self.keep = flat, dims, keep
        self.grad = np.zeros_like(flat)
        self.weights, self.biases = layer_views(flat, dims)
        self.grad_weights, self.grad_biases = layer_views(self.grad, dims)


def stack_params(nets: list[NetworkParams], keeps=None) -> ParamStack:
    """Stack ``nets`` in order, with ``keeps`` as keep flags, and rebind
    each network's arrays to views of its row, so a step trains it in place."""
    stack = ParamStack(np.stack([net.flat for net in nets]), nets[0].dims,
                       None if keeps is None else np.stack(keeps))
    for net, row in zip(nets, stack.flat):
        net._bind(row)
    return stack


def _require_finite(a: np.ndarray, what: str) -> None:
    """Raise NumericalFailure if ``a`` holds a NaN or infinity, naming
    the first slot of its leading seed axis that does."""
    # the ufunc's own reduce: ``.all()`` adds a Python call per check
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
        bad = ~np.isfinite(a.reshape(a.shape[0], -1)).all(axis=1)
        raise NumericalFailure(what, index=int(np.argmax(bad)))


# Rows per block of an inference pass and of a streamed CSV.  A larger
# input runs block by block, so its hidden activations never exceed this
# many rows.  The matmul shapes, and so the logits' last bits, depend on
# it; the reports keep only each row's argmax.
FORWARD_BLOCK_ROWS = 256


def block_buffers(dims, rows: int) -> list[np.ndarray]:
    """Per layer an uninitialised [rows, d_out] float64 buffer, for
    ``forward_block`` to write that layer's output into."""
    return [np.empty((rows, d_out)) for d_out in dims[1:]]


def forward_block(params: NetworkParams, x: np.ndarray, bufs: list[np.ndarray]) -> np.ndarray:
    """Logits of the rows ``x``, no more than ``bufs`` has rows, whose
    width the caller has checked; ``metrics.evaluate`` is the caller.
    Each layer's matmul writes into the leading rows of its buffer of
    ``block_buffers``, where the bias and the ReLU are applied in place,
    so a pass over many blocks allocates its activations once.  The
    logits returned are a view of the last buffer, valid until the next
    call with ``bufs``."""
    h = x
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = np.matmul(h, w, out=bufs[i][: x.shape[0]])
        h += b
        if not np.isfinite(h).all():
            raise NumericalFailure("non-finite layer output in forward pass")
        if i < last:
            np.maximum(h, 0.0, out=h)
    return h


def cross_entropy(logits, onehot):
    """Batch-mean softmax cross-entropy of R networks, and its gradient
    with respect to the logits.

    ``logits`` and ``onehot`` are float64 [R, n, C], n >= 1, and
    ``onehot`` holds exactly one-hot rows, as ``Dataset.train_onehot``
    checks once; neither is re-checked here.  Returns ``(loss,
    dlogits)``, the loss of shape [R] and dlogits [R, n, C].  The
    log-sum-exp uses max subtraction, so extreme but finite logits stay
    finite.  Any NaN or infinite logit, -inf through ``y * logp``, makes
    the loss non-finite, which raises NumericalFailure naming the slot.
    """
    z, y, n = logits, onehot, logits.shape[1]
    # the ufuncs' own reduce: ``.max`` and ``.sum`` add a Python wrapper
    zmax = np.maximum.reduce(z, axis=2, keepdims=True)
    lse = np.log(np.add.reduce(np.exp(z - zmax), axis=2, keepdims=True)) + zmax
    logp = z - lse
    loss = np.add.reduce(-np.add.reduce(y * logp, axis=2), axis=1) / n
    _require_finite(loss, "non-finite cross-entropy loss")
    return loss, (np.exp(logp) - y) / n


def train_step(stack: ParamStack, x, onehot, fair=None):
    """One batch of R networks at once: the cross-entropy's parameter
    gradients into ``stack.grad`` and, with ``fair``, the pre-activation
    means that the conflict ledger records.

    ``x`` is [R, n, d_in] and ``onehot`` [R, n, C]; slot r of every
    array belongs to network r.  The gradients are written in place,
    into the views ``stack.grad_weights`` and ``stack.grad_biases``.
    With ``fair``, an [R, C] array of finite, strictly positive class
    weights, it returns one [2, R, H] array over the hidden units,
    layer-major: row 0 the batch-mean gradient of each pre-activation
    under the plain loss, its bias gradient over n, row 1 under the
    fairness loss, which weights sample n by its class's weight s_n; the
    backward pass is linear per sample, so the latter is s_n times the
    former and needs no sweep of its own.  Without ``fair``, None.

    The parameters are used as stored, so gradients flow through exactly
    the network that inference sees; ``sgd_step`` gives the gradients of
    masked entries a zero step.  Each slot's arithmetic is that of a
    stack of one.  Only the class weights and the loss are checked, for
    finiteness; a non-finite pre-activation gradient reaches a weight
    gradient, which ``sgd_step`` checks.
    """
    if fair is not None and not np.isfinite(fair).all():
        raise ConfigurationError("class_weights must be finite")
    ws, n, last = stack.weights, x.shape[1], len(stack.dims) - 2
    inputs, gates = [], []
    h = x
    for i, (w, b) in enumerate(zip(ws, stack.biases)):
        inputs.append(h)
        h = h @ w
        h += b[:, None, :]
        if i < last:
            gates.append(h > 0.0)
            np.maximum(h, 0.0, out=h)

    _, g = cross_entropy(h, onehot)
    means = None
    if fair is not None:
        # exact: every row of onehot has a single 1 and zeros elsewhere
        s = np.add.reduce(onehot * fair[:, None, :], axis=2)[:, :, None]
        means = np.empty((2, x.shape[0], sum(stack.dims[1:-1])))
    for i in range(last, -1, -1):
        np.matmul(inputs[i].swapaxes(1, 2), g, out=stack.grad_weights[i])
        np.add.reduce(g, axis=1, out=stack.grad_biases[i])
        if means is not None and i < last:
            cols = slice(sum(stack.dims[1 : i + 1]), sum(stack.dims[1 : i + 2]))
            np.divide(stack.grad_biases[i], n, out=means[0, :, cols])
            np.divide(np.add.reduce(g * s, axis=1), n, out=means[1, :, cols])
        if i > 0:
            g = g @ ws[i].swapaxes(1, 2)
            g *= gates[i - 1]
    return means


def sgd_step(stack: ParamStack, lr: float) -> ParamStack:
    """In-place step theta <- theta - lr * g on every network of the
    stack, from the gradients ``train_step`` left in ``stack.grad``; with
    ``stack.keep``, g is first multiplied by its flag.  x * 1.0 is exact,
    and a masked entry, +0.0 on entry, subtracts (g * 0.0) * lr, +0.0 or
    -0.0 for the finite gradients checked here, so it stays +0.0, never
    -0.0.  ``stack.grad`` is left scaled by the flags and ``lr``."""
    _require_finite(stack.grad, "non-finite gradient in sgd_step")
    if stack.keep is not None:
        stack.grad *= stack.keep
    stack.grad *= lr
    stack.flat -= stack.grad
    return stack


def apply_mask(params: NetworkParams, mask) -> NetworkParams:
    """Fresh parameter set with masked entries set to exactly +0.0."""
    if mask.dims != params.dims:
        raise ConfigurationError("mask shape does not match network")
    out = params.copy()
    out.flat[~mask.keep] = 0.0
    return out


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
    params: NetworkParams, mask, widths=None
) -> tuple[NetworkParams, np.ndarray]:
    """The live part of a masked network as a smaller dense network.

    Returns a fresh network of the weights and biases of the live hidden
    units (see ``live_units``), with its own dims, whose hidden layers
    may have width 0, and its flat keep vector in the flat layout of that
    network: entries ``mask`` trims inside the live part stay trimmed and
    are stored as +0.0, so ``params`` need not hold the mask's zeros and
    the result has the bits of the ``compact_network`` of its
    ``apply_mask``.
    ``widths``, one per hidden layer and none below its live count, pads
    each hidden layer with dead units after the live ones: every entry
    +0.0 and not kept, so the unit's ReLU gate is closed and it gets zero
    gradients.  ``expand_network`` scatters the result back and drops the
    padding."""
    ends = _unit_ends(mask)
    dims = [len(u) for u in ends]
    if widths is not None:
        dims[1:-1] = widths
    small = NetworkParams(np.zeros(param_count(dims)), dims, params.seed, params.epoch_tag)
    keep = np.zeros(small.flat.size, dtype=bool)
    keep_w, keep_b = layer_views(keep, dims)
    for i, (rows, cols) in enumerate(zip(ends, ends[1:])):
        block, n, m = np.ix_(rows, cols), len(rows), len(cols)
        small.weights[i][:n, :m] = params.weights[i][block]
        small.biases[i][:m] = params.biases[i][cols]
        keep_w[i][:n, :m] = mask.weight_keep[i][block]
        keep_b[i][:m] = mask.bias_keep[i][cols]
    small.flat[~keep] = 0.0
    return small, keep


def expand_network(small: NetworkParams, params: NetworkParams, mask) -> NetworkParams:
    """Write ``small``, the ``compact_network`` of ``params`` under
    ``mask``, less any padding, back into the live part of ``params`` in
    place; every entry outside it keeps its value.  Returns ``params``."""
    ends = _unit_ends(mask)
    for i, (rows, cols) in enumerate(zip(ends, ends[1:])):
        params.weights[i][np.ix_(rows, cols)] = small.weights[i][: len(rows), : len(cols)]
        params.biases[i][cols] = small.biases[i][: len(cols)]
    return params


def save_checkpoint(params: NetworkParams, path) -> None:
    """Binary layout: magic 'BLTC', u32 version, u64 manifest length, the
    UTF-8 JSON manifest (``layers``, ``seed``, ``epoch``), then ``flat``
    as little-endian float64.  Each ``layers`` record holds a layer's
    ``d_in`` and ``d_out`` and its ``activation``, written by position:
    "relu" for a hidden layer, "none" for the output layer.  Missing
    parent directories are made; the file is replaced atomically."""
    dims = params.dims
    check_dims(dims)
    manifest = json.dumps(
        {
            "layers": [
                {"d_in": d_in, "d_out": d_out,
                 "activation": "relu" if i + 2 < len(dims) else "none"}
                for i, (d_in, d_out) in enumerate(zip(dims, dims[1:]))
            ],
            "seed": int(params.seed),
            "epoch": int(params.epoch_tag),
        },
        sort_keys=True,
    ).encode("utf-8")
    header = [_MAGIC, struct.pack("<I", _VERSION), struct.pack("<Q", len(manifest)), manifest]
    with writing(path, "checkpoint", "wb") as fh:
        fh.write(b"".join(header))
        fh.write(params.flat.astype("<f8").tobytes())


def _require_fields(obj: dict, where: str, types: dict) -> None:
    """Raise PersistenceError unless every field of ``types`` is in
    ``obj`` with exactly its type, so a float, a string or a bool is
    no integer."""
    for key, kind in types.items():
        if type(obj.get(key)) is not kind:
            name = "an integer" if kind is int else "a string"
            raise PersistenceError(f"{where} field '{key}' missing or not {name}")


def _manifest_dims(layers: list[dict]) -> tuple[int, ...]:
    """The layer widths of a manifest's ``layers`` records.  Raises
    PersistenceError, naming the first offending layer, unless the
    records are a non-empty chain of positive widths, each ``d_in`` the
    ``d_out`` before it, with ReLU hidden layers and a logit output."""
    def invalid(why: str) -> PersistenceError:
        return PersistenceError(f"manifest layers invalid: {why}")

    if not layers:
        raise invalid("network needs at least one layer")
    for i, entry in enumerate(layers):
        if entry["d_in"] < 1 or entry["d_out"] < 1:
            raise invalid(f"layer {i} has non-positive dimensions")
        if i < len(layers) - 1 and entry["activation"] != "relu":
            raise invalid(f"hidden layer {i} activation must be 'relu', "
                          f"got {entry['activation']!r}")
        if i > 0 and entry["d_in"] != layers[i - 1]["d_out"]:
            raise invalid(f"layer {i} d_in {entry['d_in']} does not match "
                          f"layer {i - 1} d_out {layers[i - 1]['d_out']}")
    if layers[-1]["activation"] != "none":
        raise invalid("output layer must use activation 'none'")
    return (layers[0]["d_in"], *(entry["d_out"] for entry in layers))


def load_checkpoint(path) -> NetworkParams:
    with reading(path, "checkpoint", PersistenceError, "rb") as fh:
        raw = fh.read()

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
    _require_fields(manifest, "manifest", {"seed": int, "epoch": int})

    layers = manifest["layers"]
    for i, entry in enumerate(layers):
        if not isinstance(entry, dict):
            raise PersistenceError(f"manifest layer {i} is not an object")
        _require_fields(entry, f"manifest layer {i}",
                        {"d_in": int, "d_out": int, "activation": str})
    dims = _manifest_dims(layers)

    offset, nbytes = 16 + mlen, 8 * param_count(dims)
    if len(raw) < offset + nbytes:
        raise PersistenceError(
            f"truncated parameters: {len(raw) - offset} bytes, expected {nbytes}")
    if len(raw) > offset + nbytes:
        raise PersistenceError(f"{len(raw) - offset - nbytes} trailing bytes after last layer")
    flat = np.frombuffer(raw, dtype="<f8", offset=offset).astype(np.float64)
    return NetworkParams(flat, dims, seed=manifest["seed"], epoch_tag=manifest["epoch"])
