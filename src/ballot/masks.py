"""Mask construction: conflict-vote ranking plus magnitude and random
baselines.

The conflict ledger watches training.  For every hidden unit and every
epoch it receives the epoch-accumulated batch-mean gradients of the
accuracy loss (g_a) and the weighted fairness loss (g_f) with respect to
the unit's pre-activation.  A unit whose two gradients disagree in sign
is pulling accuracy and fairness in opposite directions; its conflict
score for the epoch is |g_a| + gamma * |g_f|, and units whose score
reaches the eta-quantile of the strictly positive scores get one vote
(count) and the score added to a running total (cum_score).  Hidden
units have one layer-major order from ``model.train_step``'s means to
the ranking; only ``ConflictLedger.sizes`` and ``_unit_ids`` know where
a layer ends.

A mask is one flat boolean keep vector in the checkpoint's byte layout:
per layer the weights row-major, then the bias, layers in order, at the
offsets of ``model.layer_offsets``.  The per-layer
``weight_keep``/``bias_keep`` arrays are ``model.layer_views`` of it,
and the entries tied to hidden unit u of layer i are three strided
slices of it: the incoming column, the bias, and the outgoing row.

``build_ballot_mask(ledger, omega, final_params)`` and
``build_magnitude_mask(params, omega)`` read the layer widths ``dims``
from the network they rank.  ``build_random_mask``, ``Mask``,
``identity_mask`` and ``load_mask`` get no network, so they take
``dims``; every mask stores its own.

Mask building removes whole hidden units worst-first and then trims
individual weights so every method lands on exactly floor(omega * n)
kept parameters out of n.  Output units are never removed and the output
bias, the last entries of the vector, is never masked.  Whole-unit
removal never takes a hidden layer's last unit, but trimming can still
clear every entry of a layer.  ``save_mask`` stores a mask as
``np.packbits(mask.keep)``: ceil(n / 8) bytes, zero-padded.
"""

from __future__ import annotations

import math
from numbers import Integral

import numpy as np

from .errors import (
    ConfigurationError,
    InfeasibleMaskError,
    NumericalFailure,
    PersistenceError,
    UsageError,
)
from .fileio import reading, writing
from .model import NetworkParams, check_dims, layer_offsets, layer_views, param_count


def conflict_scores(g_a, g_f, gamma: float) -> np.ndarray:
    """Score a flat vector of units: |g_a| + gamma * |g_f| where the two
    gradients have strictly opposite signs, 0 everywhere else."""
    a = np.asarray(g_a, dtype=np.float64)
    f = np.asarray(g_f, dtype=np.float64)
    if a.shape != f.shape:
        raise ConfigurationError("g_a and g_f must have matching shapes")
    if not (np.isfinite(a).all() and np.isfinite(f).all()):
        raise NumericalFailure("non-finite gradient aggregates")
    opposed = np.sign(a) * np.sign(f) < 0
    return np.where(opposed, np.abs(a) + gamma * np.abs(f), 0.0)


def positive_score_threshold(scores: np.ndarray, eta: float) -> float | None:
    """Nearest-rank eta-quantile over the strictly positive scores.

    Returns None when no score is positive (no unit is in conflict).
    With n positive scores the threshold is the entry at 0-based index
    min(ceil(eta * n), n - 1) of the ascending sort, so roughly the top
    (1 - eta) fraction of conflicted units clears it.
    """
    pos = np.sort(scores[scores > 0.0])
    n = pos.size
    if n == 0:
        return None
    idx = min(math.ceil(eta * n), n - 1)
    return float(pos[idx])


class ConflictLedger:
    """Per-unit vote counts and cumulative conflict scores over training,
    flat [H] arrays over the layer-major units of the hidden widths
    ``sizes``, any sequence of positive integers."""

    def __init__(self, sizes):
        sizes = list(sizes)
        if not sizes or not all(isinstance(s, Integral) and not isinstance(s, bool)
                                and s >= 1 for s in sizes):
            raise ConfigurationError("hidden layer sizes must be positive integers")
        self.sizes = [int(s) for s in sizes]
        self.counts = np.zeros(sum(self.sizes), dtype=np.int64)
        self.cum_scores = np.zeros(self.counts.size)
        self._epochs: set[int] = set()

    @property
    def epochs(self) -> list[int]:
        return sorted(self._epochs)

    def record_epoch(self, epoch: int, g_a, g_f, gamma: float, eta: float) -> None:
        """Score one epoch's gradient aggregates and update the votes.

        ``g_a`` and ``g_f`` are flat [H] vectors that cover every unit.
        An epoch can only be recorded once.  ``gamma`` and ``eta`` are
        taken as given: ``TrainConfig`` checks them.
        """
        epoch = int(epoch)
        if epoch < 0:
            raise ConfigurationError("epoch must be non-negative")
        if epoch in self._epochs:
            raise UsageError(f"epoch {epoch} already recorded")
        if not np.shape(g_a) == np.shape(g_f) == self.counts.shape:
            raise ConfigurationError(f"g_a and g_f must cover the {self.counts.size} hidden "
                                     f"units, got shapes {np.shape(g_a)} and {np.shape(g_f)}")
        scores = conflict_scores(g_a, g_f, gamma)
        threshold = positive_score_threshold(scores, eta)
        if threshold is not None:
            hit = (scores > 0.0) & (scores >= threshold)
            self.counts[hit] += 1
            self.cum_scores[hit] += scores[hit]
        self._epochs.add(epoch)


class Mask:
    """Keep/remove decisions: per hidden unit and per parameter entry.

    ``keep`` holds one flag per parameter in the flat layout above;
    ``weight_keep[i]`` and ``bias_keep[i]`` are views into it shaped
    like layer i's weight matrix and bias.  ``neuron_keep`` covers
    hidden layers only.  A removed unit always has every incoming
    weight, outgoing weight, and its bias marked removed.  ``dims`` is
    the tuple of layer widths of the networks the mask fits.  A new mask
    keeps everything.
    """

    def __init__(self, dims):
        self.dims = tuple(dims)
        self.keep = np.ones(param_count(dims), dtype=bool)
        self.neuron_keep = [np.ones(n, dtype=bool) for n in dims[1:-1]]
        self.weight_keep, self.bias_keep = layer_views(self.keep, dims)

    def kept_count(self) -> int:
        return int(self.keep.sum())

    def total_count(self) -> int:
        return int(self.keep.size)

    def retention(self) -> float:
        return self.kept_count() / self.total_count()


def _unit_ids(sizes: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Layer and in-layer index of every hidden unit, layer by layer."""
    layers = np.repeat(np.arange(len(sizes)), sizes)
    units = np.concatenate([np.arange(n) for n in sizes])
    return layers, units


def _unit_slices(dims, offsets: list[int], layer: int, unit: int):
    """Flat slices of every entry tied to a hidden unit: its incoming
    column, its bias, and its outgoing row, in ascending flat order.
    ``offsets`` is ``layer_offsets(dims)``."""
    d_in, d_out, d_next = dims[layer : layer + 3]
    bias = offsets[layer] + d_in * d_out + unit
    row = offsets[layer + 1] + unit * d_next
    return (
        slice(offsets[layer] + unit, bias - unit, d_out),
        slice(bias, bias + 1, 1),
        slice(row, row + d_next, 1),
    )


def _target_kept(dims, omega: float) -> int:
    total = param_count(dims)
    k = math.floor(omega * total)
    n_out = dims[-1]
    if k < n_out:
        raise InfeasibleMaskError(
            f"retention {omega} needs {k} of {total} parameters, below the "
            f"{n_out} unmaskable output biases; minimum retention is "
            f"{n_out / total}",
            min_retention=n_out / total,
        )
    return k


def _removal_mask(dims, order, omega, magnitudes) -> Mask:
    """Removal loop shared by the unit-ranking builders: remove whole
    units in ``order`` (flat unit indices, layer by layer) while more
    than k = floor(omega * n) are kept, skip any removal that would
    empty a hidden layer, and trim single entries so the count is exact:
    of the unit whose removal would go below k, which then stays, or
    else of the whole network but its output biases.
    Trimming takes the smallest ``magnitudes`` first, ties and a None
    ``magnitudes`` going by ascending flat index."""
    k = _target_kept(dims, omega)
    mask = Mask(dims)
    kept = mask.total_count()

    def cheapest(idx: np.ndarray, need: int) -> np.ndarray:
        if magnitudes is not None:
            idx = idx[np.argsort(magnitudes[idx], kind="stable")]
        return idx[:need]

    offsets = layer_offsets(dims)
    units_left = list(dims[1:-1])
    layers, units = _unit_ids(units_left)
    for layer, unit in zip(layers[order].tolist(), units[order].tolist()):
        if kept <= k:
            break
        if units_left[layer] <= 1:
            continue
        idx = np.r_[_unit_slices(dims, offsets, layer, unit)]
        idx = idx[mask.keep[idx]]
        if kept - idx.size < k:
            mask.keep[cheapest(idx, kept - k)] = False
            return mask
        mask.keep[idx] = False
        kept -= idx.size
        mask.neuron_keep[layer][unit] = False
        units_left[layer] -= 1

    if kept > k:
        candidates = np.flatnonzero(mask.keep[: -dims[-1]])
        mask.keep[cheapest(candidates, kept - k)] = False
    return mask


def build_ballot_mask(
    ledger: ConflictLedger, omega: float, final_params: NetworkParams
) -> Mask:
    """Remove the most conflict-voted hidden units of ``final_params``
    first.

    Units are ranked by vote count (descending), then cumulative score
    (descending), then (layer, unit) as the final tie-break, so the mask
    depends on counts and scores only through that order; the stable
    ``np.lexsort`` keeps tied units in the flat, (layer, unit), order.
    The unit that would overshoot stays, its entries trimmed in
    ascending |final weight| order.
    """
    dims = final_params.dims
    if ledger.sizes != list(dims[1:-1]):
        raise ConfigurationError("ledger does not cover this network's hidden units")
    if not ledger.epochs:
        raise UsageError("ledger has no recorded epochs")

    order = np.lexsort((-ledger.cum_scores, -ledger.counts))
    magnitudes = np.abs(final_params.flat)
    return _removal_mask(dims, order, omega, magnitudes)


def build_random_mask(dims, omega: float, seed: int) -> Mask:
    """Remove hidden units of a network of layer widths ``dims`` in a
    seed-determined uniform random order; overshoot is trimmed in
    ascending flat-index order."""
    check_dims(dims)
    rng = np.random.default_rng(seed)
    order = rng.permutation(sum(dims[1:-1]))
    return _removal_mask(dims, order, omega, None)


def _repair_dead_layers(keep, flat, ranked, dims, omega, k) -> None:
    """Swap entries until every hidden layer has at least one kept
    entry.  Forced additions take the strongest excluded entry of the
    dead layer; the matching eviction takes the weakest kept entry that
    is not itself keeping some layer alive, so the total stays at k.

    The entries tied to hidden layer i's units, its weights and bias
    plus the next layer's weights, form one contiguous span; adjacent
    spans share the connecting weights."""
    offsets = layer_offsets(dims)
    spans = [
        slice(offsets[i], offsets[i + 2] - dims[i + 2])
        for i in range(len(dims) - 2)
    ]
    forced = np.zeros(keep.size, dtype=bool)
    for span in spans:
        if keep[span].any():
            continue
        add = span.start + int(np.argmax(np.abs(flat[span])))
        keep[add] = True
        forced[add] = True
        blocked = forced.copy()
        for s in spans:
            if int(keep[s].sum()) < 2:
                blocked[s] = True
        evictable = np.flatnonzero((keep & ~blocked)[ranked])
        if evictable.size == 0:
            floor = (dims[-1] + len(spans)) / keep.size
            raise InfeasibleMaskError(
                f"retention {omega} keeps {k} of {keep.size} parameters, "
                f"too few to keep every hidden layer alive; retention "
                f"{floor} is always feasible",
                min_retention=floor,
            )
        keep[ranked[evictable[-1]]] = False


def build_magnitude_mask(params: NetworkParams, omega: float) -> Mask:
    """Keep the globally largest-|value| entries, biases included, up to
    exactly floor(omega * n) kept parameters.  Ties break toward the
    lower flat index.  Output biases are exempt and always kept; unit
    keep flags are derived afterwards (a hidden unit is marked removed
    once every entry tied to it is removed).

    When the plain top-k selection would leave a hidden layer with no
    kept entry at all, the mask is repaired: the strongest excluded
    entry tied to that layer is kept and the weakest kept entry whose
    removal empties nothing is dropped, so the count stays exact.  If
    no such swap exists the retention is infeasible."""
    dims = params.dims
    k = _target_kept(dims, omega)
    mask = Mask(dims)
    if k == mask.total_count():
        return mask

    flat = params.flat
    if not np.isfinite(flat).all():
        raise NumericalFailure("non-finite parameter values")

    n_out = dims[-1]
    ranked = np.argsort(-np.abs(flat[:-n_out]), kind="stable")
    mask.keep[:-n_out] = False
    mask.keep[ranked[: k - n_out]] = True
    _repair_dead_layers(mask.keep, flat, ranked, dims, omega, k)
    _derive_units(mask)
    return mask


def _derive_units(mask: Mask) -> None:
    """Mark a hidden unit kept exactly when some entry tied to it is."""
    for i, units in enumerate(mask.neuron_keep):
        units[:] = (
            mask.weight_keep[i].any(axis=0)
            | mask.bias_keep[i]
            | mask.weight_keep[i + 1].any(axis=1)
        )


def identity_mask(dims) -> Mask:
    """A mask that keeps every parameter of a network of layer widths
    ``dims``."""
    check_dims(dims)
    return Mask(dims)


def save_mask(mask: Mask, path) -> None:
    """Write ``np.packbits(mask.keep)``, the flags in flat order.
    Missing parent directories are made; the file is replaced
    atomically."""
    with writing(path, "mask", "wb") as fh:
        fh.write(np.packbits(mask.keep).tobytes())


def load_mask(path, dims) -> Mask:
    """Read a ``save_mask`` file for a network of layer widths ``dims``,
    deriving the unit flags from the entries.  Raises PersistenceError
    when the file cannot be read, has the wrong length, sets a padding
    bit or removes an output bias."""
    check_dims(dims)
    mask = Mask(dims)
    n = mask.total_count()
    with reading(path, "mask", PersistenceError, "rb") as fh:
        raw = fh.read()
    if len(raw) != (n + 7) // 8:
        raise PersistenceError(f"mask {path} has {len(raw)} bytes, expected {(n + 7) // 8}")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8)).astype(bool)
    if bits[n:].any():
        raise PersistenceError(f"mask {path} sets a padding bit")
    mask.keep[:] = bits[:n]
    if not mask.bias_keep[-1].all():
        raise PersistenceError(f"mask {path} removes an output bias")
    _derive_units(mask)
    return mask
