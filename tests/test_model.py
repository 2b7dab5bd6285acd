"""Network init, masking, forward pass and SGD step, checkpoint
persistence."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballot.cli import main
from ballot.data import Split, split_blocks
from ballot.errors import (
    ConfigurationError,
    InfeasibleMaskError,
    NumericalFailure,
    PersistenceError,
)
from ballot.masks import (
    ConflictLedger,
    build_ballot_mask,
    build_magnitude_mask,
    build_random_mask,
    identity_mask,
    load_mask,
    _unit_slices,
)
from ballot.metrics import evaluate, report_from_predictions
from ballot.model import (
    FORWARD_BLOCK_ROWS,
    NetworkParams,
    apply_mask,
    compact_network,
    block_buffers,
    expand_network,
    forward_block,
    init_network,
    layer_offsets,
    layer_views,
    live_units,
    load_checkpoint,
    param_count,
    save_checkpoint,
    sgd_step,
    stack_params,
    train_step,
)

from conftest import logits, net_from_layers, random_dims

DIMS_222 = (2, 2, 2)


def write_checkpoint(path, manifest, payload=b""):
    """A checkpoint file of the JSON ``manifest`` and the raw ``payload``."""
    raw = json.dumps(manifest).encode()
    path.write_bytes(b"BLTC" + struct.pack("<I", 1) + struct.pack("<Q", len(raw))
                     + raw + payload)


class TestSpecs:
    def test_param_count_2_4_3(self):
        assert param_count((2, 4, 3)) == 27

    def test_param_count_matches_brute_force(self, rng):
        for _ in range(20):
            dims = random_dims(rng)
            params = init_network(dims, 0)
            by_hand = sum(w.size for w in params.weights) + sum(
                b.size for b in params.biases
            )
            assert param_count(dims) == by_hand == params.flat.size

    @pytest.mark.parametrize("dims, message", [
        ((), "network needs at least one layer"),
        ((3,), "network needs at least one layer"),
        ((0, 2), "layer 0 has non-positive dimensions"),
        ((3, 4, 0, 2), "layer 1 has non-positive dimensions"),
    ], ids=["empty", "one-width", "zero-input", "zero-hidden"])
    @pytest.mark.parametrize("entry", [
        lambda dims: init_network(dims, 0),
        identity_mask,
        lambda dims: build_random_mask(dims, 0.5, 0),
        lambda dims: load_mask("unread.bits", dims),
        lambda dims: save_checkpoint(
            NetworkParams(np.zeros(param_count(dims)), dims, 0), "unwritten.ckpt"),
    ], ids=["init_network", "identity_mask", "build_random_mask", "load_mask",
            "save_checkpoint"])
    def test_entry_points_reject_bad_dims(self, tmp_path, monkeypatch, entry, dims,
                                          message):
        # every public function given widths by its caller checks them
        # before it reads or writes anything
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            entry(dims)
        assert not any(tmp_path.iterdir())


class TestInit:
    def test_same_seed_bit_identical(self):
        a = init_network(DIMS_222, 7)
        b = init_network(DIMS_222, 7)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        assert a.epoch_tag == 0 and a.seed == 7

    def test_different_seeds_differ_almost_everywhere(self):
        dims = (8, 16, 4)
        for pair in range(10):
            a = init_network(dims, 2 * pair)
            b = init_network(dims, 2 * pair + 1)
            entries = np.concatenate([w.reshape(-1) for w in a.weights])
            other = np.concatenate([w.reshape(-1) for w in b.weights])
            assert (entries != other).mean() >= 0.99

    def test_bounds_and_zero_biases(self):
        params = init_network(DIMS_222, 3)
        for d_in, d_out, w, b in zip(DIMS_222, DIMS_222[1:], params.weights, params.biases):
            lim = np.sqrt(6.0 / d_in)
            assert (np.abs(w) <= lim).all()
            assert np.array_equal(b, np.zeros(d_out))


class TestApplyMask:
    def test_masked_entries_become_positive_zero(self, rng):
        dims = random_dims(rng)
        params = init_network(dims, 11)
        params.weights[0][:] = -1.0
        mask = build_random_mask(dims, 0.5, 11)
        masked = apply_mask(params, mask)
        for got, was, keep in zip(masked.weights + masked.biases,
                                  params.weights + params.biases,
                                  mask.weight_keep + mask.bias_keep):
            assert (got[~keep] == 0.0).all()
            assert not np.signbit(got[~keep]).any()
            assert np.array_equal(got[keep], was[keep])

    def test_mask_for_other_specs_rejected(self):
        params = init_network(DIMS_222, 0)
        for other in ((2, 3, 2), (2, 2, 2, 2)):  # wider, deeper
            with pytest.raises(ConfigurationError, match="mask shape does not match"):
                apply_mask(params, identity_mask(other))


def brute_force_live(mask) -> list[list[int]]:
    """Live hidden units by a loop over units: a kept incoming weight or
    kept bias, and a kept outgoing weight."""
    live = []
    for i in range(len(mask.weight_keep) - 1):
        live.append([
            u for u in range(mask.bias_keep[i].size)
            if (mask.weight_keep[i][:, u].any() or mask.bias_keep[i][u])
            and mask.weight_keep[i + 1][u, :].any()
        ])
    return live


class TestCompaction:
    def test_expand_of_compact_restores_the_masked_network(self, rng):
        dead_kept = 0
        for trial in range(40):
            dims = random_dims(rng, max_hidden_layers=3)
            total = param_count(dims)
            params = init_network(dims, trial)
            ledger = ConflictLedger(dims[1:-1])
            ledger.record_epoch(0, np.concatenate([rng.normal(size=n) for n in dims[1:-1]]),
                                np.concatenate([rng.normal(size=n) for n in dims[1:-1]]),
                                10.0, 0.5)
            while True:
                # some retentions are infeasible for magnitude; redraw them
                omega = float(rng.uniform(dims[-1] / total + 0.1, 1.0))
                try:
                    masks = (build_ballot_mask(ledger, omega, params),
                             build_magnitude_mask(params, omega),
                             build_random_mask(dims, omega, trial))
                except InfeasibleMaskError:
                    continue
                break
            for mask in masks:
                masked = apply_mask(params, mask)
                small, keep = compact_network(masked, mask)
                live = brute_force_live(mask)
                assert [u.tolist() for u in live_units(mask)] == live
                ends = [list(range(dims[0])), *live,
                        list(range(dims[-1]))]
                assert small.dims == tuple(map(len, ends))
                blocks = [np.ix_(a, b) for a, b in zip(ends, ends[1:])]
                for i, (block, cols) in enumerate(zip(blocks, ends[1:])):
                    w, b = masked.weights[i], masked.biases[i]
                    assert small.weights[i].tobytes() == w[block].tobytes()
                    assert small.biases[i].tobytes() == b[cols].tobytes()
                keep_w, keep_b = layer_views(keep, small.dims)
                for i, (block, cols) in enumerate(zip(blocks, ends[1:])):
                    assert np.array_equal(keep_w[i], mask.weight_keep[i][block])
                    assert np.array_equal(keep_b[i], mask.bias_keep[i][cols])
                dead_kept += int(mask.keep.sum()) - int(keep.sum())

                back = expand_network(small, masked.copy(), mask)
                for got, want in zip(back.weights + back.biases,
                                     masked.weights + masked.biases):
                    assert got.tobytes() == want.tobytes()

                # scattered onto another network: the live block is
                # overwritten and nothing else
                other = apply_mask(init_network(dims, trial + 1000), mask)
                out = expand_network(small, other.copy(), mask)
                for i, block in enumerate(blocks):
                    w, b = other.weights[i].copy(), other.biases[i].copy()
                    w[block] = masked.weights[i][block]
                    b[ends[i + 1]] = masked.biases[i][ends[i + 1]]
                    assert out.weights[i].tobytes() == w.tobytes()
                    assert out.biases[i].tobytes() == b.tobytes()
        assert dead_kept > 0  # kept entries outside the live units occurred

    def test_padding_units_are_dead_and_dropped_on_expand(self):
        # padded to random widths above the live counts: the live block
        # is the unpadded one, every padding entry is +0.0 and not kept,
        # and expanding restores the masked network exactly
        rng = np.random.default_rng(41)
        for trial in range(30):
            dims = random_dims(rng, max_hidden_layers=3)
            mask = build_random_mask(dims, float(rng.uniform(0.5, 1.0)), trial)
            masked = apply_mask(init_network(dims, trial), mask)
            live = [len(u) for u in live_units(mask)]
            widths = [n + int(rng.integers(0, 4)) for n in live]
            small, keep = compact_network(masked, mask)
            padded, padded_keep = compact_network(masked, mask, widths)
            assert list(padded.dims[1:-1]) == widths
            keep_w, keep_b = layer_views(padded_keep, padded.dims)
            small_keep_w, small_keep_b = layer_views(keep, small.dims)
            for i, (w, b) in enumerate(zip(small.weights, small.biases)):
                for got, got_keep, want, want_keep in (
                        (padded.weights[i], keep_w[i], w, small_keep_w[i]),
                        (padded.biases[i], keep_b[i], b, small_keep_b[i])):
                    live_part = tuple(slice(d) for d in want.shape)
                    assert got[live_part].tobytes() == want.tobytes()
                    assert np.array_equal(got_keep[live_part], want_keep)
                    pad = np.ones(got.shape, dtype=bool)
                    pad[live_part] = False
                    assert (got[pad] == 0.0).all() and not np.signbit(got[pad]).any()
                    assert not got_keep[pad].any()
            back = expand_network(padded, masked.copy(), mask)
            for got, want in zip(back.weights + back.biases,
                                 masked.weights + masked.biases):
                assert got.tobytes() == want.tobytes()

    def test_layer_may_compact_to_width_zero(self):
        dims = (3, 4, 2)
        mask = identity_mask(dims)
        mask.weight_keep[1][:] = False  # no unit has a kept outgoing weight
        masked = apply_mask(init_network(dims, 1), mask)
        small, keep = compact_network(masked, mask)
        assert small.dims == (3, 0, 2)
        assert small.weights[0].shape == (3, 0) and small.weights[1].shape == (0, 2)
        x = np.ones((5, 3))
        assert logits(small, x).tobytes() == logits(masked, x).tobytes()
        back = expand_network(small, masked.copy(), mask)
        for got, want in zip(back.weights + back.biases,
                             masked.weights + masked.biases):
            assert got.tobytes() == want.tobytes()

    def test_unmasked_network_compacts_to_the_bits_of_its_masked_copy(self):
        # retraining compacts its start network without masking it first:
        # the trimmed entries of the live part come out +0.0, padded or not
        rng = np.random.default_rng(43)
        for trial in range(30):
            dims = random_dims(rng, max_hidden_layers=3)
            params = init_network(dims, trial)
            params.flat += 1.0  # no entry, bias included, starts at zero
            mask = build_random_mask(dims, float(rng.uniform(0.3, 1.0)), trial)
            mask.keep &= rng.random(mask.keep.size) < 0.8  # trims inside live units
            widths = [len(u) + int(rng.integers(0, 3)) for u in live_units(mask)]
            for w in (None, widths):
                small, keep = compact_network(params, mask, w)
                want, want_keep = compact_network(apply_mask(params, mask), mask, w)
                assert small.dims == want.dims
                assert small.flat.tobytes() == want.flat.tobytes()
                assert np.array_equal(keep, want_keep)
                trimmed = small.flat[~keep]
                assert (trimmed == 0.0).all() and not np.signbit(trimmed).any()


class TestForward:
    def test_hand_masked_2_2_2(self):
        params = net_from_layers(
            weights=[np.array([[1.0, 2.0], [3.0, 4.0]]),
                     np.array([[5.0, 6.0], [7.0, 8.0]])],
            biases=[np.array([0.5, -0.5]), np.array([0.0, 1.0])])
        mask = identity_mask(DIMS_222)
        # remove hidden unit 1: its incoming column, bias, outgoing row
        mask.neuron_keep[0][1] = False
        mask.weight_keep[0][:, 1] = False
        mask.bias_keep[0][1] = False
        mask.weight_keep[1][1, :] = False
        x = np.array([[1.0, 1.0]])
        h0 = max(0.0, 1.0 * 1.0 + 1.0 * 3.0 + 0.5)
        expected = [[h0 * 5.0 + 0.0, h0 * 6.0 + 1.0]]
        np.testing.assert_array_equal(
            logits(apply_mask(params, mask), x), expected
        )

    def test_shape_mismatch_rejected(self):
        params = init_network(DIMS_222, 0)
        split = Split(np.zeros((1, 3)), np.array([0]))
        with pytest.raises(ConfigurationError,
                           match="checkpoint expects 2 features, data has 3"):
            evaluate(params, split_blocks(split))

    def test_non_finite_params_fail_numerically(self):
        params = init_network(DIMS_222, 0)
        params.weights[0][0, 0] = np.inf
        with pytest.raises(NumericalFailure):
            evaluate(params, split_blocks(Split(np.ones((1, 2)), np.array([0]))))

    def test_blocked_pass_equals_one_unblocked_call(self, rng):
        dims = (6, 40, 40, 4)
        params = apply_mask(init_network(dims, 4), build_random_mask(dims, 0.5, 4))
        x = rng.normal(size=(2 * FORWARD_BLOCK_ROWS + 17, 6))
        split = Split(x, rng.integers(0, 4, x.shape[0]))
        bufs = block_buffers(dims, FORWARD_BLOCK_ROWS)
        blocked = np.concatenate([forward_block(params, block, bufs).copy()
                                  for block, _ in split_blocks(split)])
        whole = logits(params, x)
        assert blocked.tobytes() == whole.tobytes()
        assert evaluate(params, split_blocks(split)) == \
            report_from_predictions(split.y, whole.argmax(axis=1), 4)

    def test_non_finite_in_late_block_fails_numerically(self):
        params = init_network(DIMS_222, 0)
        x = np.ones((3 * FORWARD_BLOCK_ROWS, 2))
        x[-1, 0] = np.inf
        split = Split(x, np.zeros(x.shape[0], dtype=np.int64))
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalFailure, match="forward pass"):
                evaluate(params, split_blocks(split))


class TestSgdStep:
    def test_hand_example(self):
        params = net_from_layers(
            weights=[np.array([[1.0]])], biases=[np.array([0.0])])
        stack = stack_params([params])
        stack.grad_weights[0][...] = 0.5
        stack.grad_biases[0][...] = 0.0
        sgd_step(stack, 0.1)
        assert params.weights[0][0, 0] == 0.95

    def test_masked_entry_stays_zero(self):
        params = init_network(DIMS_222, 0)
        mask = identity_mask(DIMS_222)
        mask.weight_keep[0][0, 0] = False
        params = apply_mask(params, mask)
        stack = stack_params([params], [mask.keep])
        stack.grad[...] = 1.0
        sgd_step(stack, 0.1)
        assert params.weights[0][0, 0] == 0.0
        assert params.weights[0][1, 1] != 0.0

    def test_masked_entry_stays_positive_zero_under_any_gradient_sign(self):
        # a trimmed +0.0 entry under a gradient of +x, -x and -0.0 (one
        # slot each) steps by +-0.0 and stays bit-exact +0.0
        params = init_network(DIMS_222, 0)
        mask = identity_mask(DIMS_222)
        mask.weight_keep[0][0, 0] = False
        nets = [apply_mask(params, mask) for _ in range(3)]
        stack = stack_params(nets, [mask.keep] * 3)
        stack.grad[...] = 0.25
        stack.grad_weights[0][:, 0, 0] = [0.25, -0.25, -0.0]
        sgd_step(stack, 0.1)
        for net in nets:
            assert net.weights[0][0, 0].tobytes() == np.float64(0.0).tobytes()
            assert net.weights[0][1, 1] != params.weights[0][1, 1]

    def test_zero_lr_is_bitwise_noop(self):
        params = init_network(DIMS_222, 5)
        before = [w.copy() for w in params.weights]
        stack = stack_params([params])
        stack.grad[...] = 0.3
        sgd_step(stack, 0.0)
        for w, b in zip(params.weights, before):
            assert np.array_equal(w, b)

    def test_non_finite_gradient_rejected(self):
        stack = stack_params([init_network(DIMS_222, 0)])
        stack.grad[...] = 1.0
        stack.grad_weights[0][0, 0, 0] = np.nan
        with pytest.raises(NumericalFailure):
            sgd_step(stack, 0.1)

    def test_non_finite_gradient_names_the_first_slot(self):
        # slot 1's bad entry is the last of its row, slot 2's the first
        stack = stack_params([init_network(DIMS_222, s) for s in range(3)])
        stack.grad[1, -1] = np.inf
        stack.grad[2, 0] = np.nan
        with pytest.raises(NumericalFailure) as caught:
            sgd_step(stack, 0.1)
        assert caught.value.index == 1

    def test_masked_steps_match_a_per_layer_loop(self, rng):
        # 50 masked steps on a stack of three; after each, the kept
        # entries equal w - lr * g computed layer by layer, and every
        # masked entry is +0.0, never -0.0
        dims = (5, 9, 6, 3)
        masks = [build_random_mask(dims, omega, s)
                 for s, omega in enumerate((0.3, 0.5, 0.8))]
        nets = [apply_mask(init_network(dims, 20 + r), m)
                for r, m in enumerate(masks)]
        stack = stack_params(nets, [m.keep for m in masks])
        kept = stack.keep
        x = rng.normal(size=(3, 40, 5))
        y = np.eye(3)[rng.integers(0, 3, (3, 40))]
        moved = np.zeros(kept.shape, dtype=bool)
        for step in range(50):
            lr = 0.5 if step < 25 else 0.05
            train_step(stack, x, y)
            grads = stack.grad_weights + stack.grad_biases
            want = [[w - lr * g[r] for w, g in zip(net.weights + net.biases, grads)]
                    for r, net in enumerate(nets)]
            moved |= (stack.grad != 0.0) & ~kept
            sgd_step(stack, lr)
            for net, m, expected in zip(nets, masks, want):
                for got, exp, keep in zip(net.weights + net.biases, expected,
                                          m.weight_keep + m.bias_keep):
                    assert got[keep].tobytes() == exp[keep].tobytes()
                    assert (got[~keep] == 0.0).all()
                    assert not np.signbit(got[~keep]).any()
        assert moved.any()  # masked entries did get gradients


class TestFlatLayout:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 9), min_size=2, max_size=5))
    def test_offsets_views_and_unit_slices_agree(self, widths):
        """``layer_offsets`` places every weight and bias where
        ``layer_views`` finds it, and a hidden unit's ``_unit_slices``
        are exactly its incoming column, bias and outgoing row."""
        dims = tuple(widths)
        offsets = layer_offsets(dims)
        assert offsets[-1] == param_count(dims) == sum(
            a * b + b for a, b in zip(dims, dims[1:]))
        idx = np.arange(offsets[-1])
        weights, biases = layer_views(idx, dims)
        for d_in, d_out, w, b, base in zip(dims, dims[1:], weights, biases, offsets):
            w_end = base + d_in * d_out
            assert np.array_equal(w, np.arange(base, w_end).reshape(d_in, d_out))
            assert np.array_equal(b, np.arange(w_end, w_end + d_out))
        for layer, width in enumerate(dims[1:-1]):
            for unit in range(width):
                got = [idx[sl] for sl in _unit_slices(dims, offsets, layer, unit)]
                want = [weights[layer][:, unit], biases[layer][unit:unit + 1],
                        weights[layer + 1][unit]]
                assert all(np.array_equal(g, v) for g, v in zip(got, want))

    def _payload(self, params, tmp_path):
        """The float64 payload ``save_checkpoint`` writes: every byte
        after the manifest."""
        path = tmp_path / "net.ckpt"
        save_checkpoint(params, path)
        raw = path.read_bytes()
        (mlen,) = struct.unpack_from("<Q", raw, 8)
        return raw[16 + mlen:]

    def test_rows_are_checkpoint_payloads(self, rng, tmp_path):
        for trial in range(20):
            dims = random_dims(rng, max_hidden_layers=3)
            masks = [build_random_mask(dims, float(rng.uniform(0.5, 1.0)), trial + r)
                     for r in range(3)]
            nets = [apply_mask(init_network(dims, 3 * trial + r), m)
                    for r, m in enumerate(masks)]
            payloads = [self._payload(p, tmp_path) for p in nets]
            stack = stack_params(nets)
            assert stack.flat.flags.c_contiguous and stack.flat.dtype == np.float64
            assert stack.flat.shape == stack.grad.shape == (3, param_count(dims))
            for row, payload, net, m in zip(stack.flat, payloads, nets, masks):
                assert row.astype("<f8").tobytes() == payload
                # the network's arrays are views of its row
                assert all(np.shares_memory(a, stack.flat)
                           for a in net.weights + net.biases)
                # Mask.keep indexes the same entries, in the same order
                kept = np.concatenate([
                    np.concatenate([w[wk], b[bk]])
                    for w, b, wk, bk in zip(net.weights, net.biases,
                                            m.weight_keep, m.bias_keep)
                ])
                assert row[m.keep].tobytes() == kept.tobytes()
                assert not row[~m.keep].any()

    def test_width_zero_layer(self):
        dims = (3, 4, 2)
        mask = identity_mask(dims)
        mask.weight_keep[1][:] = False
        mask.weight_keep[0][0, :] = False
        masked = apply_mask(init_network(dims, 1), mask)
        small, keep = compact_network(masked, mask)
        assert small.dims[1] == 0
        stack = stack_params([small], [keep])
        assert stack.flat.shape == (1, param_count(small.dims)) == (1, keep.size)
        # the checkpoint layout of the compacted network: only the output bias
        payload = b"".join(a.astype("<f8").tobytes()
                           for w, b in zip(small.weights, small.biases)
                           for a in (w, b))
        assert stack.flat[0].tobytes() == payload
        assert [w.shape for w in stack.weights] == [(1, 3, 0), (1, 0, 2)]
        assert np.array_equal(keep, [True, True])
        x, y = np.ones((1, 5, 3)), np.eye(2)[[0, 1, 0, 1, 1]][None]
        train_step(stack, x, y)
        sgd_step(stack, 0.1)
        assert np.array_equal(stack.grad[0], stack.grad_biases[-1][0])


class TestFlatBuffer:
    """Every network holds its values in one C-contiguous [P] float64
    buffer ``flat``, and its per-layer arrays are views into it."""

    @staticmethod
    def _views_of_flat(params):
        assert params.flat.flags.c_contiguous and params.flat.dtype == np.float64
        assert params.flat.shape == (param_count(params.dims),)
        for a in params.weights + params.biases:
            assert np.shares_memory(a, params.flat)

    def test_init_and_copy(self, rng):
        for trial in range(10):
            params = init_network(random_dims(rng, max_hidden_layers=3), trial)
            self._views_of_flat(params)
            copied = params.copy()
            self._views_of_flat(copied)
            assert not np.shares_memory(copied.flat, params.flat)
            assert copied.flat.tobytes() == params.flat.tobytes()

    def test_load_checkpoint_round_trips_the_buffer(self, rng, tmp_path):
        # save -> load -> save is byte-identical, and the loaded buffer
        # is the file's tail
        path = tmp_path / "net.ckpt"
        for trial in range(10):
            params = init_network(random_dims(rng, max_hidden_layers=3), trial)
            save_checkpoint(params, path)
            raw = path.read_bytes()
            loaded = load_checkpoint(path)
            self._views_of_flat(loaded)
            assert loaded.flat.tobytes() == raw[len(raw) - 8 * params.flat.size:]
            save_checkpoint(loaded, path)
            assert path.read_bytes() == raw

    def test_compacted_network(self, rng):
        for trial in range(10):
            dims = random_dims(rng, max_hidden_layers=3)
            mask = build_random_mask(dims, float(rng.uniform(0.5, 1.0)), trial)
            small, keep = compact_network(apply_mask(init_network(dims, trial), mask), mask)
            self._views_of_flat(small)
            assert keep.shape == small.flat.shape

    def test_stacked_networks_are_rows_of_the_stack(self, rng):
        dims = random_dims(rng, max_hidden_layers=3)
        nets = [init_network(dims, s) for s in range(3)]
        stack = stack_params(nets)
        for row, net in zip(stack.flat, nets):
            self._views_of_flat(net)
            assert net.flat.ctypes.data == row.ctypes.data and net.flat.shape == row.shape


class TestPlainFirst:
    def test_plain_step_equals_fair_step_without_means(self, rng):
        for _ in range(10):
            dims = random_dims(rng, max_hidden_layers=3)
            c = dims[-1]
            params = init_network(dims, int(rng.integers(0, 2**31)))
            x = rng.normal(size=(2, 7, dims[0]))
            y = np.eye(c)[rng.integers(0, c, (2, 7))]
            plain = stack_params([params.copy(), params.copy()])
            fair = stack_params([params.copy(), params.copy()])
            assert train_step(plain, x, y) is None
            means = train_step(fair, x, y, rng.uniform(0.5, 2.0, (2, c)))
            assert means.shape == (2, 2, sum(dims[1:-1]))
            assert plain.grad.tobytes() == fair.grad.tobytes()


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        dims = (3, 5, 2)
        params = init_network(dims, 99)
        params.weights[0][0, 0] = -0.0  # sign of zero must survive
        path = tmp_path / "net.ckpt"
        params.epoch_tag = 4
        save_checkpoint(params, path)
        ck = load_checkpoint(path)
        assert ck.epoch_tag == 4 and ck.seed == 99
        assert ck.dims == dims
        for a, b in zip(ck.weights, params.weights):
            assert np.array_equal(a, b) and a.dtype == np.float64
            assert np.signbit(a[0, 0]) == np.signbit(b[0, 0]) or a is not b
        for a, b in zip(ck.biases, params.biases):
            assert np.array_equal(a, b)

    def test_round_trip_many_random_networks(self, tmp_path, rng):
        path = tmp_path / "n.ckpt"
        for i in range(1000):
            dims = random_dims(rng)
            params = init_network(dims, i)
            params.epoch_tag = i
            save_checkpoint(params, path)
            back = load_checkpoint(path)
            ok = all(
                np.array_equal(a, b) for a, b in zip(back.weights, params.weights)
            ) and all(
                np.array_equal(a, b) for a, b in zip(back.biases, params.biases)
            )
            assert ok

    def test_loaded_params_are_writable(self, tmp_path):
        dims = DIMS_222
        save_checkpoint(init_network(dims, 0), tmp_path / "c")
        ck = load_checkpoint(tmp_path / "c")
        ck.weights[0][0, 0] = 42.0  # must not raise

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        save_checkpoint(init_network(DIMS_222, 0), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(raw)
        with pytest.raises(PersistenceError, match="magic"):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "v.ckpt"
        save_checkpoint(init_network(DIMS_222, 0), path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 9)
        path.write_bytes(raw)
        with pytest.raises(PersistenceError, match="version"):
            load_checkpoint(path)

    def test_mismatched_manifest_names_layer(self, tmp_path):
        # manifest declares a larger layer 1 than the payload provides
        manifest = json.dumps(
            {
                "layers": [
                    {"d_in": 2, "d_out": 2, "activation": "relu"},
                    {"d_in": 2, "d_out": 3, "activation": "none"},
                ],
                "seed": 0,
                "epoch": 0,
            },
            sort_keys=True,
        ).encode()
        payload = np.zeros(2 * 2 + 2 + 2 * 3, dtype="<f8").tobytes()  # bias short
        path = tmp_path / "mismatch.ckpt"
        path.write_bytes(
            b"BLTC" + struct.pack("<I", 1) + struct.pack("<Q", len(manifest))
            + manifest + payload
        )
        with pytest.raises(PersistenceError,
                           match="truncated parameters: 96 bytes, expected 120"):
            load_checkpoint(path)

    @pytest.mark.parametrize("layer_field, key, value", [
        (True, "d_in", 3.9), (True, "d_in", "3"), (True, "d_out", 2.0),
        (True, "activation", None), (False, "seed", True), (False, "epoch", True),
    ], ids=["d_in-float", "d_in-string", "d_out-float", "activation-null", "seed-bool",
            "epoch-bool"])
    def test_manifest_field_of_wrong_type_rejected(self, tmp_path, layer_field, key, value):
        # a float, a numeric string or a bool is no integer, and the
        # activation must be a string
        layer = {"d_in": 3, "d_out": 2, "activation": "none"}
        manifest = {"layers": [layer], "seed": 0, "epoch": 0}
        (layer if layer_field else manifest)[key] = value
        path = tmp_path / "typed.ckpt"
        write_checkpoint(path, manifest, np.zeros(8, dtype="<f8").tobytes())
        with pytest.raises(PersistenceError, match=f"field '{key}' missing or not an? "):
            load_checkpoint(path)

    @pytest.mark.parametrize("layers, message", [
        ([], "network needs at least one layer"),
        ([(3, 0, "relu"), (0, 2, "none")], "layer 0 has non-positive dimensions"),
        ([(2, 3, "relu"), (4, 2, "none")], "layer 1 d_in 4 does not match layer 0 d_out 3"),
        ([(2, 3, "relu"), (3, 2, "relu")], "output layer must use activation 'none'"),
    ], ids=["empty", "zero-width", "chain", "output-relu"])
    def test_invalid_manifest_layers_rejected(self, tmp_path, capsys, layers, message):
        # the manifest is outside input: each rule names what it refuses,
        # and ``ballot evaluate`` exits 2 with that message
        path = tmp_path / "layers.ckpt"
        write_checkpoint(path, {
            "layers": [{"d_in": a, "d_out": b, "activation": act} for a, b, act in layers],
            "seed": 0, "epoch": 0})
        want = f"manifest layers invalid: {message}"
        with pytest.raises(PersistenceError, match=f"^{want}$"):
            load_checkpoint(path)
        (tmp_path / "c.json").write_text("{}")
        code = main(["evaluate", "--checkpoint", str(path),
                     "--data", str(tmp_path / "c.json"), "--out", str(tmp_path / "e.json")])
        assert code == 2
        assert capsys.readouterr().err == f"ballot: data error: {want}\n"

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 9), min_size=2, max_size=5), st.integers(0, 2**31))
    def test_round_trip_keeps_dims_and_writes_activations_by_position(
            self, tmp_path_factory, widths, seed):
        dims = tuple(widths)
        path = tmp_path_factory.getbasetemp() / "dims.ckpt"
        save_checkpoint(init_network(dims, seed), path)
        raw = path.read_bytes()
        (mlen,) = struct.unpack_from("<Q", raw, 8)
        layers = json.loads(raw[16 : 16 + mlen])["layers"]
        assert [(r["d_in"], r["d_out"]) for r in layers] == list(zip(dims, dims[1:]))
        assert [r["activation"] for r in layers] == ["relu"] * (len(dims) - 2) + ["none"]
        assert load_checkpoint(path).dims == dims

    def test_hidden_layer_without_relu_rejected(self, tmp_path):
        path = tmp_path / "linear.ckpt"
        save_checkpoint(init_network(DIMS_222, 0), path)
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b'"relu"', b'"none"', 1))
        with pytest.raises(PersistenceError, match="hidden layer 0"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_checkpoint(init_network(DIMS_222, 0), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(PersistenceError, match="trailing"):
            load_checkpoint(path)

    def test_truncated_manifest_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"BLTC" + struct.pack("<I", 1) + struct.pack("<Q", 500))
        with pytest.raises(PersistenceError, match="manifest"):
            load_checkpoint(path)
