"""Network init, masking, forward pass and SGD step, checkpoint
persistence."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    _unit_slices,
)
from ballot.metrics import evaluate, report_from_predictions
from ballot.model import (
    FORWARD_BLOCK_ROWS,
    LayerSpec,
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
    validate_specs,
)

from conftest import logits, net_from_layers, random_specs

SPECS_222 = [LayerSpec(2, 2, "relu"), LayerSpec(2, 2, "none")]


class TestSpecs:
    def test_param_count_2_4_3(self):
        specs = [LayerSpec(2, 4, "relu"), LayerSpec(4, 3, "none")]
        assert param_count(specs) == 27

    def test_param_count_matches_brute_force(self, rng):
        for _ in range(20):
            specs = random_specs(rng)
            params = init_network(specs, 0)
            by_hand = sum(w.size for w in params.weights) + sum(
                b.size for b in params.biases
            )
            assert param_count(specs) == by_hand == params.flat.size

    def test_nonconforming_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_specs([LayerSpec(2, 3, "relu"), LayerSpec(4, 2, "none")])
        with pytest.raises(ConfigurationError):
            validate_specs([LayerSpec(2, 3, "relu"), LayerSpec(3, 2, "relu")])
        with pytest.raises(ConfigurationError):
            validate_specs([])
        with pytest.raises(ConfigurationError):
            validate_specs([LayerSpec(2, 0, "none")])
        with pytest.raises(ConfigurationError, match="hidden layer 0"):
            validate_specs([LayerSpec(2, 3, "none"), LayerSpec(3, 2, "none")])

    def test_error_names_offending_layer(self):
        with pytest.raises(ConfigurationError, match="layer 1"):
            validate_specs([LayerSpec(2, 3, "relu"), LayerSpec(4, 2, "none")])


class TestInit:
    def test_same_seed_bit_identical(self):
        a = init_network(SPECS_222, 7)
        b = init_network(SPECS_222, 7)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        assert a.epoch_tag == 0 and a.seed == 7

    def test_different_seeds_differ_almost_everywhere(self):
        specs = [LayerSpec(8, 16, "relu"), LayerSpec(16, 4, "none")]
        for pair in range(10):
            a = init_network(specs, 2 * pair)
            b = init_network(specs, 2 * pair + 1)
            entries = np.concatenate([w.reshape(-1) for w in a.weights])
            other = np.concatenate([w.reshape(-1) for w in b.weights])
            assert (entries != other).mean() >= 0.99

    def test_bounds_and_zero_biases(self):
        params = init_network(SPECS_222, 3)
        for spec, w, b in zip(SPECS_222, params.weights, params.biases):
            lim = np.sqrt(6.0 / spec.d_in)
            assert (np.abs(w) <= lim).all()
            assert np.array_equal(b, np.zeros(spec.d_out))


class TestApplyMask:
    def test_masked_entries_become_positive_zero(self, rng):
        specs = random_specs(rng)
        params = init_network(specs, 11)
        params.weights[0][:] = -1.0
        mask = build_random_mask(specs, 0.5, 11)
        masked = apply_mask(params, mask)
        for got, was, keep in zip(masked.weights + masked.biases,
                                  params.weights + params.biases,
                                  mask.weight_keep + mask.bias_keep):
            assert (got[~keep] == 0.0).all()
            assert not np.signbit(got[~keep]).any()
            assert np.array_equal(got[keep], was[keep])

    def test_mask_for_other_specs_rejected(self):
        params = init_network(SPECS_222, 0)
        wider = [LayerSpec(2, 3, "relu"), LayerSpec(3, 2, "none")]
        with pytest.raises(ConfigurationError, match="mask shape does not match"):
            apply_mask(params, identity_mask(wider))
        deeper = [LayerSpec(2, 2, "relu")] + SPECS_222
        with pytest.raises(ConfigurationError, match="mask layer count"):
            apply_mask(params, identity_mask(deeper))


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
            specs = random_specs(rng, max_hidden_layers=3)
            total = param_count(specs)
            params = init_network(specs, trial)
            ledger = ConflictLedger([s.d_out for s in specs[:-1]])
            ledger.record_epoch(0, [rng.normal(size=s.d_out) for s in specs[:-1]],
                                [rng.normal(size=s.d_out) for s in specs[:-1]],
                                10.0, 0.5)
            while True:
                # some retentions are infeasible for magnitude; redraw them
                omega = float(rng.uniform(specs[-1].d_out / total + 0.1, 1.0))
                try:
                    masks = (build_ballot_mask(ledger, omega, params),
                             build_magnitude_mask(params, omega),
                             build_random_mask(specs, omega, trial))
                except InfeasibleMaskError:
                    continue
                break
            for mask in masks:
                masked = apply_mask(params, mask)
                small, keep = compact_network(masked, mask)
                live = brute_force_live(mask)
                assert [u.tolist() for u in live_units(mask)] == live
                ends = [list(range(specs[0].d_in)), *live,
                        list(range(specs[-1].d_out))]
                assert small.specs == [
                    LayerSpec(len(a), len(b), s.activation)
                    for a, b, s in zip(ends, ends[1:], specs)
                ]
                blocks = [np.ix_(a, b) for a, b in zip(ends, ends[1:])]
                for i, (block, cols) in enumerate(zip(blocks, ends[1:])):
                    w, b = masked.weights[i], masked.biases[i]
                    assert small.weights[i].tobytes() == w[block].tobytes()
                    assert small.biases[i].tobytes() == b[cols].tobytes()
                keep_w, keep_b = layer_views(keep, small.specs)
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
                other = apply_mask(init_network(specs, trial + 1000), mask)
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
            specs = random_specs(rng, max_hidden_layers=3)
            mask = build_random_mask(specs, float(rng.uniform(0.5, 1.0)), trial)
            masked = apply_mask(init_network(specs, trial), mask)
            live = [len(u) for u in live_units(mask)]
            widths = [n + int(rng.integers(0, 4)) for n in live]
            small, keep = compact_network(masked, mask)
            padded, padded_keep = compact_network(masked, mask, widths)
            assert [s.d_out for s in padded.specs[:-1]] == widths
            keep_w, keep_b = layer_views(padded_keep, padded.specs)
            small_keep_w, small_keep_b = layer_views(keep, small.specs)
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
        specs = [LayerSpec(3, 4, "relu"), LayerSpec(4, 2, "none")]
        mask = identity_mask(specs)
        mask.weight_keep[1][:] = False  # no unit has a kept outgoing weight
        masked = apply_mask(init_network(specs, 1), mask)
        small, keep = compact_network(masked, mask)
        assert small.specs == [LayerSpec(3, 0, "relu"), LayerSpec(0, 2, "none")]
        assert small.weights[0].shape == (3, 0) and small.weights[1].shape == (0, 2)
        x = np.ones((5, 3))
        assert logits(small, x, small.specs).tobytes() == \
            logits(masked, x, specs).tobytes()
        back = expand_network(small, masked.copy(), mask)
        for got, want in zip(back.weights + back.biases,
                             masked.weights + masked.biases):
            assert got.tobytes() == want.tobytes()

    def test_unmasked_network_compacts_to_the_bits_of_its_masked_copy(self):
        # retraining compacts its start network without masking it first:
        # the trimmed entries of the live part come out +0.0, padded or not
        rng = np.random.default_rng(43)
        for trial in range(30):
            specs = random_specs(rng, max_hidden_layers=3)
            params = init_network(specs, trial)
            params.flat += 1.0  # no entry, bias included, starts at zero
            mask = build_random_mask(specs, float(rng.uniform(0.3, 1.0)), trial)
            mask.keep &= rng.random(mask.keep.size) < 0.8  # trims inside live units
            widths = [len(u) + int(rng.integers(0, 3)) for u in live_units(mask)]
            for w in (None, widths):
                small, keep = compact_network(params, mask, w)
                want, want_keep = compact_network(apply_mask(params, mask), mask, w)
                assert small.specs == want.specs
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
        mask = identity_mask(SPECS_222)
        # remove hidden unit 1: its incoming column, bias, outgoing row
        mask.neuron_keep[0][1] = False
        mask.weight_keep[0][:, 1] = False
        mask.bias_keep[0][1] = False
        mask.weight_keep[1][1, :] = False
        x = np.array([[1.0, 1.0]])
        h0 = max(0.0, 1.0 * 1.0 + 1.0 * 3.0 + 0.5)
        expected = [[h0 * 5.0 + 0.0, h0 * 6.0 + 1.0]]
        np.testing.assert_array_equal(
            logits(apply_mask(params, mask), x, SPECS_222), expected
        )

    def test_shape_mismatch_rejected(self):
        params = init_network(SPECS_222, 0)
        split = Split(np.zeros((1, 3)), np.array([0]))
        with pytest.raises(ConfigurationError,
                           match="checkpoint expects 2 features, data has 3"):
            evaluate(params, split_blocks(split))

    def test_non_finite_params_fail_numerically(self):
        params = init_network(SPECS_222, 0)
        params.weights[0][0, 0] = np.inf
        with pytest.raises(NumericalFailure):
            evaluate(params, split_blocks(Split(np.ones((1, 2)), np.array([0]))))

    def test_blocked_pass_equals_one_unblocked_call(self, rng):
        specs = [LayerSpec(6, 40, "relu"), LayerSpec(40, 40, "relu"),
                 LayerSpec(40, 4, "none")]
        params = apply_mask(init_network(specs, 4), build_random_mask(specs, 0.5, 4))
        x = rng.normal(size=(2 * FORWARD_BLOCK_ROWS + 17, 6))
        split = Split(x, rng.integers(0, 4, x.shape[0]))
        bufs = block_buffers(specs, FORWARD_BLOCK_ROWS)
        blocked = np.concatenate([forward_block(params, block, bufs).copy()
                                  for block, _ in split_blocks(split)])
        whole = logits(params, x, specs)
        assert blocked.tobytes() == whole.tobytes()
        assert evaluate(params, split_blocks(split)) == \
            report_from_predictions(split.y, whole.argmax(axis=1), 4)

    def test_non_finite_in_late_block_fails_numerically(self):
        params = init_network(SPECS_222, 0)
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
        params = init_network(SPECS_222, 0)
        mask = identity_mask(SPECS_222)
        mask.weight_keep[0][0, 0] = False
        params = apply_mask(params, mask)
        stack = stack_params([params])
        stack.grad[...] = 1.0
        sgd_step(stack, 0.1 * mask.keep[None])
        assert params.weights[0][0, 0] == 0.0
        assert params.weights[0][1, 1] != 0.0

    def test_masked_entry_stays_positive_zero_under_any_gradient_sign(self):
        # a trimmed +0.0 entry under a gradient of +x, -x and -0.0 (one
        # slot each) steps by +-0.0 and stays bit-exact +0.0
        params = init_network(SPECS_222, 0)
        mask = identity_mask(SPECS_222)
        mask.weight_keep[0][0, 0] = False
        nets = [apply_mask(params, mask) for _ in range(3)]
        stack = stack_params(nets)
        stack.grad[...] = 0.25
        stack.grad_weights[0][:, 0, 0] = [0.25, -0.25, -0.0]
        sgd_step(stack, 0.1 * np.stack([mask.keep] * 3))
        for net in nets:
            assert net.weights[0][0, 0].tobytes() == np.float64(0.0).tobytes()
            assert net.weights[0][1, 1] != params.weights[0][1, 1]

    def test_zero_lr_is_bitwise_noop(self):
        params = init_network(SPECS_222, 5)
        before = [w.copy() for w in params.weights]
        stack = stack_params([params])
        stack.grad[...] = 0.3
        sgd_step(stack, 0.0)
        for w, b in zip(params.weights, before):
            assert np.array_equal(w, b)

    def test_non_finite_gradient_rejected(self):
        stack = stack_params([init_network(SPECS_222, 0)])
        stack.grad[...] = 1.0
        stack.grad_weights[0][0, 0, 0] = np.nan
        with pytest.raises(NumericalFailure):
            sgd_step(stack, 0.1)

    def test_non_finite_gradient_names_the_first_slot(self):
        # slot 1's bad entry is the last of its row, slot 2's the first
        stack = stack_params([init_network(SPECS_222, s) for s in range(3)])
        stack.grad[1, -1] = np.inf
        stack.grad[2, 0] = np.nan
        with pytest.raises(NumericalFailure) as caught:
            sgd_step(stack, 0.1)
        assert caught.value.index == 1

    def test_masked_steps_match_a_per_layer_loop(self, rng):
        # 50 masked steps on a stack of three; after each, the kept
        # entries equal w - lr * g computed layer by layer, and every
        # masked entry is +0.0, never -0.0
        specs = [LayerSpec(5, 9, "relu"), LayerSpec(9, 6, "relu"),
                 LayerSpec(6, 3, "none")]
        masks = [build_random_mask(specs, omega, s)
                 for s, omega in enumerate((0.3, 0.5, 0.8))]
        nets = [apply_mask(init_network(specs, 20 + r), m)
                for r, m in enumerate(masks)]
        stack = stack_params(nets)
        kept = np.stack([m.keep for m in masks])
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
            sgd_step(stack, lr * kept)
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
        specs = [LayerSpec(a, b, "relu") for a, b in zip(widths[:-2], widths[1:-1])]
        specs.append(LayerSpec(widths[-2], widths[-1], "none"))
        offsets = layer_offsets(specs)
        assert offsets[-1] == param_count(specs) == sum(
            s.d_in * s.d_out + s.d_out for s in specs)
        idx = np.arange(offsets[-1])
        weights, biases = layer_views(idx, specs)
        for s, w, b, base in zip(specs, weights, biases, offsets):
            w_end = base + s.d_in * s.d_out
            assert np.array_equal(w, np.arange(base, w_end).reshape(s.d_in, s.d_out))
            assert np.array_equal(b, np.arange(w_end, w_end + s.d_out))
        for layer, s in enumerate(specs[:-1]):
            for unit in range(s.d_out):
                got = [idx[sl] for sl in _unit_slices(specs, offsets, layer, unit)]
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
            specs = random_specs(rng, max_hidden_layers=3)
            masks = [build_random_mask(specs, float(rng.uniform(0.5, 1.0)), trial + r)
                     for r in range(3)]
            nets = [apply_mask(init_network(specs, 3 * trial + r), m)
                    for r, m in enumerate(masks)]
            payloads = [self._payload(p, tmp_path) for p in nets]
            stack = stack_params(nets)
            assert stack.flat.flags.c_contiguous and stack.flat.dtype == np.float64
            assert stack.flat.shape == stack.grad.shape == (3, param_count(specs))
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
        specs = [LayerSpec(3, 4, "relu"), LayerSpec(4, 2, "none")]
        mask = identity_mask(specs)
        mask.weight_keep[1][:] = False
        mask.weight_keep[0][0, :] = False
        masked = apply_mask(init_network(specs, 1), mask)
        small, keep = compact_network(masked, mask)
        assert small.specs[0].d_out == 0
        stack = stack_params([small])
        assert stack.flat.shape == (1, param_count(small.specs)) == (1, keep.size)
        # the checkpoint layout of the compacted network: only the output bias
        payload = b"".join(a.astype("<f8").tobytes()
                           for w, b in zip(small.weights, small.biases)
                           for a in (w, b))
        assert stack.flat[0].tobytes() == payload
        assert [w.shape for w in stack.weights] == [(1, 3, 0), (1, 0, 2)]
        assert np.array_equal(keep, [True, True])
        x, y = np.ones((1, 5, 3)), np.eye(2)[[0, 1, 0, 1, 1]][None]
        train_step(stack, x, y)
        sgd_step(stack, 0.1 * keep[None])
        assert np.array_equal(stack.grad[0], stack.grad_biases[-1][0])


class TestFlatBuffer:
    """Every network holds its values in one C-contiguous [P] float64
    buffer ``flat``, and its per-layer arrays are views into it."""

    @staticmethod
    def _views_of_flat(params):
        assert params.flat.flags.c_contiguous and params.flat.dtype == np.float64
        assert params.flat.shape == (param_count(params.specs),)
        for a in params.weights + params.biases:
            assert np.shares_memory(a, params.flat)

    def test_init_and_copy(self, rng):
        for trial in range(10):
            params = init_network(random_specs(rng, max_hidden_layers=3), trial)
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
            params = init_network(random_specs(rng, max_hidden_layers=3), trial)
            save_checkpoint(params, path)
            raw = path.read_bytes()
            loaded = load_checkpoint(path)
            self._views_of_flat(loaded)
            assert loaded.flat.tobytes() == raw[len(raw) - 8 * params.flat.size:]
            save_checkpoint(loaded, path)
            assert path.read_bytes() == raw

    def test_compacted_network(self, rng):
        for trial in range(10):
            specs = random_specs(rng, max_hidden_layers=3)
            mask = build_random_mask(specs, float(rng.uniform(0.5, 1.0)), trial)
            small, keep = compact_network(apply_mask(init_network(specs, trial), mask), mask)
            self._views_of_flat(small)
            assert keep.shape == small.flat.shape

    def test_stacked_networks_are_rows_of_the_stack(self, rng):
        specs = random_specs(rng, max_hidden_layers=3)
        nets = [init_network(specs, s) for s in range(3)]
        stack = stack_params(nets)
        for row, net in zip(stack.flat, nets):
            self._views_of_flat(net)
            assert net.flat.ctypes.data == row.ctypes.data and net.flat.shape == row.shape


class TestPlainFirst:
    def test_plain_step_equals_fair_step_without_means(self, rng):
        for _ in range(10):
            specs = random_specs(rng, max_hidden_layers=3)
            c = specs[-1].d_out
            params = init_network(specs, int(rng.integers(0, 2**31)))
            x = rng.normal(size=(2, 7, specs[0].d_in))
            y = np.eye(c)[rng.integers(0, c, (2, 7))]
            plain = stack_params([params.copy(), params.copy()])
            fair = stack_params([params.copy(), params.copy()])
            assert train_step(plain, x, y) is None
            means_a, means_f = train_step(fair, x, y, rng.uniform(0.5, 2.0, (2, c)))
            assert len(means_a) == len(means_f) == len(specs) - 1
            assert plain.grad.tobytes() == fair.grad.tobytes()


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        specs = [LayerSpec(3, 5, "relu"), LayerSpec(5, 2, "none")]
        params = init_network(specs, 99)
        params.weights[0][0, 0] = -0.0  # sign of zero must survive
        path = tmp_path / "net.ckpt"
        params.epoch_tag = 4
        save_checkpoint(params, path)
        ck = load_checkpoint(path)
        assert ck.epoch_tag == 4 and ck.seed == 99
        assert ck.specs == specs
        for a, b in zip(ck.weights, params.weights):
            assert np.array_equal(a, b) and a.dtype == np.float64
            assert np.signbit(a[0, 0]) == np.signbit(b[0, 0]) or a is not b
        for a, b in zip(ck.biases, params.biases):
            assert np.array_equal(a, b)

    def test_round_trip_many_random_networks(self, tmp_path, rng):
        path = tmp_path / "n.ckpt"
        for i in range(1000):
            specs = random_specs(rng)
            params = init_network(specs, i)
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
        specs = SPECS_222
        save_checkpoint(init_network(specs, 0), tmp_path / "c")
        ck = load_checkpoint(tmp_path / "c")
        ck.weights[0][0, 0] = 42.0  # must not raise

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        save_checkpoint(init_network(SPECS_222, 0), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(raw)
        with pytest.raises(PersistenceError, match="magic"):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "v.ckpt"
        save_checkpoint(init_network(SPECS_222, 0), path)
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
        raw = json.dumps(manifest).encode()
        path = tmp_path / "typed.ckpt"
        path.write_bytes(b"BLTC" + struct.pack("<I", 1) + struct.pack("<Q", len(raw))
                         + raw + np.zeros(8, dtype="<f8").tobytes())
        with pytest.raises(PersistenceError, match=f"field '{key}' missing or not an? "):
            load_checkpoint(path)

    def test_hidden_layer_without_relu_rejected(self, tmp_path):
        path = tmp_path / "linear.ckpt"
        save_checkpoint(init_network(SPECS_222, 0), path)
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b'"relu"', b'"none"', 1))
        with pytest.raises(PersistenceError, match="hidden layer 0"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_checkpoint(init_network(SPECS_222, 0), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(PersistenceError, match="trailing"):
            load_checkpoint(path)

    def test_truncated_manifest_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"BLTC" + struct.pack("<I", 1) + struct.pack("<Q", 500))
        with pytest.raises(PersistenceError, match="manifest"):
            load_checkpoint(path)
