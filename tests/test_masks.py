"""Conflict scoring, vote bookkeeping, and the four mask builders."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballot.errors import (
    ConfigurationError,
    InfeasibleMaskError,
    NumericalFailure,
    PersistenceError,
    UsageError,
)
from ballot.masks import (
    ConflictLedger,
    Mask,
    _removal_mask,
    _target_kept,
    _unit_ids,
    _unit_slices,
    build_ballot_mask,
    build_magnitude_mask,
    build_random_mask,
    conflict_scores,
    identity_mask,
    load_mask,
    positive_score_threshold,
    save_mask,
)
from ballot.model import init_network, layer_offsets, param_count

from conftest import net_from_layers, random_dims

# the 17-parameter reference net: 3 hidden units, 5 entries per unit
DIMS_232 = (2, 3, 2)


def params_for(dims, seed=0):
    return init_network(dims, seed)


def roundtrip(mask, dims, path):
    """Save and load ``mask``; the flags come back exactly and each unit
    flag is set exactly when some entry tied to the unit is kept."""
    save_mask(mask, path)
    assert path.stat().st_size == math.ceil(param_count(dims) / 8)
    back = load_mask(path, dims)
    assert np.array_equal(back.keep, mask.keep)
    for i, units in enumerate(back.neuron_keep):
        tied = (back.weight_keep[i].any(axis=0) | back.bias_keep[i]
                | back.weight_keep[i + 1].any(axis=1))
        assert np.array_equal(units, tied)
    return back


def ledger_with_votes(per_epoch_units, sizes=(3,), eta=0.5):
    """Record one epoch per entry; each entry maps unit -> score for the
    first hidden layer, whose units lead the flat order.  Tied scores
    within an epoch are all counted, so vote patterns are fully
    controlled."""
    led = ConflictLedger(list(sizes))
    for epoch, unit_scores in enumerate(per_epoch_units):
        g_a = np.zeros(sum(sizes))
        g_f = np.zeros(sum(sizes))
        for unit, score in unit_scores.items():
            g_a[unit] = score / 2.0
            g_f[unit] = -score / 2.0  # gamma=1: |a| + |f| = score
        led.record_epoch(epoch, g_a, g_f, gamma=1.0, eta=eta)
    return led


class TestConflictScores:
    def test_opposed_signs_hand_example(self):
        s = conflict_scores([0.3], [-0.02], gamma=10.0)
        assert s[0] == 0.5

    def test_same_sign_scores_zero(self):
        s = conflict_scores([0.3, -0.1], [0.02, -0.5], gamma=10.0)
        assert np.array_equal(s, [0.0, 0.0])

    def test_zero_gradient_is_not_conflict(self):
        s = conflict_scores([0.0, 0.3], [0.5, 0.0], gamma=10.0)
        assert np.array_equal(s, [0.0, 0.0])

    def test_strictly_positive_on_opposite_nonzero(self, rng):
        a = rng.uniform(1e-12, 1.0, 100)
        f = -rng.uniform(1e-12, 1.0, 100)
        assert (conflict_scores(a, f, 0.5) > 0.0).all()

    def test_scale_cancellation_power_of_two(self, rng):
        a = rng.normal(size=50)
        f = rng.normal(size=50)
        base = conflict_scores(a, f, gamma=10.0)
        for c in (2.0, 0.25, 1024.0):
            assert np.array_equal(conflict_scores(a, c * f, 10.0 / c), base)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            conflict_scores([1.0, 2.0], [1.0], 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(NumericalFailure):
            conflict_scores([np.nan], [1.0], 1.0)


class TestThreshold:
    def test_forty_positive_scores_top_two(self):
        scores = np.arange(1.0, 41.0)
        thr = positive_score_threshold(scores, eta=0.95)
        assert thr == 39.0
        assert int((scores >= thr).sum()) == 2

    def test_no_positive_scores_gives_none(self):
        assert positive_score_threshold(np.zeros(5), 0.95) is None

    def test_matches_sort_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 60))
            scores = np.where(
                rng.random(n) < 0.4, 0.0, rng.uniform(0.01, 5.0, n)
            )
            eta = float(rng.uniform(0.05, 0.95))
            got = positive_score_threshold(scores, eta)
            pos = sorted(s for s in scores if s > 0.0)
            if not pos:
                assert got is None
            else:
                idx = min(math.ceil(eta * len(pos)), len(pos) - 1)
                assert got == pos[idx]


class TestLedger:
    @pytest.mark.parametrize("sizes, want", [
        (np.array([64, 64]), [64, 64]),
        ((np.int64(3), 2), [3, 2]),
        ([2.7], None),
        ([2.0], None),
        (np.array([2.5]), None),
        ([True], None),
        ([0], None),
        ([], None),
    ])
    def test_sizes_are_positive_integers(self, sizes, want):
        # any sequence of integers, NumPy's included, is held as a list
        # of Python ints; a fraction is never truncated
        if want is None:
            with pytest.raises(ConfigurationError, match="positive integers"):
                ConflictLedger(sizes)
        else:
            led = ConflictLedger(sizes)
            assert led.sizes == want and all(type(s) is int for s in led.sizes)
            assert led.counts.shape == led.cum_scores.shape == (sum(want),)

    def test_counts_and_cum_scores(self):
        led = ledger_with_votes(
            [{0: 1.0, 1: 1.0}, {0: 1.0, 1: 1.0}, {0: 2.0}, {0: 2.0}, {0: 2.0}]
        )
        assert led.counts.tolist() == [5, 2, 0]
        assert led.cum_scores.tolist() == [8.0, 2.0, 0.0]
        assert led.epochs == [0, 1, 2, 3, 4]

    def test_duplicate_epoch_rejected(self):
        led = ConflictLedger([3])
        led.record_epoch(0, np.ones(3), -np.ones(3), 1.0, 0.5)
        with pytest.raises(UsageError):
            led.record_epoch(0, np.ones(3), -np.ones(3), 1.0, 0.5)

    def test_count_bounded_by_epochs(self, rng):
        led = ConflictLedger([6])
        for e in range(7):
            led.record_epoch(
                e, rng.normal(size=6), rng.normal(size=6), 2.0, 0.6
            )
        assert (led.counts <= 7).all()

    def test_layer_shape_mismatch_rejected(self):
        led = ConflictLedger([3])
        with pytest.raises(ConfigurationError, match="cover the 3 hidden units"):
            led.record_epoch(0, np.ones(2), np.ones(2), 1.0, 0.5)
        # per-layer lists are not the flat vector, even when they hold
        # every unit
        with pytest.raises(ConfigurationError, match=r"got shapes \(1, 3\)"):
            led.record_epoch(0, [np.ones(3)], [np.ones(3)], 1.0, 0.5)
        with pytest.raises(ConfigurationError, match=r"\(3,\) and \(2,\)"):
            led.record_epoch(0, np.ones(3), np.ones(2), 1.0, 0.5)
        assert led.epochs == []


class TestBallotMask:
    def test_omega_one_keeps_everything(self):
        led = ledger_with_votes([{0: 1.0}])
        mask = build_ballot_mask(led, 1.0, params_for(DIMS_232))
        assert mask.kept_count() == 17
        assert all(k.all() for k in mask.neuron_keep)

    def test_highest_count_removed_first(self):
        led = ledger_with_votes(
            [{0: 1.0, 1: 1.0}, {0: 1.0, 1: 1.0}, {0: 2.0}, {0: 2.0}, {0: 2.0}]
        )  # counts [5, 2, 0]
        mask = build_ballot_mask(led, 0.72, params_for(DIMS_232))
        assert mask.neuron_keep[0].tolist() == [False, True, True]
        assert mask.kept_count() == 12
        assert mask.retention() == 12 / 17

    def test_brute_force_single_removal_oracle(self):
        # every single-unit removal reaches 12/17; the builder must pick
        # the unit a brute-force max-count scan picks
        led = ledger_with_votes(
            [{1: 1.0, 2: 1.0}, {1: 1.0, 2: 1.0}, {1: 3.0}, {1: 3.0}]
        )  # counts [0, 4, 2]
        best = max(range(3), key=lambda u: led.counts[u])
        mask = build_ballot_mask(led, 0.72, params_for(DIMS_232))
        removed = [u for u in range(3) if not mask.neuron_keep[0][u]]
        assert removed == [best]

    def test_cum_score_breaks_count_ties(self):
        led = ledger_with_votes(
            [{0: 1.0}, {1: 2.0}, {0: 1.0}, {1: 2.0}, {0: 1.0}, {1: 2.0}]
        )  # counts [3, 3, 0], cums [3, 6, 0]
        mask = build_ballot_mask(led, 0.72, params_for(DIMS_232))
        assert mask.neuron_keep[0].tolist() == [True, False, True]

    def test_layer_unit_breaks_full_ties(self):
        led = ledger_with_votes([{0: 1.0, 1: 1.0}])  # identical votes
        mask = build_ballot_mask(led, 0.72, params_for(DIMS_232))
        assert mask.neuron_keep[0].tolist() == [False, True, True]

    def test_ranking_invariance_under_cum_score_shift(self):
        led = ledger_with_votes(
            [{0: 1.0}, {1: 2.0}, {0: 1.0}, {1: 2.0}, {0: 1.0}, {1: 2.0}]
        )
        params = params_for(DIMS_232)
        base = build_ballot_mask(led, 0.72, params)
        led.cum_scores += 5.0
        shifted = build_ballot_mask(led, 0.72, params)
        for a, b in zip(base.weight_keep, shifted.weight_keep):
            assert np.array_equal(a, b)
        for a, b in zip(base.bias_keep, shifted.bias_keep):
            assert np.array_equal(a, b)

    def test_undershoot_trims_smallest_final_weights(self):
        # k=13: removing the voted unit would reach 12 < 13, so the
        # builder keeps it and trims its 4 smallest-|final| entries instead
        led = ledger_with_votes([{0: 1.0}])
        params = params_for(DIMS_232)
        params.weights[0][:, 0] = [0.9, -0.2]
        params.biases[0][0] = 0.05
        params.weights[1][0, :] = [0.4, -0.01]
        mask = build_ballot_mask(led, 13.2 / 17, params)
        assert mask.kept_count() == 13
        assert mask.neuron_keep[0].all()  # unit kept, only trimmed
        assert mask.weight_keep[0][0, 0]  # |0.9| survives
        assert not mask.weight_keep[0][1, 0]
        assert not mask.bias_keep[0][0]
        assert not mask.weight_keep[1][0, 0]
        assert not mask.weight_keep[1][0, 1]

    def test_never_empties_a_layer(self):
        led = ledger_with_votes([{0: 3.0, 1: 2.0, 2: 1.0}], eta=0.1)
        mask = build_ballot_mask(led, 7 / 17 + 1e-9, params_for(DIMS_232))
        assert mask.neuron_keep[0].sum() >= 1

    def test_unrecorded_ledger_rejected(self):
        with pytest.raises(UsageError):
            build_ballot_mask(ConflictLedger([3]), 0.5, params_for(DIMS_232))

    def test_mismatched_ledger_rejected(self):
        led = ledger_with_votes([{0: 1.0}], sizes=(4,))
        with pytest.raises(ConfigurationError):
            build_ballot_mask(led, 0.5, params_for(DIMS_232))


class TestMagnitudeMask:
    def test_hand_sorted_example(self):
        params = net_from_layers(
            weights=[np.array([[0.1, -0.5]]), np.array([[0.3], [-0.05]])],
            biases=[np.zeros(2), np.zeros(1)],
        )
        mask = build_magnitude_mask(params, 0.45)  # k = floor(3.15) = 3
        assert mask.kept_count() == 3
        assert mask.weight_keep[0].tolist() == [[False, True]]  # -0.5 kept
        assert mask.weight_keep[1].tolist() == [[True], [False]]  # 0.3 kept
        assert mask.bias_keep[0].tolist() == [False, False]
        assert mask.bias_keep[1].tolist() == [True]  # output bias exempt
        assert mask.neuron_keep[0].tolist() == [True, True]

    def test_omega_one_is_identity(self):
        params = params_for(DIMS_232)
        mask = build_magnitude_mask(params, 1.0)
        assert mask.kept_count() == 17

    def test_ties_break_to_lower_flat_index(self):
        params = net_from_layers(
            weights=[np.array([[0.5, -0.5]]), np.array([[0.5], [0.5]])],
            biases=[np.zeros(2), np.zeros(1)],
        )
        mask = build_magnitude_mask(params, 0.45)  # 2 weights + out bias
        assert mask.weight_keep[0].tolist() == [[True, True]]
        assert mask.weight_keep[1].tolist() == [[False], [False]]

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(20):
            dims = random_dims(rng)
            params = init_network(dims, int(rng.integers(10000)))
            total = param_count(dims)
            omega = float(rng.uniform(dims[-1] / total + 0.05, 1.0))
            mask = build_magnitude_mask(params, omega)
            k = math.floor(omega * total)

            flat, is_out_bias = [], []
            for i, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
                flat.extend(params.weights[i].reshape(-1).tolist())
                is_out_bias.extend([False] * (d_in * d_out))
                flat.extend(params.biases[i].tolist())
                is_out_bias.extend([i == len(dims) - 2] * d_out)
            ranked = sorted(
                (j for j in range(total) if not is_out_bias[j]),
                key=lambda j: (-abs(flat[j]), j),
            )
            expect = set(j for j in range(total) if is_out_bias[j])
            expect.update(ranked[: k - dims[-1]])

            # the builder deviates from plain top-k only when that ranking
            # would empty a hidden layer; those corner draws are covered by
            # the hand-built repair tests below
            bases, off = [], 0
            for d_in, d_out in zip(dims, dims[1:]):
                bases.append(off)
                off += d_in * d_out + d_out
            spans = [
                (bases[i], bases[i + 1] + dims[i + 1] * dims[i + 2])
                for i in range(len(dims) - 2)
            ]
            if any(expect.isdisjoint(range(lo, hi)) for lo, hi in spans):
                continue

            got = []
            for i in range(len(dims) - 1):
                got.extend(mask.weight_keep[i].reshape(-1).tolist())
                got.extend(mask.bias_keep[i].tolist())
            assert set(j for j, keep in enumerate(got) if keep) == expect

    def test_neuron_keep_derived_from_entries(self):
        params = net_from_layers(
            weights=[np.array([[2.0, 0.01]]), np.array([[1.5], [0.02]])],
            biases=[np.array([0.03, 0.04]), np.zeros(1)],
        )
        mask = build_magnitude_mask(params, 0.45)
        # unit 1 loses every entry (0.01 incoming, 0.04 bias, 0.02 out)
        assert mask.neuron_keep[0].tolist() == [True, False]

    def test_dead_layer_repaired_by_swap(self):
        # top-4 of 8 lands entirely on layer 0 plus the exempt output
        # biases, leaving hidden layer 1 with no entry.  The builder must
        # force its strongest entry (W1 = 0.05) back in and evict the
        # weakest safe kept entry (b0 = 0.8) to stay at k = 4.
        params = net_from_layers(
            weights=[
                np.array([[0.9]]),
                np.array([[0.05]]),
                np.array([[0.03, 0.02]]),
            ],
            biases=[np.array([0.8]), np.array([0.04]), np.zeros(2)],
        )
        mask = build_magnitude_mask(params, 0.5)
        assert mask.kept_count() == 4
        assert mask.weight_keep[0].tolist() == [[True]]
        assert mask.weight_keep[1].tolist() == [[True]]
        assert mask.weight_keep[2].tolist() == [[False, False]]
        assert mask.bias_keep[0].tolist() == [False]
        assert mask.bias_keep[1].tolist() == [False]
        assert mask.bias_keep[2].tolist() == [True, True]
        assert mask.neuron_keep[0].tolist() == [True]
        assert mask.neuron_keep[1].tolist() == [True]

    def test_repair_infeasible_when_budget_is_all_output_biases(self):
        # k = 2 is eaten by the exempt output biases, so the swap that
        # would revive hidden layer 0 has nothing safe to evict
        params = net_from_layers(
            weights=[np.array([[0.9]]), np.array([[0.05, 0.04]])],
            biases=[np.array([0.8]), np.zeros(2)],
        )
        with pytest.raises(InfeasibleMaskError) as exc:
            build_magnitude_mask(params, 0.4)
        assert exc.value.min_retention == 0.5  # (C + hidden layers) / total


class TestRandomMask:
    def test_same_seed_identical(self):
        a = build_random_mask(DIMS_232, 0.5, seed=4)
        b = build_random_mask(DIMS_232, 0.5, seed=4)
        for wa, wb in zip(a.weight_keep, b.weight_keep):
            assert np.array_equal(wa, wb)

    def test_exact_retention(self):
        total = param_count(DIMS_232)
        for omega in (0.3, 0.5, 0.77, 0.99):
            mask = build_random_mask(DIMS_232, omega, seed=1)
            assert mask.kept_count() == math.floor(omega * total)

    def test_every_unit_removed_somewhere(self):
        dims = (4, 8, 2)
        seen_removed = np.zeros(8, dtype=bool)
        for seed in range(100):
            mask = build_random_mask(dims, 0.5, seed)
            seen_removed |= ~mask.neuron_keep[0]
            assert mask.neuron_keep[0].any()
        assert seen_removed.all()


class TestSparsityAndFeasibility:
    def test_identity_mask_sparsity(self):
        assert identity_mask(DIMS_232).retention() == 1.0

    def test_single_removal_hand_count(self):
        mask = identity_mask(DIMS_232)
        mask.weight_keep[0][:, 0] = False
        mask.bias_keep[0][0] = False
        mask.weight_keep[1][0, :] = False
        assert mask.kept_count() == 12
        assert mask.retention() == 12 / 17

    def test_sparsity_matches_brute_force(self, rng):
        for _ in range(20):
            dims = random_dims(rng)
            mask = build_random_mask(dims, float(rng.uniform(0.4, 1.0)), 3)
            kept = sum(int(w.sum()) for w in mask.weight_keep) + sum(
                int(b.sum()) for b in mask.bias_keep
            )
            assert mask.retention() == kept / param_count(dims)

    def test_infeasible_omega_reports_minimum(self):
        with pytest.raises(InfeasibleMaskError) as exc_info:
            build_random_mask(DIMS_232, 0.05, seed=0)
        assert exc_info.value.min_retention == 2 / 17

    def test_all_builders_land_on_identical_retention(self, rng):
        for trial in range(10):
            dims = random_dims(rng)
            total = param_count(dims)
            params = init_network(dims, trial)
            led = ConflictLedger(dims[1:-1])
            for e in range(3):
                led.record_epoch(
                    e,
                    np.concatenate([rng.normal(size=n) for n in dims[1:-1]]),
                    np.concatenate([rng.normal(size=n) for n in dims[1:-1]]),
                    10.0,
                    0.95,
                )
            while True:
                # some retentions are infeasible for magnitude; redraw them
                omega = float(rng.uniform(dims[-1] / total + 0.1, 1.0))
                try:
                    masks = [
                        build_ballot_mask(led, omega, params),
                        build_magnitude_mask(params, omega),
                        build_random_mask(dims, omega, trial),
                    ]
                except InfeasibleMaskError:
                    continue
                break
            assert {m.kept_count() for m in masks} == {math.floor(omega * total)}
            for mask in masks:
                assert mask.bias_keep[-1].all()


class TestMaskSerialization:
    def test_round_trip_all_builders(self, tmp_path):
        rng = np.random.default_rng(8)
        sizes = set()
        for trial in range(20):
            dims = random_dims(rng)
            total = param_count(dims)
            sizes.add(total % 8)
            omega = float(rng.uniform(dims[-1] / total + 0.1, 1.0))
            params = init_network(dims, trial)
            led = ConflictLedger(dims[1:-1])
            led.record_epoch(
                0,
                np.concatenate([rng.normal(size=n) for n in dims[1:-1]]),
                np.concatenate([rng.normal(size=n) for n in dims[1:-1]]),
                10.0,
                0.5,
            )
            for mask in (build_ballot_mask(led, omega, params),
                         build_magnitude_mask(params, omega),
                         build_random_mask(dims, omega, trial),
                         identity_mask(dims)):
                roundtrip(mask, dims, tmp_path / "mask.bits")
        assert sizes - {0}  # some parameter counts are not multiples of 8

    def test_bits_are_flat_keep_flags_msb_first(self, tmp_path):
        # 17 entries: byte 0 holds flat 0-7, byte 2's top bit flat 16
        mask = identity_mask(DIMS_232)
        mask.keep[[0, 9]] = False
        save_mask(mask, tmp_path / "mask.bits")
        assert (tmp_path / "mask.bits").read_bytes() == bytes([0x7F, 0xBF, 0x80])

    def test_bad_flags_rejected(self, tmp_path):
        # DIMS_232 has 17 entries, so 3 bytes; flat 15 and 16 are the
        # output biases and the last 7 bits of byte 2 are padding
        good = bytes([0xFF, 0xFF, 0x80])
        bad_files = [
            good[:2],                   # short
            good + b"\x00",             # long
            b"",                        # empty
            bytes([0xFF, 0xFF, 0x81]),  # last padding bit set
            bytes([0xFF, 0xFF, 0xC0]),  # first padding bit set
            bytes([0xFF, 0xFE, 0x80]),  # output bias flat 15 cleared
            bytes([0xFF, 0xFF, 0x00]),  # output bias flat 16 cleared
        ]
        path = tmp_path / "mask.bits"
        for raw in bad_files:
            path.write_bytes(raw)
            with pytest.raises(PersistenceError):
                load_mask(path, DIMS_232)
        path.write_bytes(good)
        assert load_mask(path, DIMS_232).kept_count() == 17

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(PersistenceError, match="cannot read mask"):
            load_mask(tmp_path / "absent.bits", DIMS_232)

    def test_unwritable_path_rejected(self, tmp_path):
        # a missing directory is made; one that is a regular file is not
        save_mask(identity_mask(DIMS_232), tmp_path / "new" / "mask.bits")
        assert (tmp_path / "new" / "mask.bits").exists()
        (tmp_path / "afile").write_text("")
        with pytest.raises(PersistenceError, match="cannot write mask"):
            save_mask(identity_mask(DIMS_232), tmp_path / "afile" / "mask.bits")


# sha256 of np.packbits(mask.keep), the bytes of ``save_mask``, for a
# 10-48-48-4 net; the cases run the ballot whole-network trim (0.006),
# the ballot last-unit trim (0.2), the magnitude dead-layer repair
# (0.006, 0.05), and the random whole-network trim (0.006) and
# last-unit trim (0.05, 0.2)
PINNED_DIGESTS = {
    ("ballot", 0.006): "98c5493f3d4c4cea0e6d82f918c547ad2fa89037eb4f8f36afb8b5df052cb818",
    ("magnitude", 0.006): "fabe3640668cc463e19c9fecbc253ee2ed4c81ab784c0b389001605279118cf6",
    ("random", 0.006): "1cb85509746909c052613ddca753429b9cd426b6113990629cd3a07a5460b8cf",
    ("ballot", 0.05): "a4c93ce62f1e517ec7a241f6a47eefd06d27bed5ab09d8b7448ebbc90a4f8cdf",
    ("magnitude", 0.05): "e58d7bb10c123ea4ff1df1a85e5c6d71e1e6ffb3c49c12df8c7711909700cdbf",
    ("random", 0.05): "92966f788306888d6f157bf170559c91f508dbf31b4f2836f7208e01068f5b8c",
    ("ballot", 0.2): "e0b201704e57f25330cd58108b6364b3bcb8ce6a6a0420e54ff77921b6042145",
    ("magnitude", 0.2): "dd3088fdc67d819f13424b7afe1f80fa94598e6d948b06b97d181c44b3367756",
    ("random", 0.2): "91528119ec85cc6f29389efaf3a8356a1c924e0e76ef5d91ec076de488e4f2d8",
}


def test_serialized_masks_match_pinned_digests(tmp_path):
    dims = (10, 48, 48, 4)
    params = init_network(dims, 3)
    rng = np.random.default_rng(11)
    led = ConflictLedger([48, 48])
    for e in range(4):
        led.record_epoch(
            e,
            np.concatenate([rng.normal(size=48) for _ in range(2)]),
            np.concatenate([rng.normal(size=48) for _ in range(2)]),
            10.0,
            0.95,
        )
    builders = {
        "ballot": lambda omega: build_ballot_mask(led, omega, params),
        "magnitude": lambda omega: build_magnitude_mask(params, omega),
        "random": lambda omega: build_random_mask(dims, omega, 5),
    }
    got = {}
    path = tmp_path / "mask.bits"
    for (name, omega) in PINNED_DIGESTS:
        save_mask(builders[name](omega), path)
        got[name, omega] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == PINNED_DIGESTS


def _per_layer_record(counts, cum_scores, g_a, g_f, gamma, eta):
    """The ledger update as it was before the ledger went flat: score
    each layer on its own, take the threshold over the concatenated
    scores, then count hits layer by layer into per-layer arrays."""
    per_layer = [conflict_scores(a, f, gamma) for a, f in zip(g_a, g_f)]
    threshold = positive_score_threshold(np.concatenate(per_layer), eta)
    if threshold is not None:
        for i, s in enumerate(per_layer):
            hit = (s > 0.0) & (s >= threshold)
            counts[i][hit] += 1
            cum_scores[i][hit] += s[hit]


def _undoing_removal_mask(dims, order, omega, magnitudes):
    """The removal loop as it was before it decided the last unit up
    front: remove whole units, and when the last removal overshoots,
    restore that unit and trim its cheapest previously kept entries."""
    k = _target_kept(dims, omega)
    mask = Mask(dims)
    kept = mask.total_count()
    if k == kept:
        return mask

    def cheapest(idx, need):
        if magnitudes is not None:
            idx = idx[np.argsort(magnitudes[idx], kind="stable")]
        return idx[:need]

    offsets = layer_offsets(dims)
    units_left = list(dims[1:-1])
    layers, units = _unit_ids(units_left)
    last = None
    for layer, unit in zip(layers[order].tolist(), units[order].tolist()):
        if kept <= k:
            break
        if units_left[layer] <= 1:
            continue
        slices = _unit_slices(dims, offsets, layer, unit)
        was = [mask.keep[s].copy() for s in slices]
        for s in slices:
            mask.keep[s] = False
        kept -= sum(int(w.sum()) for w in was)
        mask.neuron_keep[layer][unit] = False
        units_left[layer] -= 1
        last = (layer, unit, slices, was)

    if kept < k:
        layer, unit, slices, was = last
        for s, w in zip(slices, was):
            mask.keep[s] = w
        mask.neuron_keep[layer][unit] = True
        flipped = np.r_[slices][np.concatenate(was)]
        mask.keep[cheapest(flipped, kept + flipped.size - k)] = False
    elif kept > k:
        candidates = np.flatnonzero(mask.keep[: -dims[-1]])
        mask.keep[cheapest(candidates, kept - k)] = False
    return mask


def _target_omega(rng, dims, low: bool) -> float:
    """A retention whose floor(omega * n) is a uniform k of at least the
    output biases: with ``low``, at most what every hidden layer at one
    unit keeps, so whole-unit removal cannot reach it."""
    total = param_count(dims)
    floor = param_count((dims[0], *[1] * (len(dims) - 2), dims[-1]))
    k = int(rng.integers(dims[-1], (floor if low else total) + 1))
    return (k + 0.5) / total


class TestFlatRewritesMatchTheirReferences:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), epochs=st.integers(1, 4),
           sizes=st.lists(st.integers(1, 9), min_size=1, max_size=4))
    def test_flat_ledger_matches_the_per_layer_ledger(self, seed, epochs, sizes):
        # random sizes, gamma and eta, some gradients exactly zero and
        # some rounded so that scores tie at the threshold
        rng = np.random.default_rng(seed)
        gamma = float(rng.uniform(0.1, 20.0))
        eta = float(rng.uniform(0.05, 0.95))
        led = ConflictLedger(sizes)
        counts = [np.zeros(s, dtype=np.int64) for s in sizes]
        cum_scores = [np.zeros(s) for s in sizes]
        for epoch in range(epochs):
            g_a, g_f = ([self._draw(rng, s) for s in sizes] for _ in range(2))
            _per_layer_record(counts, cum_scores, g_a, g_f, gamma, eta)
            led.record_epoch(epoch, np.concatenate(g_a), np.concatenate(g_f), gamma, eta)
        assert led.sizes == sizes
        assert led.counts.tobytes() == np.concatenate(counts).tobytes()
        assert led.cum_scores.tobytes() == np.concatenate(cum_scores).tobytes()

    @staticmethod
    def _draw(rng, size):
        vec = rng.normal(size=size)
        if rng.random() < 0.5:
            vec = np.round(vec, 1)
        vec[rng.random(size) < 0.15] = 0.0
        return vec

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), low=st.booleans(), weighted=st.booleans())
    def test_removal_matches_remove_then_undo(self, seed, low, weighted):
        rng = np.random.default_rng(seed)
        dims = random_dims(rng, max_hidden_layers=3, max_units=8)
        order = rng.permutation(sum(dims[1:-1]))
        omega = _target_omega(rng, dims, low)
        # rounded magnitudes tie, so the stable order of the trim shows
        magnitudes = (np.round(np.abs(rng.normal(size=param_count(dims))), 1)
                      if weighted else None)
        got = _removal_mask(dims, order, omega, magnitudes)
        want = _undoing_removal_mask(dims, order, omega, magnitudes)
        assert np.array_equal(got.keep, want.keep)
        for a, b in zip(got.neuron_keep, want.neuron_keep):
            assert np.array_equal(a, b)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), low=st.booleans())
    def test_ballot_ranking_matches_the_four_key_sort(self, seed, low):
        # few distinct counts and scores, so most units tie on both keys
        # and the (layer, unit) tie-break decides
        rng = np.random.default_rng(seed)
        dims = random_dims(rng, max_hidden_layers=3, max_units=8)
        params = init_network(dims, seed)
        led = ConflictLedger(dims[1:-1])
        led.record_epoch(0, np.zeros(sum(dims[1:-1])), np.zeros(sum(dims[1:-1])), 1.0, 0.5)
        led.counts[:] = rng.integers(0, 3, led.counts.size)
        led.cum_scores[:] = rng.integers(0, 3, led.counts.size) / 2.0
        layers, units = _unit_ids(led.sizes)
        order = np.lexsort((units, layers, -led.cum_scores, -led.counts))
        omega = _target_omega(rng, dims, low)
        got = build_ballot_mask(led, omega, params)
        want = _undoing_removal_mask(dims, order, omega, np.abs(params.flat))
        assert np.array_equal(got.keep, want.keep)
