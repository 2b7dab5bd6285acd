"""Fairness metrics, report assembly, class weights, the delta gate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballot import data
from ballot.data import Split, split_blocks
from ballot.errors import DataError
from ballot.metrics import (
    WEIGHT_FLOOR,
    EvalReport,
    bias_delta,
    confusion,
    cwv,
    evaluate,
    macro_precision,
    macro_recall,
    mcd,
    report_from_predictions,
    update_class_weights,
)
from ballot.model import init_network

from conftest import brute_force_report, net_from_layers

accs = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10)


class TestCwv:
    def test_all_equal_is_zero(self):
        # mean([0.7]*3) rounds away from 0.7, so the definitional
        # variance is ~1e-32 rather than exactly 0
        assert cwv([0.7, 0.7, 0.7]) == pytest.approx(0.0, abs=1e-12)
        assert cwv([0.5, 0.5, 0.5, 0.5]) == 0.0

    def test_two_class_example(self):
        assert cwv([1.0, 0.5]) == 0.0625

    def test_four_class_example(self):
        assert cwv([1.0, 0.5, 0.75, 0.75]) == 0.03125

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            cwv([])

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            cwv([0.5, 1.2])
        with pytest.raises(DataError):
            cwv([np.nan])

    @given(accs)
    def test_bounded_by_quarter(self, v):
        assert 0.0 <= cwv(v) <= 0.25

    @given(accs, st.floats(-0.5, 0.5))
    def test_translation_invariant(self, v, const):
        shifted = [a + const for a in v]
        if any(not (0.0 <= s <= 1.0) for s in shifted):
            return
        assert cwv(shifted) == pytest.approx(cwv(v), abs=1e-12)

    @given(accs, st.randoms())
    def test_permutation_invariant(self, v, rand):
        shuffled = list(v)
        rand.shuffle(shuffled)
        assert cwv(shuffled) == pytest.approx(cwv(v), abs=1e-12)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_two_point_identity_exact(self, a, b):
        half = mcd([a, b]) / 2.0
        assert cwv([a, b]) == half * half

    @given(accs)
    def test_matches_definitional_formula(self, v):
        arr = np.asarray(v)
        definition = float(np.mean((arr - arr.mean()) ** 2))
        assert cwv(v) == pytest.approx(definition, abs=1e-12)


class TestMcd:
    def test_hand_example(self):
        assert mcd([0.9, 0.6, 0.8]) == pytest.approx(0.3, abs=1e-12)

    def test_single_class_is_zero(self):
        assert mcd([0.4]) == 0.0

    def test_all_equal_is_zero(self):
        assert mcd([0.25, 0.25, 0.25, 0.25]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            mcd([])

    @given(accs, st.randoms())
    def test_permutation_invariant(self, v, rand):
        shuffled = list(v)
        rand.shuffle(shuffled)
        assert mcd(shuffled) == mcd(v)


class TestConfusionAverages:
    def test_diagonal_is_perfect(self):
        conf = np.diag([3, 4, 5])
        assert macro_precision(conf) == 1.0
        assert macro_recall(conf) == 1.0

    def test_hand_example(self):
        conf = np.array([[5, 5], [0, 10]])
        assert macro_precision(conf) == pytest.approx((1.0 + 10 / 15) / 2, abs=1e-12)
        assert macro_recall(conf) == pytest.approx(0.75, abs=1e-12)

    def test_never_predicted_class_contributes_zero(self):
        conf = np.array([[4, 0], [2, 0]])  # class 1 never predicted
        assert macro_precision(conf) == pytest.approx(0.5 * (4 / 6), abs=1e-12)

    def test_confusion_counts(self):
        conf = confusion([0, 0, 1, 1], [0, 1, 1, 1], 2)
        np.testing.assert_array_equal(conf, [[1, 1], [0, 2]])


class TestReport:
    def test_perfect_classifier(self):
        rep = report_from_predictions([0, 1, 2, 0], [0, 1, 2, 0], 3)
        assert rep.accuracy == 1.0 and rep.cwv == 0.0 and rep.mcd == 0.0
        assert rep.macro_precision == 1.0 and rep.macro_recall == 1.0

    def test_constant_classifier_two_balanced_classes(self):
        rep = report_from_predictions([0, 0, 1, 1], [0, 0, 0, 0], 2)
        assert rep.per_class_acc == (1.0, 0.0)
        assert rep.mcd == 1.0
        assert rep.cwv == 0.25

    def test_internal_consistency(self):
        rep = report_from_predictions([0, 0, 1, 1, 1], [0, 1, 1, 0, 1], 2)
        assert rep.cwv == cwv(rep.per_class_acc)
        assert rep.mcd == mcd(rep.per_class_acc)

    def test_empty_class_reported_absent(self):
        rep = report_from_predictions([0, 1, 0, 3], [0, 1, 1, 2], 4)
        assert rep.absent_classes == (2,)
        assert rep.per_class_acc == (0.5, 1.0, None, 0.0)
        assert rep.class_counts == (2, 1, 0, 1)
        # cwv, mcd and recall over the three classes present; precision
        # over all four, class 2 predicted once and never right
        assert rep.cwv == cwv([0.5, 1.0, 0.0])
        assert rep.mcd == 1.0
        assert rep.macro_recall == pytest.approx(0.5, abs=1e-15)
        assert rep.macro_precision == pytest.approx((1.0 + 0.5) / 4, abs=1e-15)
        assert report_from_predictions([0, 1], [0, 1], 2).absent_classes == ()

    def test_matches_brute_force_recount(self, rng):
        for _ in range(50):
            c = int(rng.integers(2, 11))
            n = int(rng.integers(c, 200))
            y = np.concatenate([np.arange(c), rng.integers(0, c, n - c)])
            p = rng.integers(0, c, n)
            rep = report_from_predictions(y, p, c)
            oracle = brute_force_report(y.tolist(), p.tolist(), c)
            assert rep.accuracy == pytest.approx(oracle["accuracy"], abs=1e-12)
            assert rep.cwv == pytest.approx(oracle["cwv"], abs=1e-12)
            assert rep.mcd == pytest.approx(oracle["mcd"], abs=1e-12)
            assert rep.macro_precision == pytest.approx(
                oracle["macro_precision"], abs=1e-12
            )
            assert rep.macro_recall == pytest.approx(
                oracle["macro_recall"], abs=1e-12
            )

    def test_argmax_tie_breaks_to_lowest_class(self):
        params = net_from_layers(weights=[np.zeros((2, 3))], biases=[np.zeros(3)])
        split = Split(np.ones((4, 2)), np.array([0, 1, 2, 0]))
        rep = evaluate(params, split_blocks(split))
        assert rep.per_class_acc == (1.0, 0.0, 0.0)  # every row predicted 0

    def test_report_does_not_depend_on_the_block_size(self, monkeypatch):
        # the block size moves the logits' last bits through the matmul
        # shapes, but no prediction, at the benchmark's 512-512 width
        rng = np.random.default_rng(7)
        split = Split(rng.normal(size=(5000, 20)), rng.integers(0, 4, 5000))
        params = init_network((20, 512, 512, 4), seed=3)
        shipped = evaluate(params, split_blocks(split))
        monkeypatch.setattr(data, "FORWARD_BLOCK_ROWS", 1024)
        assert next(split_blocks(split))[0].shape[0] == 1024
        assert evaluate(params, split_blocks(split)) == shipped


class TestClassWeights:
    def test_inverse_accuracy(self):
        rep = report_from_predictions([0, 0, 1], [0, 1, 1], 2)  # acc [0.5, 1.0]
        cw = update_class_weights(rep)
        assert cw.dtype == np.float64 and cw.tolist() == [2.0, 1.0]

    @settings(max_examples=200, deadline=None)
    @given(accs)
    def test_matches_scalar_formula_bit_for_bit(self, acc):
        rep = EvalReport(0.0, tuple(acc), (1,) * len(acc), 0.0, 0.0, 0.0, 0.0)
        want = np.array([1.0 / max(a, WEIGHT_FLOOR) for a in acc])
        assert update_class_weights(rep).tobytes() == want.tobytes()

    def test_floor_applies_at_zero(self):
        rep = report_from_predictions([0, 1], [1, 1], 2)  # acc [0, 1]
        cw = update_class_weights(rep)
        assert cw.tolist() == [100.0, 1.0]

    def test_equal_accuracies_give_equal_weights(self):
        rep = report_from_predictions([0, 0, 1, 1], [0, 1, 1, 0], 2)
        cw = update_class_weights(rep)
        assert cw[0] == cw[1]

    def test_absent_class_raises_naming_it(self):
        rep = report_from_predictions([0, 1, 0], [0, 1, 1], 3)  # class 2 absent
        with pytest.raises(DataError, match="^class 2 has no sample"):
            update_class_weights(rep)


class TestBiasDelta:
    def _rep(self, acc):
        n = len(acc)
        y, p = [], []
        for c, a in enumerate(acc):
            hits = int(round(a * 10))
            y += [c] * 10
            p += [c] * hits + [(c + 1) % n] * (10 - hits)
        return report_from_predictions(y, p, n)

    def test_identical_reports_give_zero(self):
        rep = self._rep([0.8, 0.6])
        assert bias_delta(rep, rep) == 0.0

    def test_signed_subtraction(self):
        pruned = self._rep([0.9, 0.7])  # cwv 0.01
        dense = self._rep([0.9, 0.9])  # cwv 0
        assert bias_delta(pruned, dense) == pytest.approx(0.01, abs=1e-12)

    def test_class_count_mismatch_rejected(self):
        with pytest.raises(DataError):
            bias_delta(self._rep([0.5, 0.5]), self._rep([0.5, 0.5, 0.5]))
