"""Training, refinement, and the baseline pruners end to end.

Everything here runs on a 54-sample synthetic set with one 8-unit
hidden layer, so the whole file stays fast while exercising the real
training loops.
"""

import dataclasses
import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ballot import config_from_dict, make_dataset, pipeline
from ballot.data import split_blocks
from ballot.errors import ConfigurationError, NumericalFailure
from ballot.masks import build_random_mask
from ballot.metrics import EvalReport, evaluate
from ballot.model import (
    NetworkParams,
    apply_mask,
    compact_network,
    init_network,
    live_units,
    param_count,
)
from ballot.pipeline import (
    METHODS,
    RunArtifacts,
    TrainConfig,
    _retrain,
    _standing,
    finetune_epochs,
    lr_at,
    refine,
    run_baseline,
    train_dense,
)
from ballot.reporting import result_dict

from conftest import small_config, small_dataset


@pytest.fixture(scope="module")
def data():
    return small_dataset()


@pytest.fixture(scope="module")
def artifacts(data):
    return train_dense(small_config(), data, [0])[0]


def params_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights)) and all(
        np.array_equal(x, y) for x, y in zip(a.biases, b.biases)
    )


@pytest.fixture
def new_networks(monkeypatch):
    """Weak references to every network made from here on; a network
    holds no reference cycle, so it dies as soon as nothing holds it."""
    refs = []
    real_init = NetworkParams.__init__

    def tracking_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(NetworkParams, "__init__", tracking_init)
    return refs


def alive_full_shape(refs, dims):
    """The networks of ``refs`` still alive at the full shape ``dims``
    (compacted networks carry dims of their own)."""
    return [net for net in (ref() for ref in refs)
            if net is not None and net.dims is dims]


def assert_masked_entries_zero(arrays, mask):
    """Every entry ``mask`` removes from ``arrays`` (weights, then biases)
    is stored as exactly +0.0."""
    for a, keep in zip(arrays, mask.weight_keep + mask.bias_keep):
        dropped = a[~keep]
        assert (dropped == 0.0).all() and not np.signbit(dropped).any()


class TestLrSchedule:
    def test_reference_250_epoch_schedule(self):
        cfg = TrainConfig(epochs=250)
        assert lr_at(0, cfg) == 0.1
        assert lr_at(99, cfg) == 0.1
        assert lr_at(120, cfg) == pytest.approx(0.01, rel=1e-12)
        assert lr_at(160, cfg) == pytest.approx(0.001, rel=1e-12)
        assert lr_at(210, cfg) == pytest.approx(0.0001, rel=1e-12)

    def test_ten_epoch_schedule(self):
        cfg = TrainConfig(epochs=10, rewind_epoch=5)
        assert lr_at(5, cfg) == pytest.approx(cfg.lr0 / 10, rel=1e-12)
        assert lr_at(3, cfg) == cfg.lr0
        assert lr_at(9, cfg) == pytest.approx(cfg.lr0 / 1000, rel=1e-12)

    def test_milestones_floor(self):
        cfg = TrainConfig(epochs=7, rewind_epoch=1)  # milestones at 2, 4, 5
        assert lr_at(1, cfg) == cfg.lr0
        assert lr_at(2, cfg) == pytest.approx(cfg.lr0 / 10, rel=1e-12)
        assert lr_at(4, cfg) == pytest.approx(cfg.lr0 / 100, rel=1e-12)
        assert lr_at(5, cfg) == pytest.approx(cfg.lr0 / 1000, rel=1e-12)

    def test_epoch_out_of_range_rejected(self):
        cfg = TrainConfig(epochs=10, rewind_epoch=5)
        with pytest.raises(ConfigurationError):
            lr_at(-1, cfg)
        with pytest.raises(ConfigurationError):
            lr_at(10, cfg)


class TestConfigValidation:
    def test_rewind_must_stay_below_epochs(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(epochs=10, rewind_epoch=10)

    def test_empty_hidden_rejected(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(hidden=())

    def test_bad_milestones_rejected(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(milestone_fractions=(0.6, 0.4))
        with pytest.raises(ConfigurationError):
            TrainConfig(milestone_fractions=(0.4, 1.2))

    def test_defaults_match_documentation(self):
        cfg = TrainConfig()
        assert cfg.lr0 == 0.1
        assert cfg.milestone_fractions == (0.4, 0.6, 0.8)
        assert cfg.batch_size == 32
        assert cfg.omega == 0.05
        assert cfg.gamma == 10.0
        assert cfg.eta == 0.95
        assert cfg.rewind_epoch == 10
        assert cfg.epsilon == 0.05
        assert cfg.delta == 0.0
        assert cfg.max_rounds == 3
        assert cfg.hidden == (64, 64)


class TestTrainDense:
    def test_deterministic(self, data, artifacts):
        (again,) = train_dense(small_config(), data, [0])
        assert params_equal(artifacts.theta_e, again.theta_e)
        assert artifacts.dense_report == again.dense_report
        assert np.array_equal(artifacts.ledger.counts, again.ledger.counts)
        assert np.array_equal(artifacts.ledger.cum_scores, again.ledger.cum_scores)

    def test_ledger_has_exactly_e_epochs(self, artifacts):
        assert artifacts.ledger.epochs == list(range(small_config().epochs))

    def test_checkpoint_epochs_and_seeds(self, artifacts):
        cfg = small_config()
        assert artifacts.theta0.epoch_tag == 0
        assert artifacts.theta_k.epoch_tag == cfg.rewind_epoch
        assert artifacts.theta_e.epoch_tag == cfg.epochs
        assert (
            artifacts.theta0.seed
            == artifacts.theta_k.seed
            == artifacts.theta_e.seed
            == cfg.seed
        )
        assert artifacts.theta_e.epoch_tag == cfg.epochs

    def test_network_dims_are_features_hidden_classes(self, data):
        cfg = small_config(hidden=(8, 5), epochs=2, rewind_epoch=1)
        (arts,) = train_dense(cfg, data, [0])
        assert arts.dims == arts.theta_k.dims == arts.theta0.dims == (4, 8, 5, 3)
        assert arts.ledger.sizes == [8, 5]

    def test_rewind_zero_reuses_theta0(self, data):
        (arts,) = train_dense(small_config(rewind_epoch=0, epochs=2), data, [0])
        assert arts.theta_k.flat.tobytes() == arts.theta0.flat.tobytes()
        assert arts.theta_k.epoch_tag == arts.theta0.epoch_tag == 0

    def test_theta0_is_rebuilt_from_the_seed(self, data):
        # dense training keeps no copy of the initial weights
        assert "theta0" not in {f.name for f in dataclasses.fields(RunArtifacts)}
        for arts in train_dense(small_config(), data, [3, 4]):
            theta0 = arts.theta0
            want = init_network(arts.dims, arts.seed)
            assert theta0.flat.tobytes() == want.flat.tobytes()
            assert theta0.dims == want.dims
            assert (theta0.seed, theta0.epoch_tag) == (arts.seed, 0)
            assert arts.theta0 is not theta0  # a fresh network per call

    def test_training_moves_weights(self, artifacts):
        assert not params_equal(artifacts.theta0, artifacts.theta_e)
        assert not params_equal(artifacts.theta_k, artifacts.theta_e)

    def test_numerical_failure_names_epoch(self, data):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalFailure, match="dense training epoch"):
                train_dense(small_config(lr0=1e200), data, [0])

    def test_reference_dense_accuracy(self):
        # frozen from one oracle run of the full-size reference config
        data = small_dataset(counts=(700, 100, 100, 100), dim=20, std=1.0, seed=0)
        cfg = TrainConfig(hidden=(64, 64), epochs=30, seed=0)
        (arts,) = train_dense(cfg, data, [cfg.seed])
        assert arts.dense_report.accuracy >= 0.85


def round_oracle(arts, mask, cfg, data, r_index):
    """Ballot's refinement round ``r_index`` of one seed, retrained on its
    own by ``_retrain``."""
    start = arts.theta0 if r_index == 0 else arts.theta_k
    (net,) = _retrain([apply_mask(start, mask)].__getitem__, [mask], cfg, data,
                      [arts.seed], cfg.epochs, lambda e: lr_at(e, cfg),
                      stream_offset=r_index)
    return net


class TestRefine:
    def test_gate_short_circuit_is_round_zero_training(self, data, artifacts):
        cfg = small_config(delta=1.0, epsilon=1.0)
        dims = artifacts.dims
        mask = build_random_mask(dims, cfg.omega, seed=3)
        (outcome,) = refine("ballot", [mask], [artifacts], cfg, data)
        assert outcome.round_reports == [outcome.report]

        oracle = round_oracle(artifacts, mask, cfg, data, 0)
        assert params_equal(outcome.params, oracle)
        assert outcome.report == evaluate(oracle, split_blocks(data.test))

    def test_unsatisfiable_gate_runs_rounds(self, data, artifacts):
        cfg = small_config(delta=-1.0)
        mask = build_random_mask(artifacts.dims, cfg.omega, seed=3)
        (outcome,) = refine("ballot", [mask], [artifacts], cfg, data)
        rounds_used = len(outcome.round_reports) - 1
        assert 1 <= rounds_used <= cfg.max_rounds
        if rounds_used < cfg.max_rounds:
            # early stop: the last round failed to improve the best cwv
            cwvs = [report.cwv for report in outcome.round_reports]
            assert cwvs[-1] >= min(cwvs[:-1])

    def test_rewind_rounds_start_from_theta_k(self, data, artifacts):
        cfg = small_config(delta=-1.0, max_rounds=1)
        dims = artifacts.dims
        mask = build_random_mask(dims, cfg.omega, seed=3)
        (outcome,) = refine("ballot", [mask], [artifacts], cfg, data)
        oracle = round_oracle(artifacts, mask, cfg, data, 1)
        assert outcome.round_reports[1] == evaluate(oracle, split_blocks(data.test))

    def test_selection_minimizes_cwv_among_feasible(self, data, artifacts):
        cfg = small_config(delta=-1.0)
        mask = build_random_mask(artifacts.dims, cfg.omega, seed=3)
        (outcome,) = refine("ballot", [mask], [artifacts], cfg, data)
        dense_acc = artifacts.dense_report.accuracy
        feasible = [
            (r, report) for r, report in enumerate(outcome.round_reports)
            if dense_acc - report.accuracy <= cfg.epsilon
        ]
        if feasible:
            best = min(feasible, key=lambda c: (c[1].cwv, c[0]))
        else:
            best = min(enumerate(outcome.round_reports),
                       key=lambda c: (-c[1].accuracy, c[0]))
        assert outcome.report == best[1]
        oracle = round_oracle(artifacts, mask, cfg, data, best[0])
        assert params_equal(outcome.params, oracle)

    def test_masked_entries_stay_zero_every_epoch(self, data, artifacts,
                                                  monkeypatch):
        # checked after every SGD step, in every slot of the one stack;
        # the two masks compact to two shapes, so the narrower network
        # is padded, and its padding units must stay +0.0 as well
        cfg = small_config()
        dims = artifacts.dims
        masks = [build_random_mask(dims, omega, seed=7) for omega in (0.4, 0.7)]
        starts = [apply_mask(artifacts.theta0, m) for m in masks]
        widths = [max(map(len, col)) for col in zip(*map(live_units, masks))]
        assert len({tuple(map(len, live_units(m))) for m in masks}) == 2
        keeps = [compact_network(p, m, widths)[1] for p, m in zip(starts, masks)]
        padded = [compact_network(p, m)[1].size < keep.size
                  for p, m, keep in zip(starts, masks, keeps)]
        assert any(padded)
        real_step = pipeline.sgd_step
        steps = []

        def checked_step(stack, lr):
            out = real_step(stack, lr)
            assert isinstance(lr, float) and np.array_equal(stack.keep, keeps)
            for row, keep in zip(stack.flat, keeps):
                dropped = row[~keep]
                assert (dropped == 0.0).all() and not np.signbit(dropped).any()
            steps.append(lr)
            return out

        monkeypatch.setattr(pipeline, "sgd_step", checked_step)
        nets = _retrain(
            starts.__getitem__, masks, cfg, data, [cfg.seed, cfg.seed + 1],
            cfg.epochs, lambda e: lr_at(e, cfg),
        )
        batches = math.ceil(data.train.X.shape[0] / cfg.batch_size)
        assert len(steps) == cfg.epochs * batches
        for params, m in zip(nets, masks):
            assert_masked_entries_zero(params.weights + params.biases, m)

    def test_refine_output_respects_mask(self, data, artifacts):
        # every round's network, rebuilt by its oracle, holds the mask's
        # zeros and gives the round's logged report
        cfg = small_config(delta=-1.0)
        mask = build_random_mask(artifacts.dims, cfg.omega, seed=3)
        (outcome,) = refine("ballot", [mask], [artifacts], cfg, data)
        assert_masked_entries_zero(outcome.params.weights + outcome.params.biases, mask)
        for r, report in enumerate(outcome.round_reports):
            oracle = round_oracle(artifacts, mask, cfg, data, r)
            assert_masked_entries_zero(oracle.weights + oracle.biases, mask)
            assert report == evaluate(oracle, split_blocks(data.test))

    def test_exact_retention_and_metadata(self, data, artifacts):
        cfg = small_config()
        (result,) = run_baseline("ballot", cfg, data, [artifacts])
        total = param_count(artifacts.dims)
        report = result_dict(result)
        assert result.method == report["method"] == "ballot"
        assert report["retention"] == (int(cfg.omega * total) // 1) / total
        assert result.mask.kept_count() == int(np.floor(cfg.omega * total))
        assert report["rounds_log"][0]["round"] == 0

    def test_deterministic(self, data):
        cfg = small_config()
        (a,) = run_baseline("ballot", cfg, data, train_dense(cfg, data, [cfg.seed]))
        (b,) = run_baseline("ballot", cfg, data, train_dense(cfg, data, [cfg.seed]))
        assert params_equal(a.params, b.params)
        assert a.report == b.report
        assert a.round_reports == b.round_reports

    def test_near_identity_omega(self, data):
        # omega 0.999 trims a single entry; the pruned run should track
        # a dense retrain closely
        cfg = small_config(hidden=(12,), omega=0.999, epochs=5, rewind_epoch=2)
        (arts,) = train_dense(cfg, data, [cfg.seed])
        total = param_count(arts.dims)
        (result,) = run_baseline("ballot", cfg, data, [arts])
        assert result.mask.kept_count() == total - 1
        assert abs(result.report.accuracy - arts.dense_report.accuracy) <= 0.15


@given(st.lists(st.tuples(st.sampled_from([0.5, 0.6, 0.7, 0.75, 0.8, 0.9]),
                          st.sampled_from([0.0, 0.01, 0.02, 0.05])),
                min_size=1, max_size=6),
       st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.25]),
       st.sampled_from([0.8, 0.75]))
# 0.75 - 0.5 == 0.25 exactly: round 1 is feasible only on the bound
@example([(0.9, 0.05), (0.5, 0.0)], 0.25, 0.75)
def test_incremental_winner_matches_brute_force_selection(rounds, epsilon, dense_accuracy):
    # keeping one winner round by round, displaced only by a strictly
    # smaller standing, selects what a choice over every round's
    # (accuracy, cwv) would: the least cwv among the feasible rounds,
    # else the most accurate round, the earliest on ties.  The bound is
    # inclusive, and dense 0.75 draws it at a nonzero epsilon
    assert 0.75 - 0.5 == 0.25
    reports = [SimpleNamespace(accuracy=a, cwv=c) for a, c in rounds]
    best = 0
    for i, report in enumerate(reports[1:], 1):
        if (_standing(report, dense_accuracy, epsilon)
                < _standing(reports[best], dense_accuracy, epsilon)):
            best = i
    feasible = [i for i, r in enumerate(reports)
                if dense_accuracy - r.accuracy <= epsilon]
    if feasible:
        want = min(feasible, key=lambda i: (reports[i].cwv, i))
    else:
        want = min(range(len(reports)), key=lambda i: (-reports[i].accuracy, i))
    assert best == want


class TestNetworksHeldOnce:
    @pytest.mark.parametrize("method", METHODS)
    def test_no_full_shape_network_alive_during_retraining_steps(
            self, data, monkeypatch, new_networks, method):
        # the gate accepts ballot's round 0, so every method runs one
        # round; while its stack trains, the only full-shape networks of
        # the seeds are the artifacts' own snapshots, made before
        cfg = small_config(delta=1.0, epsilon=1.0)
        arts = train_dense(cfg, data, [0, 1])
        dims = arts[0].dims
        del new_networks[:]
        real_step = pipeline.sgd_step
        alive = []

        def checked_step(stack, lr):
            alive.append(len(alive_full_shape(new_networks, dims)))
            return real_step(stack, lr)

        monkeypatch.setattr(pipeline, "sgd_step", checked_step)
        results = run_baseline(method, cfg, data, arts)
        assert [len(r.round_reports) for r in results] == [1, 1]
        assert alive and set(alive) == {0}

    def test_ballot_holds_one_candidate_per_seed_after_each_round(
            self, data, monkeypatch, new_networks):
        # the gate is blocked, so seed 0 runs rounds 0-2 and seeds 1 and 2
        # rounds 0-1; before each round trains and after the last, each
        # seed holds the weights of the one round that can still win
        cfg = small_config(delta=-1.0, max_rounds=3)
        arts = train_dense(cfg, data, [0, 1, 2])
        dims = arts[0].dims
        masks = [build_random_mask(a.dims, cfg.omega, seed=3) for a in arts]
        del new_networks[:]
        real_retrain = pipeline._retrain
        per_round = []

        def held_per_seed():
            seeds = [net.seed for net in alive_full_shape(new_networks, dims)]
            return [seeds.count(a.seed) for a in arts]

        def tracked_retrain(*args, **kwargs):
            per_round.append(held_per_seed())
            return real_retrain(*args, **kwargs)

        monkeypatch.setattr(pipeline, "_retrain", tracked_retrain)
        results = refine("ballot", masks, arts, cfg, data)
        per_round.append(held_per_seed())
        assert [len(r.round_reports) for r in results] == [3, 2, 2]
        assert per_round == [[0, 0, 0], [1, 1, 1], [1, 1, 1], [1, 1, 1]]

    def test_ballot_evaluates_each_new_result_before_expanding_the_next(
            self, data, monkeypatch, new_networks):
        # the gate is blocked, so three seeds run several rounds; at each
        # evaluation of a retrained result, no other result of its round
        # is alive unless it was evaluated first and won, and each seed
        # holds at most one result besides the one being evaluated
        cfg = small_config(delta=-1.0, max_rounds=3)
        arts = train_dense(cfg, data, [0, 1, 2])
        dims = arts[0].dims
        masks = [build_random_mask(a.dims, cfg.omega, seed=3) for a in arts]
        del new_networks[:]
        real_retrain, real_evaluate = pipeline._retrain, pipeline._evaluate
        rounds, evaluated, checked, problems = [], weakref.WeakSet(), [], []

        def tracked_retrain(*args, **kwargs):
            rounds.append(len(new_networks))  # where this round's networks start
            return real_retrain(*args, **kwargs)

        def checked_evaluate(params, *args):
            if args[1] == "retraining":
                alive = [n for n in alive_full_shape(new_networks[rounds[-1]:], dims)
                         if n is not params]
                problems.extend(n.seed for n in alive if n not in evaluated)
                held = [n.seed for n in alive_full_shape(new_networks, dims)
                        if n is not params]
                problems.extend(s for s in set(held) if held.count(s) > 1)
                evaluated.add(params)
                checked.append(params.seed)
            return real_evaluate(params, *args)

        monkeypatch.setattr(pipeline, "_retrain", tracked_retrain)
        monkeypatch.setattr(pipeline, "_evaluate", checked_evaluate)
        results = refine("ballot", masks, arts, cfg, data)
        assert [len(r.round_reports) for r in results] == [3, 2, 2]
        assert checked == [0, 1, 2, 0, 1, 2, 0] and problems == []


class TestBaselines:
    def test_finetune_epochs(self):
        assert finetune_epochs(30) == 6
        assert finetune_epochs(10) == 2
        assert finetune_epochs(5) == 1
        assert finetune_epochs(4) == 1
        assert finetune_epochs(1) == 1

    def test_all_methods_identical_retention(self, data, artifacts):
        cfg = small_config()
        kept = set()
        for method in METHODS:
            (result,) = run_baseline(method, cfg, data, [artifacts])
            kept.add(result.mask.kept_count())
            assert result.method == method
        assert len(kept) == 1

    def test_unknown_method_rejected(self, data, artifacts):
        with pytest.raises(ConfigurationError, match="unknown method"):
            run_baseline("snip", small_config(), data, [artifacts])

    @pytest.mark.parametrize("method", ["lth", "magnitude", "random"])
    def test_output_respects_mask(self, data, artifacts, method):
        (result,) = run_baseline(method, small_config(), data, [artifacts])
        assert_masked_entries_zero(
            result.params.weights + result.params.biases, result.mask
        )

    def test_lth_identity_mask_reproduces_dense_training(self, data):
        cfg = small_config(omega=1.0)
        (arts,) = train_dense(cfg, data, [cfg.seed])
        (result,) = run_baseline("lth", cfg, data, [arts])
        assert result.mask.kept_count() == param_count(arts.dims)
        assert params_equal(result.params, arts.theta_e)

    def test_magnitude_finetunes_from_theta_e(self, data, artifacts):
        cfg = small_config()
        (result,) = run_baseline("magnitude", cfg, data, [artifacts])
        expected_tag = cfg.epochs + finetune_epochs(cfg.epochs)
        assert result.params.epoch_tag == expected_tag
        assert len(result.round_reports) == 1

    def test_random_trains_from_theta0(self, data, artifacts):
        cfg = small_config()
        (result,) = run_baseline("random", cfg, data, [artifacts])
        oracle_mask = build_random_mask(artifacts.dims, cfg.omega, cfg.seed)
        for a, b in zip(result.mask.weight_keep, oracle_mask.weight_keep):
            assert np.array_equal(a, b)

    def test_only_ballot_runs_and_logs_rounds(self, data, artifacts):
        cfg = small_config(delta=-1.0)
        for method in METHODS:
            (result,) = run_baseline(method, cfg, data, [artifacts])
            report = result_dict(result)
            assert report["rounds"] == len(result.round_reports) - 1
            if method == "ballot":
                assert report["rounds"] >= 1
                assert len(report["rounds_log"]) == report["rounds"] + 1
            else:
                assert report["rounds"] == 0
                assert "rounds_log" not in report

    def test_lth_and_magnitude_share_the_mask(self, data, artifacts):
        cfg = small_config()
        (lth,) = run_baseline("lth", cfg, data, [artifacts])
        (mag,) = run_baseline("magnitude", cfg, data, [artifacts])
        for a, b in zip(lth.mask.weight_keep, mag.mask.weight_keep):
            assert np.array_equal(a, b)
        assert not params_equal(lth.params, mag.params)


class TestLockstep:
    def test_retraining_failure_names_seed_and_epoch(self, data, artifacts):
        cfg = small_config()
        dims = artifacts.dims
        mask = build_random_mask(dims, cfg.omega, seed=3)
        good = apply_mask(artifacts.theta0, mask)
        bad = good.copy()
        bad.weights[0][mask.weight_keep[0]] = 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalFailure,
                               match="retraining epoch 0, seed 7: "):
                _retrain([good, bad].__getitem__, [mask, mask], cfg, data, [4, 7],
                         cfg.epochs, lambda e: lr_at(e, cfg))

    def test_divergence_in_second_shape_group_names_seed_and_epoch(
            self, data, artifacts, monkeypatch):
        # the two masks compact to two shapes and train as one padded
        # stack; seed 7, in slot 1, diverges in its epoch 2
        cfg = small_config()
        dims = artifacts.dims
        masks = [build_random_mask(dims, omega, seed=7) for omega in (0.4, 0.7)]
        assert len({tuple(map(len, live_units(m))) for m in masks}) == 2
        nets = [apply_mask(artifacts.theta0, m) for m in masks]
        batches = math.ceil(data.train.X.shape[0] / cfg.batch_size)
        real_step = pipeline.sgd_step
        steps = []

        def poisoning_step(stack, lr):
            out = real_step(stack, lr)
            steps.append(lr)
            if len(steps) == 2 * batches:
                stack.weights[-1][1][...] = np.inf
            return out

        monkeypatch.setattr(pipeline, "sgd_step", poisoning_step)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalFailure,
                               match="retraining epoch 2, seed 7: "):
                _retrain(nets.__getitem__, masks, cfg, data, [4, 7], cfg.epochs,
                         lambda e: lr_at(e, cfg))

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e308])
    def test_poisoned_hidden_weight_names_phase_epoch_and_seed(
            self, data, artifacts, monkeypatch, value):
        # slot 1's first hidden weights turn to ``value`` after the first
        # step of epoch 2, in dense training and in a padded retraining
        # stack; either check (the loss or the gradient buffer) catches it
        cfg = small_config()
        dims = artifacts.dims
        batches = math.ceil(data.train.X.shape[0] / cfg.batch_size)
        real_step = pipeline.sgd_step
        steps = []

        def poisoning_step(stack, lr):
            out = real_step(stack, lr)
            steps.append(lr)
            if len(steps) == 2 * batches + 1:
                stack.weights[0][1][...] = value
            return out

        monkeypatch.setattr(pipeline, "sgd_step", poisoning_step)
        masks = [build_random_mask(dims, omega, seed=7) for omega in (0.4, 0.7, 0.5)]
        nets = [apply_mask(artifacts.theta0, m) for m in masks]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalFailure,
                               match="dense training epoch 2, seed 5: "):
                train_dense(cfg, data, [4, 5, 6])
            steps.clear()
            with pytest.raises(NumericalFailure,
                               match="retraining epoch 2, seed 7: "):
                _retrain(nets.__getitem__, masks, cfg, data, [4, 7, 9], cfg.epochs,
                         lambda e: lr_at(e, cfg))

    @staticmethod
    def _poison_after_step(monkeypatch, last_step):
        """Set slot 1's first hidden weights to +inf right after SGD step
        ``last_step``, counted from 1, so the next computation on them
        is an evaluation."""
        real_step = pipeline.sgd_step
        steps = []

        def poisoning_step(stack, lr):
            out = real_step(stack, lr)
            steps.append(lr)
            if len(steps) == last_step:
                stack.weights[0][1][...] = np.inf
            return out

        monkeypatch.setattr(pipeline, "sgd_step", poisoning_step)

    def test_dense_evaluation_failure_names_phase_epoch_and_seed(
            self, data, monkeypatch):
        # after the last step of epoch 2 the train-split evaluation of
        # that epoch meets the poisoned weights of seed 5
        cfg = small_config()
        batches = math.ceil(data.train.X.shape[0] / cfg.batch_size)
        self._poison_after_step(monkeypatch, 3 * batches)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalFailure,
                               match="^dense training epoch 2, seed 5: non-finite "
                                     "layer output in forward pass$"):
                train_dense(cfg, data, [4, 5, 6])

    def test_refine_evaluation_failure_names_phase_epoch_and_seed(
            self, data, monkeypatch):
        cfg = small_config()
        arts = train_dense(cfg, data, [4, 5])
        masks = [build_random_mask(a.dims, cfg.omega, seed=3) for a in arts]
        batches = math.ceil(data.train.X.shape[0] / cfg.batch_size)
        self._poison_after_step(monkeypatch, cfg.epochs * batches)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalFailure,
                               match="^retraining epoch 5, seed 5: non-finite "
                                     "layer output in forward pass$"):
                refine("ballot", masks, arts, cfg, data)

    @pytest.mark.parametrize("method, epoch", [("lth", 5), ("magnitude", 0),
                                               ("random", 5)])
    def test_baseline_evaluation_failure_names_phase_epoch_and_seed(
            self, data, monkeypatch, method, epoch):
        # magnitude fine-tunes for one epoch, the others retrain six
        cfg = small_config()
        arts = train_dense(cfg, data, [4, 5])
        batches = math.ceil(data.train.X.shape[0] / cfg.batch_size)
        epochs = finetune_epochs(cfg.epochs) if method == "magnitude" else cfg.epochs
        self._poison_after_step(monkeypatch, epochs * batches)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalFailure,
                               match=f"^retraining epoch {epoch}, seed 5: non-finite "
                                     "layer output in forward pass$"):
                run_baseline(method, cfg, data, arts)

    def test_padded_stack_matches_single_seed_runs_on_random_specs(self, data):
        # three seeds of different compacted shapes on random hidden
        # layers: each slot of the padded stack is within 1e-12 of its
        # single-seed run, and every entry outside its live part keeps
        # its starting bytes, so no padding reaches the full network
        rng = np.random.default_rng(31)
        for trial in range(8):
            hidden = tuple(int(u) for u in rng.integers(2, 13, rng.integers(1, 3)))
            cfg = small_config(hidden=hidden, epochs=3)
            dims = (data.dim, *cfg.hidden, data.n_classes)
            masks = []
            while len({tuple(map(len, live_units(m))) for m in masks}) < 2:
                masks = [build_random_mask(dims, float(rng.uniform(0.3, 0.9)),
                                           int(rng.integers(0, 2**31)))
                         for _ in range(3)]
            starts = [apply_mask(init_network(dims, 10 * trial + r), m)
                      for r, m in enumerate(masks)]
            together = _retrain([p.copy() for p in starts].__getitem__, masks, cfg, data,
                                [0, 1, 2], cfg.epochs, lambda e: lr_at(e, cfg))
            for seed, (start, mask, got) in enumerate(zip(starts, masks, together)):
                (alone,) = _retrain([start.copy()].__getitem__, [mask], cfg, data, [seed],
                                    cfg.epochs, lambda e: lr_at(e, cfg))
                ends = [np.arange(dims[0]), *live_units(mask),
                        np.arange(dims[-1])]
                for i, (rows, cols) in enumerate(zip(ends, ends[1:])):
                    inside_w = np.zeros(start.weights[i].shape, dtype=bool)
                    inside_w[np.ix_(rows, cols)] = True
                    inside_b = np.isin(np.arange(start.biases[i].size), cols)
                    for a, b, was, inside in (
                            (got.weights[i], alone.weights[i], start.weights[i], inside_w),
                            (got.biases[i], alone.biases[i], start.biases[i], inside_b)):
                        assert a[~inside].tobytes() == was[~inside].tobytes()
                        assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max())
                assert_masked_entries_zero(got.weights + got.biases, mask)

    def test_seeds_of_different_compacted_shapes_match_single_seed_runs(
            self, data, artifacts):
        # seeds 0 and 2 share a mask and a stack; seed 1 trains alone
        cfg = small_config()
        dims = artifacts.dims
        masks = [build_random_mask(dims, omega, seed=7) for omega in (0.4, 0.7, 0.4)]
        starts = [apply_mask(artifacts.theta0, m) for m in masks]
        shapes = {tuple(compact_network(p, m)[0].dims) for p, m in zip(starts, masks)}
        assert len(shapes) == 2
        together = _retrain([p.copy() for p in starts].__getitem__, masks, cfg, data,
                            [0, 1, 2], cfg.epochs, lambda e: lr_at(e, cfg),
                            stream_offset=1)
        for seed, (start, mask, got) in enumerate(zip(starts, masks, together)):
            (alone,) = _retrain([start.copy()].__getitem__, [mask], cfg, data, [seed],
                                cfg.epochs, lambda e: lr_at(e, cfg),
                                stream_offset=1)
            assert got.epoch_tag == alone.epoch_tag
            for a, b in zip(got.weights + got.biases, alone.weights + alone.biases):
                assert a.tobytes() == b.tobytes()

    def test_dead_units_leave_retraining_bit_identical(self, data):
        cfg = small_config(hidden=(8, 6))
        dims = (data.dim, *cfg.hidden, data.n_classes)
        mask = build_random_mask(dims, 0.8, seed=5)
        u = int(np.flatnonzero(mask.neuron_keep[0])[0])
        v = int(np.flatnonzero(mask.neuron_keep[1])[0])
        mask.weight_keep[1][u, :] = False  # u keeps its inputs, feeds nothing
        mask.weight_keep[1][:, v] = False  # v keeps its outputs, is fed nothing
        mask.bias_keep[1][v] = False
        assert u not in live_units(mask)[0] and v not in live_units(mask)[1]
        start = apply_mask(init_network(dims, 3), mask)
        assert start.weights[0][:, u].any() and start.weights[2][v, :].any()
        (net,) = _retrain([start.copy()].__getitem__, [mask], cfg, data, [0],
                          cfg.epochs, lambda e: lr_at(e, cfg))

        def dead_entries(p):
            return [p.weights[0][:, u], p.biases[0][u:u + 1], p.weights[1][u, :],
                    p.weights[1][:, v], p.biases[1][v:v + 1], p.weights[2][v, :]]

        for got, was in zip(dead_entries(net), dead_entries(start)):
            assert got.tobytes() == was.tobytes()
        assert not np.array_equal(net.weights[0], start.weights[0])

    def test_lth_retrains_layers_compacted_to_width_zero(self):
        # default config at its default omega 0.05: the lth masks of
        # seeds 0, 2 and 4 leave no live hidden unit at all, seeds 1 and 3
        # one and two per layer; reports pinned from full-width retraining
        app = config_from_dict({})
        data = make_dataset(app.dataset)
        arts = train_dense(app.train, data, [0, 1, 2, 3, 4])
        results = run_baseline("lth", app.train, data, arts)
        widths = [[len(u) for u in live_units(r.mask)] for r in results]
        assert widths == [[0, 0], [1, 1], [0, 0], [2, 2], [0, 0]]
        counts = (140, 20, 20, 20)
        constant = EvalReport(0.7, (1.0, 0.0, 0.0, 0.0), counts, 0.175, 0.25,
                              0.1875, 1.0)
        assert [r.report for r in results] == [
            constant,
            EvalReport(0.735, (0.9785714285714285, 0.0, 0.0, 0.5), counts,
                       0.32080546670543764, 0.36964285714285716,
                       0.16526466836734693, 0.9785714285714285),
            constant,
            EvalReport(0.8, (0.9357142857142857, 0.0, 0.65, 0.8), counts,
                       0.5050354924578527, 0.5964285714285715,
                       0.12878826530612247, 0.9357142857142857),
            constant,
        ]

    def test_refine_rounds_run_only_the_seeds_still_refining(self, data):
        # every method's stack of three seeds against each seed alone;
        # ballot's gate is blocked, so its later rounds train subsets
        cfg = small_config(delta=-1.0, max_rounds=3)
        arts = train_dense(cfg, data, [0, 1, 2])
        masks = [build_random_mask(a.dims, cfg.omega, seed=3) for a in arts]
        for method in METHODS:
            stacked = refine(method, masks, arts, cfg, data)
            for a, mask, got in zip(arts, masks, stacked):
                (alone,) = refine(method, [mask], [a], cfg, data)
                assert got.round_reports == alone.round_reports
                assert got.report == alone.report
                assert params_equal(got.params, alone.params)
            if method == "ballot":
                assert [len(r.round_reports) for r in stacked] == [3, 2, 2]
