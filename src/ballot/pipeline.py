"""Train, prune, refine: the full pipeline and the three baselines.

Dense training optimizes the plain cross-entropy.  Each batch runs one
forward and one backward pass, which drives the SGD step and yields
per-unit pre-activation gradients of the plain and of the weighted
fairness loss as one [2, seeds, hidden units] array, summed over the
epoch into the conflict ledgers, one record per epoch.  The fairness
loss reweights classes by the inverse of their previous-epoch accuracy,
so it only starts to differ from the accuracy loss once per-class
accuracies diverge.

Pruning then builds a mask (conflict votes, weight magnitude, or
random), rewinds, and retrains, every method through ``refine``.  For
ballot, the refinement loop accepts the round-0 result when the pruned
model is no less fair and nearly as accurate as the dense one;
otherwise it retries from the early-epoch snapshot with a shifted
seed's batch orders and keeps the fairest acceptable round.  Only the
weights of the round that can still win are kept; all reports are.  A
``PruneResult`` holds only what ``refine`` decided; its retention and
round count are derived by ``reporting``.

Every phase takes a list of seeds and trains one network per seed in
lockstep: the networks are stacked on a leading seed axis and stepped
together, one epoch and one batch at a time, each seed with its own
batch order, ledger, class weights and refinement decisions; a single
run is a list of one.

Each network is held once, at the shape where it is used.  Dense
training keeps no copy of the initial weights: rewinding rebuilds them
from the seed (``RunArtifacts.theta0``).  Retraining after pruning runs
at the compacted shape: each start network is reduced straight to its
masked live hidden units, padded with dead units to the widest live
count of the call so that all seeds train in one stack, and only after
the stack is freed scattered into the full-shape network that
checkpoints and reports use, one seed at a time: each result is
evaluated, and kept or dropped, before the next one is expanded.
Padding changes matmul shapes, so a seed's retrained weights may differ
in their last bits from its single-seed run.

Every source of randomness is keyed by a seed, so any run is
bit-reproducible and a retrained identity-masked network follows the
exact arithmetic of a fresh dense training.  Batch orders are keyed by
(seed + round, 0, epoch): ballot's round r of seed s reuses seed s + r's.
``init_network``, ``build_random_mask`` and, if the data seed is the
same, ``gen_synthetic`` all draw from ``default_rng(seed)``.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .config import METHODS, TrainConfig
from .data import Dataset, split_blocks
from .errors import ConfigurationError, NumericalFailure
from .masks import (
    ConflictLedger,
    Mask,
    build_ballot_mask,
    build_magnitude_mask,
    build_random_mask,
)
from .metrics import EvalReport, bias_delta, evaluate, update_class_weights
from .model import (
    NetworkParams,
    ParamStack,
    apply_mask,
    compact_network,
    expand_network,
    init_network,
    live_units,
    sgd_step,
    stack_params,
    train_step,
)

def lr_at(epoch: int, config: TrainConfig) -> float:
    """Step schedule: lr0 divided by 10 at each passed milestone, where
    milestone m sits at floor(fraction_m * epochs)."""
    if not (0 <= epoch < config.epochs):
        raise ConfigurationError(
            f"epoch {epoch} outside [0, {config.epochs})"
        )
    passed = sum(
        1 for f in config.milestone_fractions
        if epoch >= math.floor(f * config.epochs)
    )
    return config.lr0 * 0.1 ** passed


@dataclass
class RunArtifacts:
    """Everything dense training leaves behind for the pruners: the
    rewind-epoch and final weights, the conflict ledger and the dense
    test report.  The initial weights are not held; ``theta0`` rebuilds
    them from the seed."""

    theta_k: NetworkParams
    theta_e: NetworkParams
    ledger: ConflictLedger
    dense_report: EvalReport
    wall_time_s: float

    @property
    def dims(self) -> tuple[int, ...]:
        return self.theta_e.dims

    @property
    def seed(self) -> int:
        return self.theta_e.seed

    @property
    def theta0(self) -> NetworkParams:
        """The initial weights, a fresh network on every call, bit for
        bit those dense training started from (``init_network``)."""
        return init_network(self.dims, self.seed)


@dataclass
class PruneResult:
    """What ``refine`` decided for one seed: the mask, the winning round's
    weights and test report, and every round's test report in round
    order, round 0 first."""

    method: str
    mask: Mask
    params: NetworkParams
    report: EvalReport
    round_reports: list[EvalReport]
    wall_time_s: float


def _shuffle(stream_seeds: list[int], epoch: int, n: int) -> np.ndarray:
    """One batch order per stream seed, stacked: [R, n]."""
    return np.stack([
        np.random.default_rng((int(s), 0, int(epoch))).permutation(n)
        for s in stream_seeds
    ])


def _batches(orders: np.ndarray, batch_size: int):
    for start in range(0, orders.shape[1], batch_size):
        yield orders[:, start : start + batch_size]


def _failure(phase: str, epoch: int, seed: int, exc: NumericalFailure):
    """A kernel's or an evaluation's failure, naming the phase, the epoch
    and the seed."""
    return NumericalFailure(f"{phase} epoch {epoch}, seed {seed}: {exc}")


def _evaluate(params: NetworkParams, split, phase: str, epoch: int, seed: int) -> EvalReport:
    """``evaluate`` of the weights that ``phase`` left after ``epoch``;
    a non-finite layer output names the phase, the epoch and the seed."""
    try:
        return evaluate(params, split_blocks(split))
    except NumericalFailure as exc:
        raise _failure(phase, epoch, seed, exc) from exc


def train_dense(
    config: TrainConfig, data: Dataset, seeds: list[int]
) -> list[RunArtifacts]:
    """Train one freshly initialized network per seed for the full epoch
    budget, all seeds in lockstep, recording each seed's conflict ledger
    and snapshotting its rewind-epoch and final weights; the initial
    weights are rebuilt from the seed when needed, not kept.  The
    network's layer widths are ``(data.dim, *config.hidden,
    data.n_classes)``.  The gradient buffer lives through each epoch's
    batches only, not through the evaluations after them.  Each seed's
    ``wall_time_s`` is an equal share of the whole run."""
    t0 = time.perf_counter()
    dims = (data.dim, *config.hidden, data.n_classes)
    nets = [init_network(dims, s) for s in seeds]
    flat = stack_params(nets).flat  # each network's arrays view its row

    x, onehot = data.train.X, data.train_onehot
    fair = np.ones((len(seeds), data.n_classes))
    ledgers = [ConflictLedger(config.hidden) for _ in seeds]

    for epoch in range(config.epochs):
        if epoch == config.rewind_epoch:
            theta_k = [p.copy() for p in nets]
        lr = lr_at(epoch, config)
        acc = np.zeros((2, len(seeds), sum(config.hidden)))
        stack = ParamStack(flat, dims)
        try:
            for idx in _batches(_shuffle(seeds, epoch, x.shape[0]), config.batch_size):
                acc += train_step(stack, x[idx], onehot[idx], fair)
                sgd_step(stack, lr)
        except NumericalFailure as exc:
            raise _failure("dense training", epoch, seeds[exc.index], exc) from exc
        del stack  # its gradient buffer is idle until the next epoch

        fair_rows = []
        for r, (params, ledger) in enumerate(zip(nets, ledgers)):
            params.epoch_tag = epoch + 1
            ledger.record_epoch(epoch, acc[0, r], acc[1, r], config.gamma, config.eta)
            train_report = _evaluate(params, data.train, "dense training", epoch, seeds[r])
            fair_rows.append(update_class_weights(train_report))
        fair = np.stack(fair_rows)

    dense_reports = [
        _evaluate(p, data.test, "dense training", config.epochs - 1, s)
        for p, s in zip(nets, seeds)
    ]
    share = (time.perf_counter() - t0) / len(seeds)
    return [
        RunArtifacts(
            theta_k=theta_k[r],
            theta_e=p.copy(),
            ledger=ledgers[r],
            dense_report=dense_reports[r],
            wall_time_s=share,
        )
        for r, p in enumerate(nets)
    ]


def _retrain(
    start,
    masks: list[Mask],
    config: TrainConfig,
    data: Dataset,
    seeds: list[int],
    epochs: int,
    lr_fn,
    stream_offset: int = 0,
    epoch_offset: int = 0,
) -> Iterator[NetworkParams]:
    """Masked training of one network per mask on the accuracy loss
    only; network i starts from ``start(i)``, a full-shape network that
    need not hold the mask's zeros and is left unchanged, and its batch
    order comes from (seeds[i] + stream_offset, epoch_offset + epoch).
    Training runs in the call, which returns an iterator of the results
    in mask order.

    Each network trains at its compacted shape (``compact_network``):
    only its live hidden units, with the entries its mask trims among
    them stored as +0.0 and flagged in the stack's keep flags, so they
    stay +0.0, padded to the widest live count of the call, so all the
    networks train in lockstep as one stack.  ``start(i)`` is called once
    before training and once after, so no full-shape network is held
    while the stack trains, and a start rebuilt on each call (``theta0``)
    is not held at all.  Once the stack, its gradient and its keep flags
    are freed, each result is scattered into a fresh ``apply_mask`` of
    its start, only as the iterator reaches it, so a caller that drops
    each result before taking the next holds one full-shape result at a
    time: entries outside the live units keep their masked start values."""
    widths = [max(map(len, col)) for col in zip(*map(live_units, masks))]
    smalls, keeps = zip(*(compact_network(start(i), m, widths) for i, m in enumerate(masks)))
    stack = stack_params(list(smalls), keeps)
    streams = [s + stream_offset for s in seeds]
    x, onehot = data.train.X, data.train_onehot
    for epoch in range(epochs):
        lr = lr_fn(epoch)
        orders = _shuffle(streams, epoch_offset + epoch, x.shape[0])
        try:
            for idx in _batches(orders, config.batch_size):
                train_step(stack, x[idx], onehot[idx])
                sgd_step(stack, lr)
        except NumericalFailure as exc:
            raise _failure("retraining", epoch, seeds[exc.index], exc) from exc
    del stack  # the smalls still view the stacked weights

    def expand(i: int) -> NetworkParams:
        params = expand_network(smalls[i], apply_mask(start(i), masks[i]), masks[i])
        params.epoch_tag += epochs
        return params
    return map(expand, range(len(masks)))


def finetune_epochs(total_epochs: int) -> int:
    return max(1, total_epochs // 5)


def _standing(report: EvalReport, dense_accuracy: float, epsilon: float) -> tuple:
    """A refinement round's sort key, least best.  A round is feasible
    when it loses at most ``epsilon`` of ``dense_accuracy``; the winner
    is the feasible round of least CWV, else the most accurate round.  A
    round displaces the winner of the rounds before it only on a strictly
    smaller key, so the earliest round wins a tie."""
    feasible = dense_accuracy - report.accuracy <= epsilon
    return (not feasible, report.cwv if feasible else -report.accuracy)


def refine(
    method: str, masks: list[Mask], artifacts: list[RunArtifacts],
    config: TrainConfig, data: Dataset, since: float | None = None,
) -> list[PruneResult]:
    """Retrain one mask per seed, all seeds in lockstep, and select one
    result per seed.  Round 0 is each method's recipe:

    lth:        rewind to the initial weights, retrain the full budget.
    random:     train the full budget from the initial weights.
    magnitude:  no rewind; fine-tune the masked final weights for
                max(1, epochs // 5) epochs at the final step size, the
                batch orders continuing dense training's epochs.
    ballot:     as lth.  If the result is within delta of dense fairness
                and epsilon of dense accuracy it is accepted as-is.
                Otherwise up to max_rounds retries restart from the
                rewind-epoch weights, round r with the batch orders of
                seed + r (see the module notes), stopping early once a
                round stops improving the best CWV, and the fairest
                round that keeps the accuracy bound wins (falling back
                to the most accurate round when none does; see
                ``_standing``).  Round r trains only the seeds still
                refining; the weights of a round are dropped as soon as
                a round beats it, so at most one full-shape candidate
                per seed outlives its round, and a round holds one new
                full-shape result at a time besides them.

    Every method's result keeps each round's test report in
    ``round_reports``, round 0 first; all but ballot run round 0 only.
    The initial weights are rebuilt from each seed (``theta0``) as round
    0 needs them.  Each seed's ``wall_time_s`` is its share of every
    round it took part in, timed from ``since`` (a ``time.perf_counter``
    reading, the call's start by default), so round 0's share includes
    the mask building of a caller that passes its start."""
    seeds = [a.seed for a in artifacts]
    if method == "magnitude":
        final_lr = lr_at(config.epochs - 1, config)
        epochs, schedule = finetune_epochs(config.epochs), lambda e: final_lr
        offset = config.epochs
    else:
        epochs, schedule, offset = config.epochs, lambda e: lr_at(e, config), 0
    spent = [0.0] * len(artifacts)
    clock = time.perf_counter() if since is None else since

    refining = list(range(len(artifacts)))
    reports = [[] for _ in artifacts]  # every round's report
    # per seed, (standing, params, report) of the round that can still win
    best = [None] * len(artifacts)
    for r_index in range(config.max_rounds + 1 if method == "ballot" else 1):
        if not refining:
            break
        snapshot = ("theta_e" if method == "magnitude"
                    else "theta_k" if r_index else "theta0")
        nets = _retrain(
            lambda i: getattr(artifacts[refining[i]], snapshot),
            [masks[r] for r in refining], config, data,
            [seeds[r] for r in refining], epochs, schedule,
            stream_offset=r_index, epoch_offset=offset,
        )
        still = []
        for r, params in zip(refining, nets):
            report = _evaluate(params, data.test, "retraining", epochs - 1, seeds[r])
            dense = artifacts[r].dense_report
            standing = _standing(report, dense.accuracy, config.epsilon)
            if r_index == 0:
                # the gate: accept round 0 if it is fair and accurate enough
                keep_going = bias_delta(report, dense) > config.delta or standing[0]
            else:
                keep_going = report.cwv < reports[r][-1].cwv
            if r_index == 0 or standing < best[r][0]:
                best[r] = (standing, params, report)
            reports[r].append(report)
            if keep_going:
                still.append(r)
            # a losing result must not outlive its evaluation
            del params
        del nets
        now = time.perf_counter()
        for r in refining:
            spent[r] += (now - clock) / len(refining)
        clock, refining = now, still

    return [
        PruneResult(method=method, mask=mask, params=params, report=report,
                    round_reports=reps, wall_time_s=wall)
        for mask, (_, params, report), reps, wall in zip(masks, best, reports, spent)
    ]


def run_baseline(
    method: str,
    config: TrainConfig,
    data: Dataset,
    artifacts: list[RunArtifacts],
) -> list[PruneResult]:
    """One pruner on dense training's artifacts, one result per seed, all
    seeds in lockstep: build each seed's mask, all at the same retention,
    and ``refine`` it.  Ballot's masks come from the conflict ledger, lth's
    and magnitude's from the final weights' magnitudes, and random's from
    seed-determined unit removal.  Each seed's ``wall_time_s`` is its
    share of the mask building and of every round it ran."""
    if method not in METHODS:
        raise ConfigurationError(
            f"unknown method '{method}', expected one of {METHODS}"
        )
    since = time.perf_counter()
    if method == "ballot":
        masks = [build_ballot_mask(a.ledger, config.omega, a.theta_e) for a in artifacts]
    elif method == "random":
        masks = [build_random_mask(a.dims, config.omega, a.seed) for a in artifacts]
    else:
        masks = [build_magnitude_mask(a.theta_e, config.omega) for a in artifacts]
    return refine(method, masks, artifacts, config, data, since)
