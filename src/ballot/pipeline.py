"""Train, prune, refine: the full pipeline and the three baselines.

Dense training optimizes the plain cross-entropy.  Each batch runs one
forward pass and one fused backward pass that serves two losses: the
plain loss drives the SGD step, and the weighted fairness loss only
supplies per-unit pre-activation gradients.  Those gradients of both
losses are accumulated into the conflict ledger, one record per epoch.
The fairness loss reweights classes by the inverse of their
previous-epoch accuracy, so it only starts to differ from the accuracy
loss once per-class accuracies diverge.

Pruning then builds a mask (conflict votes, weight magnitude, or
random), rewinds, and retrains.  The refinement loop accepts the
round-0 result when the pruned model is no less fair and nearly as
accurate as the dense one; otherwise it retries from the early-epoch
snapshot with fresh batch orders and keeps the fairest acceptable
candidate.

Every source of randomness is keyed by (seed, stream, epoch), so any
run is bit-reproducible and a retrained identity-masked network follows
the exact arithmetic of a fresh dense training.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import ConfigurationError, NumericalFailure
from .masks import (
    ConflictLedger,
    Mask,
    build_ballot_mask,
    build_magnitude_mask,
    build_random_mask,
)
from .metrics import (
    ClassWeights,
    EvalReport,
    bias_delta,
    evaluate,
    uniform_class_weights,
    update_class_weights,
)
from .model import (
    Checkpoint,
    LayerSpec,
    NetworkParams,
    apply_mask,
    hidden_sizes,
    init_network,
    sgd_step,
    train_step,
)

METHODS = ("ballot", "lth", "magnitude", "random")


@dataclass
class TrainConfig:
    hidden: tuple = (64, 64)
    epochs: int = 30
    lr0: float = 0.1
    milestone_fractions: tuple = (0.4, 0.6, 0.8)
    batch_size: int = 32
    omega: float = 0.05
    gamma: float = 10.0
    eta: float = 0.95
    rewind_epoch: int = 10
    epsilon: float = 0.05
    delta: float = 0.0
    max_rounds: int = 3
    seed: int = 0

    def validate(self) -> None:
        if not self.hidden or any(int(h) < 1 for h in self.hidden):
            raise ConfigurationError(
                "at least one hidden layer of positive size is required"
            )
        if self.epochs < 1:
            raise ConfigurationError("epochs must be at least 1")
        if not (math.isfinite(self.lr0) and self.lr0 > 0):
            raise ConfigurationError("lr0 must be positive")
        fr = self.milestone_fractions
        if any(not (0.0 < f < 1.0) for f in fr) or list(fr) != sorted(set(fr)):
            raise ConfigurationError(
                "milestone fractions must be strictly increasing inside (0, 1)"
            )
        if self.batch_size < 1:
            raise ConfigurationError("batch size must be at least 1")
        if not (0.0 < self.omega <= 1.0):
            raise ConfigurationError("omega must lie in (0, 1]")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ConfigurationError("gamma must be positive")
        if not (0.0 < self.eta < 1.0):
            raise ConfigurationError("eta must lie in (0, 1)")
        if not (0 <= self.rewind_epoch < self.epochs):
            raise ConfigurationError(
                f"rewind epoch {self.rewind_epoch} must satisfy "
                f"0 <= k < epochs ({self.epochs})"
            )
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ConfigurationError("epsilon must be non-negative")
        if not math.isfinite(self.delta):
            raise ConfigurationError("delta must be finite")
        if self.max_rounds < 1:
            raise ConfigurationError("max_rounds must be at least 1")
        if int(self.seed) < 0:
            raise ConfigurationError("seed must be non-negative")

    def specs_for(self, data: Dataset) -> list[LayerSpec]:
        dims = [data.dim, *self.hidden, data.n_classes]
        return [
            LayerSpec(dims[i], dims[i + 1], "relu" if i + 2 < len(dims) else "none")
            for i in range(len(dims) - 1)
        ]


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
    """Everything dense training leaves behind for the pruners."""

    theta0: Checkpoint
    theta_k: Checkpoint
    theta_e: Checkpoint
    ledger: ConflictLedger
    dense_report: EvalReport
    specs: list[LayerSpec]
    wall_time_s: float


@dataclass
class RoundCandidate:
    round_index: int
    params: NetworkParams
    report: EvalReport


@dataclass
class RefineOutcome:
    params: NetworkParams
    report: EvalReport
    rounds_used: int
    candidates: list


@dataclass
class PruneResult:
    method: str
    mask: Mask
    params: NetworkParams
    report: EvalReport
    dense_report: EvalReport
    rounds_used: int
    retention: float
    wall_time_s: float
    candidates: list = field(default_factory=list)


def _shuffle(stream_seed: int, epoch: int, n: int) -> np.ndarray:
    rng = np.random.default_rng((int(stream_seed), 0, int(epoch)))
    return rng.permutation(n)


def _batches(order: np.ndarray, batch_size: int):
    for start in range(0, order.size, batch_size):
        yield order[start : start + batch_size]


def train_dense(config: TrainConfig, data: Dataset) -> RunArtifacts:
    """Train from scratch for the full epoch budget, recording the
    conflict ledger and snapshotting the initial, rewind-epoch, and
    final weights."""
    config.validate()
    t0 = time.perf_counter()
    specs = config.specs_for(data)
    params = init_network(specs, config.seed)
    theta0 = Checkpoint(params.copy(), specs, epoch=0, seed=config.seed)
    theta_k = theta0 if config.rewind_epoch == 0 else None

    n_classes = data.n_classes
    x, y = data.train.X, data.train.y
    onehot = np.eye(n_classes)[y]
    plain = np.ones(n_classes)
    weights: ClassWeights = uniform_class_weights(n_classes)
    hidden = hidden_sizes(specs)
    ledger = ConflictLedger(hidden)

    for epoch in range(config.epochs):
        lr = lr_at(epoch, config)
        order = _shuffle(config.seed, epoch, x.shape[0])
        acc_a = [np.zeros(h) for h in hidden]
        acc_f = [np.zeros(h) for h in hidden]
        try:
            for idx in _batches(order, config.batch_size):
                grads, (means_a, means_f) = train_step(
                    params, None, x[idx], onehot[idx], specs,
                    (plain, weights.as_array()),
                )
                for i, (ma, mf) in enumerate(zip(means_a, means_f)):
                    acc_a[i] += ma
                    acc_f[i] += mf
                sgd_step(params, grads, lr, None)
        except NumericalFailure as exc:
            raise NumericalFailure(f"dense training epoch {epoch}: {exc}") from exc

        params.epoch_tag = epoch + 1
        ledger.record_epoch(epoch, acc_a, acc_f, config.gamma, config.eta)
        train_report = evaluate(params, None, data.train, specs)
        weights = update_class_weights(train_report, epoch)
        if epoch + 1 == config.rewind_epoch:
            theta_k = Checkpoint(
                params.copy(), specs, epoch=epoch + 1, seed=config.seed
            )

    theta_e = Checkpoint(params.copy(), specs, epoch=config.epochs, seed=config.seed)
    dense_report = evaluate(params, None, data.test, specs)
    return RunArtifacts(
        theta0=theta0,
        theta_k=theta_k,
        theta_e=theta_e,
        ledger=ledger,
        dense_report=dense_report,
        specs=specs,
        wall_time_s=time.perf_counter() - t0,
    )


def _retrain(
    params: NetworkParams,
    mask,
    config: TrainConfig,
    data: Dataset,
    specs: list[LayerSpec],
    stream_seed: int,
    epochs: int,
    lr_fn,
    epoch_offset: int = 0,
    on_epoch_end=None,
) -> NetworkParams:
    """Masked training on the accuracy loss only; batch order comes from
    (stream_seed, epoch_offset + epoch)."""
    x, y = data.train.X, data.train.y
    onehot = np.eye(data.n_classes)[y]
    plain = np.ones(data.n_classes)
    for epoch in range(epochs):
        lr = lr_fn(epoch)
        order = _shuffle(stream_seed, epoch_offset + epoch, x.shape[0])
        try:
            for idx in _batches(order, config.batch_size):
                grads, _ = train_step(
                    params, mask, x[idx], onehot[idx], specs, (plain,)
                )
                sgd_step(params, grads, lr, mask)
        except NumericalFailure as exc:
            raise NumericalFailure(f"retraining epoch {epoch}: {exc}") from exc
        params.epoch_tag += 1
        if on_epoch_end is not None:
            on_epoch_end(epoch, params)
    return params


def refine(
    mask: Mask, artifacts: RunArtifacts, config: TrainConfig, data: Dataset
) -> RefineOutcome:
    """Round 0 retrains the masked initial weights for the full budget.
    If the result is within delta of dense fairness and epsilon of dense
    accuracy it is accepted as-is.  Otherwise up to max_rounds retries
    restart from the rewind-epoch weights with fresh batch orders,
    stopping early once a round stops improving the best CWV, and the
    fairest candidate that keeps the accuracy bound wins (falling back
    to the most accurate candidate when none does)."""
    config.validate()
    specs = artifacts.specs
    dense = artifacts.dense_report
    schedule = lambda e: lr_at(e, config)

    params0 = apply_mask(artifacts.theta0.params, mask)
    _retrain(params0, mask, config, data, specs, config.seed, config.epochs, schedule)
    report0 = evaluate(params0, mask, data.test, specs)
    candidates = [RoundCandidate(0, params0, report0)]

    fair_enough = bias_delta(report0, dense, "cwv") <= config.delta
    accurate_enough = dense.accuracy - report0.accuracy <= config.epsilon
    if fair_enough and accurate_enough:
        return RefineOutcome(params0, report0, 0, candidates)

    best_cwv = report0.cwv
    rounds_used = 0
    for r in range(1, config.max_rounds + 1):
        p = apply_mask(artifacts.theta_k.params, mask)
        _retrain(p, mask, config, data, specs, config.seed + r, config.epochs, schedule)
        rep = evaluate(p, mask, data.test, specs)
        candidates.append(RoundCandidate(r, p, rep))
        rounds_used = r
        if rep.cwv < best_cwv:
            best_cwv = rep.cwv
        else:
            break

    feasible = [
        c for c in candidates if dense.accuracy - c.report.accuracy <= config.epsilon
    ]
    if feasible:
        best = min(feasible, key=lambda c: (c.report.cwv, c.round_index))
    else:
        best = min(candidates, key=lambda c: (-c.report.accuracy, c.round_index))
    return RefineOutcome(best.params, best.report, rounds_used, candidates)


def finetune_epochs(total_epochs: int) -> int:
    return max(1, total_epochs // 5)


def fix_model(
    config: TrainConfig, data: Dataset, artifacts: RunArtifacts | None = None
) -> PruneResult:
    """The full conflict-vote pipeline: dense training (reused when
    provided), ballot mask, rewind-and-refine."""
    t0 = time.perf_counter()
    if artifacts is None:
        artifacts = train_dense(config, data)
    mask = build_ballot_mask(
        artifacts.ledger, artifacts.specs, config.omega, artifacts.theta_e.params
    )
    outcome = refine(mask, artifacts, config, data)
    return PruneResult(
        method="ballot",
        mask=mask,
        params=outcome.params,
        report=outcome.report,
        dense_report=artifacts.dense_report,
        rounds_used=outcome.rounds_used,
        retention=mask.retention(),
        wall_time_s=time.perf_counter() - t0,
        candidates=[(c.round_index, c.report) for c in outcome.candidates],
    )


def run_baseline(
    method: str,
    config: TrainConfig,
    data: Dataset,
    artifacts: RunArtifacts | None = None,
) -> PruneResult:
    """The three comparison pruners, all landing on the same retention.

    lth:        magnitude mask from the final weights, rewind to the
                initial weights, retrain the full budget.
    magnitude:  same mask, no rewind; fine-tune the masked final weights
                for max(1, epochs // 5) epochs at the final step size.
    random:     seed-determined unit removal from the initial weights,
                then train the full budget.
    """
    if method == "ballot":
        return fix_model(config, data, artifacts)
    if method not in METHODS:
        raise ConfigurationError(
            f"unknown method '{method}', expected one of {METHODS}"
        )
    config.validate()
    t0 = time.perf_counter()
    if artifacts is None:
        artifacts = train_dense(config, data)
    specs = artifacts.specs
    schedule = lambda e: lr_at(e, config)

    if method == "lth":
        mask = build_magnitude_mask(artifacts.theta_e.params, specs, config.omega)
        params = apply_mask(artifacts.theta0.params, mask)
        _retrain(params, mask, config, data, specs, config.seed, config.epochs, schedule)
    elif method == "magnitude":
        mask = build_magnitude_mask(artifacts.theta_e.params, specs, config.omega)
        params = apply_mask(artifacts.theta_e.params, mask)
        final_lr = lr_at(config.epochs - 1, config)
        _retrain(
            params,
            mask,
            config,
            data,
            specs,
            config.seed,
            finetune_epochs(config.epochs),
            lambda e: final_lr,
            epoch_offset=config.epochs,
        )
    else:
        mask = build_random_mask(specs, config.omega, config.seed)
        params = apply_mask(artifacts.theta0.params, mask)
        _retrain(params, mask, config, data, specs, config.seed, config.epochs, schedule)

    report = evaluate(params, mask, data.test, specs)
    return PruneResult(
        method=method,
        mask=mask,
        params=params,
        report=report,
        dense_report=artifacts.dense_report,
        rounds_used=0,
        retention=mask.retention(),
        wall_time_s=time.perf_counter() - t0,
    )
