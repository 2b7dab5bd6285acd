"""The eight acceptance checks, one test per criterion.

Each test gathers all its evidence, then emits a single verdict line
(echoed in the terminal summary) and asserts.  Stated runtime limits
are asserted along with the correctness conditions.
"""

import json
import math
import re
import time

import numpy as np

from ballot.cli import main as cli_main
from ballot.data import DatasetSpec, Split, SyntheticSpec, make_dataset, split_blocks
from ballot.errors import InfeasibleMaskError
from ballot.masks import (
    ConflictLedger,
    build_ballot_mask,
    build_magnitude_mask,
    build_random_mask,
    conflict_scores,
    positive_score_threshold,
)
from ballot.metrics import evaluate, report_from_predictions
from ballot.model import cross_entropy, param_count, stack_params, train_step
from ballot.pipeline import TrainConfig, refine, run_baseline, train_dense
from ballot.reporting import result_dict

from conftest import (
    ACCEPTANCE_LINES,
    brute_force_report,
    logits,
    per_layer,
    random_net,
    reference_loss,
    small_config,
    small_dataset,
)


def _verdict(n: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print("\n" + line)


def _flat_values(params):
    parts = []
    for w, b in zip(params.weights, params.biases):
        parts.append(w.reshape(-1))
        parts.append(np.asarray(b))
    return np.concatenate(parts)


def _flat_keep(mask):
    parts = []
    for wk, bk in zip(mask.weight_keep, mask.bias_keep):
        parts.append(wk.reshape(-1))
        parts.append(bk)
    return np.concatenate(parts)


def test_criterion_1_metric_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    scalar_keys = ("accuracy", "cwv", "mcd", "macro_precision", "macro_recall")

    for _ in range(1000):
        c = int(rng.integers(2, 11))
        n = int(rng.integers(c, 501))
        y_true = np.concatenate([np.arange(c), rng.integers(0, c, n - c)])
        rng.shuffle(y_true)
        y_pred = rng.integers(0, c, n)
        rep = report_from_predictions(y_true, y_pred, c)
        ref = brute_force_report(y_true.tolist(), y_pred.tolist(), c)
        for key in scalar_keys:
            worst = max(worst, abs(getattr(rep, key) - ref[key]))
        for a, b in zip(rep.per_class_acc, ref["per_class_acc"]):
            worst = max(worst, abs(a - b))

    # the same recount also pins the full evaluate() chain on live nets
    for _ in range(20):
        dims, params = random_net(rng, max_units=6)
        c = dims[-1]
        n = int(rng.integers(c, 60))
        x = rng.normal(size=(n, dims[0]))
        y = np.concatenate([np.arange(c), rng.integers(0, c, n - c)])
        rep = evaluate(params, split_blocks(Split(X=x, y=y)))
        ref = brute_force_report(y.tolist(), logits(params, x).argmax(axis=1).tolist(), c)
        for key in scalar_keys:
            worst = max(worst, abs(getattr(rep, key) - ref[key]))

    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    _verdict(1, ok, f"metric error vs brute force {worst:.2e} "
                    f"(limit 1e-12), {elapsed:.1f}s of 5s")
    assert ok


def _smallest_clearing_shift(col, margin):
    target = margin * 1.5
    candidates = [s for z in col for s in (target - z, -target - z)]
    ok = [s for s in candidates if np.abs(col + s).min() >= margin]
    return min(ok, key=abs)


def _clear_relu_margins(params, x, margin=0.1):
    """Shift biases until every relu pre-activation clears the margin.

    Finite differences are only valid away from the relu kink; the
    margin comfortably covers the reach of a 1e-5 parameter step."""
    h, last = x, len(params.weights) - 1
    for li in range(last + 1):
        z = h @ params.weights[li] + params.biases[li]
        if li == last:
            h = z
            continue
        for u in range(z.shape[1]):
            col = z[:, u]
            if np.abs(col).min() < margin:
                shift = _smallest_clearing_shift(col, margin)
                params.biases[li][u] += shift
                z[:, u] = col + shift
        h = np.maximum(z, 0.0)


def _gradients(params, x, y, class_w):
    """What one ``train_step`` computes of each loss, on a stack of one,
    slot 0, as (array, analytic gradient) pairs.  The plain loss: every
    parameter's gradient.  The weighted loss: every bias's, which is the
    batch sum of its unit's pre-activation gradient, n times the mean
    the step returns for a hidden unit, sliced layer by layer from its
    flat means, and for an output unit the batch sum of
    ``cross_entropy``'s dlogits with row n scaled by the weight of sample
    n's class.  The network's arrays become views of the stack, so the
    perturbations below still reach the oracle."""
    stack = stack_params([params])
    means_f = train_step(stack, x[None], y[None], class_w[None])[1, 0]
    plain = [(arr, g[0].copy()) for arr, g in zip(
        params.weights + params.biases, stack.grad_weights + stack.grad_biases)]
    _, dlogits = cross_entropy(logits(params, x)[None], y[None])
    fair_out = ((y @ class_w)[:, None] * dlogits[0]).sum(axis=0)
    fair_bias = [x.shape[0] * m for m in per_layer(means_f, params.dims)] + [fair_out]
    return {"a": plain, "f": list(zip(params.biases, fair_bias))}


def test_criterion_2_gradients_match_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    h = 1e-5
    worst = 0.0

    for _ in range(50):
        dims, params = random_net(rng, max_hidden_layers=2, max_units=32)
        c = dims[-1]
        batch = int(rng.integers(1, 17))
        x = rng.normal(size=(batch, dims[0]))
        y = np.eye(c)[rng.integers(0, c, batch)]
        weights_f = rng.uniform(0.2, 5.0, c)
        _clear_relu_margins(params, x)

        losses = {"a": np.ones(c), "f": weights_f}
        grads = _gradients(params, x, y, weights_f)

        for name, cw in losses.items():
            for arr, analytic in grads[name]:
                for idx in np.ndindex(*arr.shape):
                    orig = arr[idx]
                    arr[idx] = orig + h
                    up = reference_loss(params.weights, params.biases, x, y, cw)
                    arr[idx] = orig - h
                    down = reference_loss(params.weights, params.biases, x, y, cw)
                    arr[idx] = orig
                    fd = (up - down) / (2 * h)
                    rel = abs(analytic[idx] - fd) / max(1.0, abs(fd))
                    worst = max(worst, rel)

    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 60.0
    _verdict(2, ok, f"worst gradient rel error {worst:.2e} "
                    f"(limit 1e-5), {elapsed:.1f}s of 60s")
    assert ok


def _magnitude_oracle(params, dims, k):
    """Brute-force top-k-|weight|: sort every maskable entry, keep the
    strongest, force output biases, then apply the same layer-alive
    swap rule the builder documents.  Plain lists throughout."""
    vals = _flat_values(params).tolist()
    total = len(vals)
    n_out = dims[-1]
    base, off = [], 0
    for d_in, d_out in zip(dims, dims[1:]):
        base.append(off)
        off += d_in * d_out + d_out
    spans = [
        (base[i], base[i + 1] + dims[i + 1] * dims[i + 2])
        for i in range(len(dims) - 2)
    ]

    keep = [False] * total
    for j in range(total - n_out, total):
        keep[j] = True
    ranked = sorted(
        (j for j in range(total - n_out)), key=lambda j: (-abs(vals[j]), j)
    )
    for j in ranked[: k - n_out]:
        keep[j] = True

    forced = set()
    for lo, hi in spans:
        if any(keep[lo:hi]):
            continue
        add = min((j for j in range(lo, hi) if not keep[j]),
                  key=lambda j: (-abs(vals[j]), j))
        keep[add] = True
        forced.add(add)
        evicted = False
        for j in reversed(ranked):
            if not keep[j] or j in forced:
                continue
            if all(sum(keep[a:b]) >= 2 for a, b in spans if a <= j < b):
                keep[j] = False
                evicted = True
                break
        if not evicted:
            return None
    return np.array(keep)


def test_criterion_3_mask_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    violations = []

    for trial in range(100):
        dims, params = random_net(rng, max_hidden_layers=2, max_units=8)
        total = param_count(dims)
        n_out = dims[-1]

        ledger = ConflictLedger(dims[1:-1])
        for epoch in range(3):
            ledger.record_epoch(
                epoch,
                np.concatenate([rng.normal(size=s) for s in ledger.sizes]),
                np.concatenate([rng.normal(size=s) for s in ledger.sizes]),
                gamma=10.0,
                eta=0.95,
            )

        while True:
            omega = float(rng.uniform(n_out / total, 1.0))
            k = math.floor(omega * total)
            if k < n_out:
                continue
            try:
                built = {
                    "ballot": build_ballot_mask(ledger, omega, params),
                    "magnitude": build_magnitude_mask(params, omega),
                    "random": build_random_mask(dims, omega, seed=trial),
                }
            except InfeasibleMaskError:
                continue
            break

        for name, mask in built.items():
            if mask.kept_count() != k:
                violations.append((trial, name, "kept", mask.kept_count(), k))
            for layer, keep in enumerate(mask.neuron_keep):
                if not keep.any():
                    violations.append((trial, name, "emptied layer", layer))

        oracle = _magnitude_oracle(params, dims, k)
        if oracle is None or not np.array_equal(
            _flat_keep(built["magnitude"]), oracle
        ):
            violations.append((trial, "magnitude", "oracle mismatch"))

    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 30.0
    _verdict(3, ok, f"3 builders x 100 networks exact, "
                    f"{len(violations)} violations, {elapsed:.1f}s of 30s")
    assert ok, violations[:5]


def test_criterion_4_conflict_rule():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    violations = []

    for trial in range(1000):
        sizes = [int(rng.integers(1, 9))
                 for _ in range(int(rng.integers(1, 3)))]
        gamma = float(rng.uniform(0.1, 20.0))
        eta = float(rng.uniform(0.05, 0.95))
        c = float(2.0 ** rng.integers(-8, 9))
        epochs = [
            (
                np.concatenate([_sprinkle_zeros(rng.normal(size=s), rng) for s in sizes]),
                np.concatenate([_sprinkle_zeros(rng.normal(size=s), rng) for s in sizes]),
            )
            for _ in range(3)
        ]

        base = ConflictLedger(sizes)
        scaled = ConflictLedger(sizes)
        for epoch, (ga, gf) in enumerate(epochs):
            base.record_epoch(epoch, ga, gf, gamma, eta)
            scaled.record_epoch(epoch, ga, c * gf, gamma / c, eta)
        if not np.array_equal(base.counts, scaled.counts):
            violations.append((trial, "counts not scale-invariant"))
        if not np.array_equal(base.cum_scores, scaled.cum_scores):
            violations.append((trial, "scores not scale-invariant"))

        ga, gf = epochs[0]
        scores = conflict_scores(ga, gf, gamma)
        opposed = np.sign(ga) * np.sign(gf) < 0
        if not (scores[~opposed] == 0.0).all():
            violations.append((trial, "same-sign score nonzero"))
        expect = np.abs(ga) + gamma * np.abs(gf)
        if not (scores[opposed] == expect[opposed]).all():
            violations.append((trial, "opposite-sign score wrong"))

        thr = positive_score_threshold(scores, eta)
        pos = np.sort(scores[scores > 0.0])
        if pos.size == 0:
            if thr is not None:
                violations.append((trial, "threshold on empty set"))
        else:
            oracle = pos[min(math.ceil(eta * pos.size), pos.size - 1)]
            if thr != oracle:
                violations.append((trial, "threshold rank mismatch"))

    elapsed = time.perf_counter() - start
    ok = not violations
    _verdict(4, ok, f"conflict scoring rules exact on 1000 random ledgers, "
                    f"{len(violations)} violations, {elapsed:.1f}s")
    assert ok, violations[:5]


def _sprinkle_zeros(vec, rng):
    vec[rng.random(vec.size) < 0.15] = 0.0
    return vec


def test_criterion_5_fairness_ordering():
    start = time.perf_counter()
    data = make_dataset(DatasetSpec(synthetic=SyntheticSpec()))
    cfg = TrainConfig(hidden=(64, 64), epochs=30, omega=0.2)
    arts = train_dense(cfg, data, list(range(10)))
    reports = {"dense": [a.dense_report for a in arts]}
    for method in ("ballot", "magnitude", "random"):
        reports[method] = [r.report for r in run_baseline(method, cfg, data, arts)]
    cwvs = {m: [rep.cwv for rep in reps] for m, reps in reports.items()}
    accs = {m: [rep.accuracy for rep in reps] for m, reps in reports.items()}

    med_cwv = {m: float(np.median(v)) for m, v in cwvs.items()}
    med_acc = {m: float(np.median(v)) for m, v in accs.items()}
    elapsed = time.perf_counter() - start
    ok = (
        med_cwv["ballot"] <= med_cwv["random"]
        and med_cwv["ballot"] <= med_cwv["magnitude"]
        and med_acc["ballot"] >= med_acc["dense"] - 0.05
        and elapsed < 600.0
    )
    _verdict(5, ok,
             f"median cwv ballot {med_cwv['ballot']:.4f} <= "
             f"random {med_cwv['random']:.4f} and "
             f"magnitude {med_cwv['magnitude']:.4f}; acc ballot "
             f"{med_acc['ballot']:.3f} >= dense {med_acc['dense']:.3f} - 0.05; "
             f"{elapsed:.0f}s of 600s")
    assert ok, (med_cwv, med_acc)


def test_criterion_6_refinement_semantics():
    start = time.perf_counter()
    data = small_dataset()
    problems = []

    cfg = small_config(delta=-1.0, max_rounds=3)
    (arts,) = train_dense(cfg, data, [cfg.seed])
    mask = build_random_mask(arts.dims, cfg.omega, seed=3)
    (blocked,) = refine("ballot", [mask], [arts], cfg, data)
    logged = result_dict(blocked)
    rounds_used = logged["rounds"]
    rounds = [entry["round"] for entry in logged["rounds_log"]]
    if rounds != list(range(rounds_used + 1)):
        problems.append(f"round log {rounds} does not match "
                        f"rounds_used {rounds_used}")
    if rounds_used < cfg.max_rounds:
        cwv_log = [report.cwv for report in blocked.round_reports]
        if cwv_log[-1] < min(cwv_log[:-1]):
            problems.append("stopped early despite an improving round")
    elif rounds_used != cfg.max_rounds:
        problems.append(f"ran {rounds_used} rounds past the cap")

    feasible = [
        (r, report) for r, report in enumerate(blocked.round_reports)
        if arts.dense_report.accuracy - report.accuracy <= cfg.epsilon
    ]
    if feasible:
        best = min(feasible, key=lambda cand: (cand[1].cwv, cand[0]))
    else:
        best = min(enumerate(blocked.round_reports),
                   key=lambda cand: (-cand[1].accuracy, cand[0]))
    if blocked.report != best[1]:
        problems.append("returned candidate is not the log minimizer")

    open_cfg = small_config(delta=1.0, epsilon=1.0, max_rounds=3)
    (passed,) = refine("ballot", [mask],
                       train_dense(open_cfg, data, [open_cfg.seed]), open_cfg, data)
    if len(passed.round_reports) != 1:
        problems.append(f"satisfied gate still used "
                        f"{len(passed.round_reports) - 1} rounds")

    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 180.0
    _verdict(6, ok, f"blocked gate ran {rounds_used} of "
                    f"{cfg.max_rounds} rounds, open gate 0; "
                    f"{len(problems)} problems, {elapsed:.1f}s of 180s")
    assert ok, problems


WALL_LINE = re.compile(r'^\s*"wall_time_s": [^,\n]*,?$\n?', re.MULTILINE)


def test_criterion_7_experiment_determinism(tmp_path):
    start = time.perf_counter()
    raw = {
        "model": {"hidden": [16, 16]},
        "train": {"epochs": 10, "batch": 32},
        "prune": {"omega": 0.2},
        "refine": {"rewind_epoch": 4, "max_rounds": 3},
        "data": {"synthetic": {"counts": [120, 30, 30, 30], "dim": 10,
                               "std": 1.0, "seed": 0}},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))

    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli_main(["experiment", "--seeds", "2", "--config", str(config),
                         "--out", str(out)])
        assert code == 0
        outs.append(out)

    problems = []
    listings = [sorted(p.relative_to(out).as_posix()
                       for p in out.rglob("*") if p.is_file())
                for out in outs]
    if listings[0] != listings[1]:
        problems.append("output file listings differ")
    for rel in listings[0]:
        if rel.endswith(".csv"):
            a, b = ("\n".join(line.rsplit(",", 1)[0]
                              for line in (out / rel).read_text().splitlines())
                    for out in outs)
        elif rel.endswith(".json"):
            a, b = (WALL_LINE.sub("", (out / rel).read_text()) for out in outs)
        else:
            a, b = ((out / rel).read_bytes() for out in outs)
        if a != b:
            problems.append(f"{rel} differs between runs")

    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 1200.0
    _verdict(7, ok, f"two experiment runs byte-identical except wall time "
                    f"across {len(listings[0])} files, {elapsed:.0f}s of 1200s")
    assert ok, problems


def test_criterion_8_lth_identity_fidelity():
    start = time.perf_counter()
    data = small_dataset()
    cfg = small_config(omega=1.0)
    (arts,) = train_dense(cfg, data, [cfg.seed])
    (result,) = run_baseline("lth", cfg, data, [arts])
    same = all(
        np.array_equal(a, b)
        for a, b in zip(result.params.weights, arts.theta_e.weights)
    ) and all(
        np.array_equal(a, b)
        for a, b in zip(result.params.biases, arts.theta_e.biases)
    )
    identity = result.mask.kept_count() == param_count(arts.dims)
    elapsed = time.perf_counter() - start
    ok = same and identity
    _verdict(8, ok, f"lth at omega=1 bit-identical to fresh dense training "
                    f"(identity mask: {identity}), {elapsed:.1f}s")
    assert ok
