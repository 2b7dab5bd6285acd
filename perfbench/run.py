"""Benchmark of the ``ballot`` command line, standard library only.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src`` (PYTHONPATH=src), not from an installed copy.

A single client runs one ``python -m ballot.cli`` command at a time and
starts the next only when the previous one has exited (a closed loop),
for at least ``--seconds`` seconds.  Fixtures are built first with the
program's own ``gen-data`` and ``train`` and are not timed.  Every
command's output is checked and digested; a non-zero exit, a failed
check or a digest that differs from the run's first one counts as a
failed command.

With ``--trace 0`` the run reports the end-to-end metrics, measured with
no tracing.  With ``--trace 1`` it alternates untraced commands with
traced ones, which run the same command in a process whose layer
boundaries are wrapped (``spans.py``), and reports the per-layer
metrics, the matmul floor of ``kernel.py`` and the tracing overhead.

The second-to-last line of standard output is a JSON object with the
details (machine, per-command samples, medians with tail percentiles,
digest, absent names); the last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import spans
import summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"

DEADLINE_S = 170.0
SETUP_SECONDS = 4.0
SETUP_MIN_REPEATS = 3
BATCH = 32  # the default train.batch, which every workload keeps
METHODS = ("lth", "magnitude", "random")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "samples_per_s": "1/s",
}

SPAN_SECONDS = (
    "pipeline.train_dense", "pipeline.refine",
    "model.forward_training", "autodiff.loss", "autodiff.backward",
    "model.sgd_step", "masks.record_epoch", "masks.build_ballot",
    "masks.build_magnitude", "masks.build_random", "masks.serialize",
    "metrics.evaluate", "reporting.write_report",
    "reporting.write_aggregate_csv", "data.make_dataset", "data.load_csv",
    "model.load_checkpoint", "model.forward",
)
SPAN_CALLS = ("model.forward_training", "autodiff.backward", "metrics.evaluate")
STEP_SPANS = ("model.forward_training", "autodiff.loss", "autodiff.backward",
              "model.sgd_step")
LAYER_OPS = tuple(f"l{i}.{op}" for i in range(3) for op in ("fwd", "dw", "dx"))

# What each layer should move, per the benchmark's design:
# - pipeline.*, run_*_s: the matching run_*_s on both experiment workloads;
# - model.forward_training, autodiff.*, model.sgd_step, kernel.*:
#   samples_per_s and wall_s on grid-default (per-call overhead) and
#   prune-wide (BLAS-bound), nothing on evaluate-csv;
# - masks.build_*, masks.serialize, masks.trimmed_indices, reporting.*:
#   wall_s on prune-wide; masks.record_epoch and metrics.evaluate: run_dense_s;
# - data.*, model.load_checkpoint, model.forward: wall_s, samples_per_s
#   and peak_rss_mb on evaluate-csv.
PER_LAYER = {
    **{f"{s}_s": "s" for s in SPAN_SECONDS},
    **{f"pipeline.run_baseline_s.{m}": "s" for m in METHODS},
    **{f"{s}_calls": "count" for s in SPAN_CALLS},
    "autodiff.backward_calls_per_step": "count",
    "masks.trimmed_indices": "count",
    "reporting.report_bytes": "bytes",
    **{f"kernel.matmul_floor_us.{op}": "us" for op in LAYER_OPS},
    "kernel.step_us": "us",
    "kernel.flops_per_step": "flop",
    "kernel.matmul_share": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.uncovered_frac": "ratio",
    "run_dense_s": "s",
    "run_ballot_s": "s",
    "run_baselines_s": "s",
}

PROBE = ("import sys, ballot, ballot.cli; "
         "ballot.make_dataset(ballot.load_config(sys.argv[1]).dataset)")


class Experiment:
    """``ballot experiment`` over a fixed config.

    The program's work depends on its seed: the number of ballot
    refinement rounds, each a full retrain, varies from 0 to 3 between
    seeds (at width 512 on a 2-vCPU Xeon VM, seeds 0-7 spent 2.9 to
    10.6 s in the ballot phase).  So the workload runs the config's own
    seeds whatever the benchmark seed, and wall times compare like with
    like across benchmark runs.
    """

    def __init__(self, config: dict, seeds: int):
        self.config = config
        self.seeds = seeds
        hidden = config.get("model", {}).get("hidden", [64, 64])
        self.dims = [20, *hidden, 4]  # default synthetic data: 20 features, 4 classes

    def fixtures(self, work: Path, seed: int, run) -> str:
        (work / "fixtures" / "config.json").write_text(json.dumps(self.config))
        return "fixtures/config.json"

    def command(self, out: str) -> list[str]:
        return ["experiment", "--seeds", str(self.seeds),
                "--config", "fixtures/config.json", "--out", out]

    def check(self, out_dir: Path):
        return checks.check_experiment(out_dir, list(range(self.seeds)))


class EvaluateCsv:
    """``ballot evaluate`` of a 512-wide dense checkpoint on a large CSV.

    Both fixtures come from the synthetic generator with the benchmark
    seed, so the CSV's class means match the training data's.  Evaluation
    does the same work whatever the weights, so the checkpoint is trained
    for a few epochs only, to keep fixture building short.
    """

    COUNTS = [35000, 5000, 5000, 5000]
    CHECKPOINT = "fixtures/dense/checkpoints/theta_e.ckpt"
    dims = [20, 512, 512, 4]

    def fixtures(self, work: Path, seed: int, run) -> str:
        fx = work / "fixtures"
        synth = {"seed": seed}
        (fx / "train.json").write_text(json.dumps(
            {"model": {"hidden": self.dims[1:-1]}, "train": {"epochs": 3},
             "seed": seed, "data": {"synthetic": synth}}))
        (fx / "gen.json").write_text(json.dumps(
            {"data": {"synthetic": {**synth, "counts": self.COUNTS}}}))
        (fx / "probe.json").write_text(json.dumps(
            {"data": {"csv_path": "fixtures/eval.csv", "split": 0.5}}))
        run(["gen-data", "--config", "fixtures/gen.json",
             "--out", "fixtures/eval.csv"])
        run(["train", "--config", "fixtures/train.json",
             "--out", "fixtures/dense"])
        return "fixtures/probe.json"

    def command(self, out: str) -> list[str]:
        return ["evaluate", "--checkpoint", self.CHECKPOINT,
                "--data", "fixtures/eval.csv", "--out", f"{out}/evaluation.json"]

    def check(self, out_dir: Path):
        return checks.check_evaluation(out_dir / "evaluation.json", self.COUNTS)


WORKLOADS = {
    "grid-default": Experiment({"seed": 0}, seeds=5),
    "prune-wide": Experiment({"model": {"hidden": [512, 512]}, "seed": 0}, seeds=1),
    "evaluate-csv": EvaluateCsv(),
}


@dataclass
class Child:
    """Exit code, wall and CPU times and peak memory of one finished
    process."""

    code: int
    wall_s: float
    user_s: float
    sys_s: float
    rss_mb: float
    stderr: str


def run_child(argv: list[str], cwd: Path, env: dict, timeout: float) -> Child:
    """Run to completion, killing it after ``timeout`` seconds; peak RSS
    comes from the child's own rusage via ``os.wait4``."""
    err_path = cwd / "stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace")[-2000:]
    return Child(proc.returncode, wall, usage.ru_utime, usage.ru_stime,
                 usage.ru_maxrss / 1024.0, stderr)


class Bench:
    def __init__(self, workload, seconds: float, work: Path):
        self.wl = workload
        self.seconds = seconds
        self.work = work
        self.start = time.perf_counter()
        self.env = {k: v for k, v in os.environ.items() if k != "BALLOT_THREADS"}
        self.env["PYTHONPATH"] = str(SRC)
        self.commands: list[dict] = []
        self.reference_digest = None
        self.serial = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def child(self, argv: list[str]) -> Child:
        return run_child(argv, self.work, self.env, self.remaining())

    def cli(self, args: list[str]) -> Child:
        return self.child([sys.executable, "-m", "ballot.cli", *args])

    def fixture(self, args: list[str]) -> None:
        done = self.cli(args)
        if done.code != 0:
            raise SystemExit(f"fixture command {args[0]} failed with exit "
                             f"code {done.code}:\n{done.stderr}")

    def probes(self, config: str) -> list[float]:
        """Set up repeatedly for SETUP_SECONDS, at least SETUP_MIN_REPEATS
        times: interpreter start, ``import ballot``, config load and
        dataset build, timed from outside."""
        walls = []
        while len(walls) < SETUP_MIN_REPEATS or sum(walls) < SETUP_SECONDS:
            done = self.child([sys.executable, "-c", PROBE, config])
            self.commands.append({"kind": "setup", "wall_s": done.wall_s,
                                  "code": done.code,
                                  "problems": [] if done.code == 0 else
                                  [f"exit code {done.code}: {done.stderr}"]})
            walls.append(done.wall_s)
        return walls

    def measured(self, traced: bool) -> dict:
        """One workload command, checked and digested."""
        self.serial += 1
        out = f"out{self.serial}"
        spans_path = self.work / f"spans{self.serial}.json"
        args = self.wl.command(out)
        if traced:
            done = self.child([sys.executable, str(HERE / "traced.py"),
                               str(spans_path), *args])
        else:
            done = self.cli(args)
        rec = {"kind": "traced" if traced else "command", "wall_s": done.wall_s,
               "user_s": done.user_s, "sys_s": done.sys_s,
               "peak_rss_mb": done.rss_mb, "code": done.code, "problems": []}
        if done.code != 0:
            rec["problems"].append(f"exit code {done.code}: {done.stderr}")
        else:
            try:
                problems, facts = self.wl.check(self.work / out)
                rec["digest"] = checks.digest(self.work / out)
                rec["problems"] += problems
                if not problems:
                    rec["facts"] = facts
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                rec["problems"].append(f"output unreadable: {exc!r}")
        if "digest" in rec:
            if self.reference_digest is None:
                self.reference_digest = rec["digest"]
            elif rec["digest"] != self.reference_digest:
                rec["problems"].append("digest differs from the run's first")
        if traced and done.code == 0:
            rec["trace"] = json.loads(spans_path.read_text())
            spans_path.unlink()
        shutil.rmtree(self.work / out, ignore_errors=True)
        self.commands.append(rec)
        return rec

    def loop(self, traced: bool) -> None:
        """Closed loop for at least ``seconds``, stopping early only when
        another round would overrun the deadline."""
        begin = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            self.measured(False)
            if traced:
                self.measured(True)
            took = time.perf_counter() - t0
            if time.perf_counter() - begin >= self.seconds or \
                    self.remaining() < 1.5 * took:
                break


def described(records: list[dict], key) -> dict:
    values = [key(r) for r in records]
    return summary.describe(values) if values else {"median": 0.0, "n": 0}


def end_to_end(bench: Bench, setup_walls: list[float]) -> dict:
    runs = [r for r in bench.commands if r["kind"] == "command"]
    ok = [r for r in runs if "facts" in r]
    out = {
        "wall_s": described(runs, lambda r: r["wall_s"]),
        "setup_s": summary.describe(setup_walls),
        "peak_rss_mb": described(runs, lambda r: r["peak_rss_mb"]),
        "samples_per_s": described(ok, lambda r: r["facts"]["samples"] / r["wall_s"]),
    }
    return out


def quality(bench: Bench) -> dict:
    """Program-reported phase times and ballot results, medians over
    seeds per command; present on the experiment workloads only."""
    ok = [r for r in bench.commands if r["kind"] == "command" and "facts" in r
          and "run_dense_s" in r["facts"]]
    keys = ("run_dense_s", "run_ballot_s", "run_baselines_s",
            "ballot_cwv", "ballot_accuracy")
    return {k: described(ok, lambda r, k=k: statistics.median(r["facts"][k]))
            for k in keys} if ok else {}


def layer_values(rec: dict, untraced_wall: float, floor: dict, dims: list) -> dict:
    """Per-layer values of one traced command."""
    trace = rec["trace"]
    st = spans.self_times(trace["names"], trace["spans"])
    self_s = {name: e["self_s"] for name, e in st.items()}
    calls = {name: e["calls"] for name, e in st.items()}
    v = {f"{s}_s": self_s.get(s, 0.0) for s in SPAN_SECONDS}
    v.update({f"pipeline.run_baseline_s.{m}": self_s.get(f"pipeline.run_baseline.{m}", 0.0)
              for m in METHODS})
    v.update({f"{s}_calls": calls.get(s, 0) for s in SPAN_CALLS})
    steps = calls.get("model.forward_training", 0)
    per_step = calls.get("autodiff.backward", 0) / steps if steps else 0.0
    v["autodiff.backward_calls_per_step"] = per_step
    for name in ("masks.trimmed_indices", "reporting.report_bytes"):
        v[name] = trace["counters"].get(name, 0)
    for op in LAYER_OPS:
        v[f"kernel.matmul_floor_us.{op}"] = floor.get(op, {}).get("us", 0.0)
    step_us = (sum(self_s.get(s, 0.0) for s in STEP_SPANS) / steps * 1e6
               if steps else 0.0)
    floor_us = sum(floor[f"l{i}.fwd"]["us"] + per_step *
                   (floor[f"l{i}.dw"]["us"] + floor[f"l{i}.dx"]["us"])
                   for i in range(3)) if floor else 0.0
    v["kernel.step_us"] = step_us
    v["kernel.flops_per_step"] = sum(
        2 * BATCH * a * b * (1 + 2 * per_step) for a, b in zip(dims, dims[1:])
    ) if steps else 0.0
    v["kernel.matmul_share"] = floor_us / step_us if step_us else 0.0
    v["trace.overhead_frac"] = rec["wall_s"] / untraced_wall - 1.0
    v["trace.uncovered_frac"] = 1.0 - spans.top_level_s(trace["spans"]) / rec["wall_s"]
    return v


def per_layer(bench: Bench, floor: dict) -> tuple[dict, dict, list]:
    untraced = [r for r in bench.commands if r["kind"] == "command"]
    traced = [r for r in bench.commands if r["kind"] == "traced" and "trace" in r]
    if not traced:
        return {}, {}, []
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    rows = [layer_values(r, untraced_wall, floor, bench.wl.dims) for r in traced]
    out = {name: summary.describe([row[name] for row in rows])
           for name in rows[0]}
    out.update({k: v for k, v in quality(bench).items() if k.startswith("run_")})
    per_call = {}
    for r in traced:
        st = spans.self_times(r["trace"]["names"], r["trace"]["spans"])
        for name, e in st.items():
            per_call.setdefault(name, []).extend(e["per_call_s"])
    per_call = {name: summary.describe(v) for name, v in sorted(per_call.items())}
    return out, per_call, traced[0]["trace"]["absent"]


def side_json(bench: Bench, argv: list[str]) -> dict:
    done = subprocess.run(argv, cwd=bench.work, env=bench.env, capture_output=True,
                          text=True, timeout=max(bench.remaining(), 1.0))
    if done.returncode != 0:
        raise SystemExit(f"{argv[1]} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ballot" / "cli.py").is_file():
        print(f"perfbench: no ballot sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    seed = args.seed % 2**31
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        (work / "fixtures").mkdir()
        bench = Bench(wl, args.seconds, work)
        machine = side_json(bench, [sys.executable, str(HERE / "machine.py")])
        probe_config = wl.fixtures(work, seed, bench.fixture)
        detail = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "machine": machine}
        if args.trace:
            bench.loop(traced=True)
            floor = side_json(bench, [sys.executable, str(HERE / "kernel.py"),
                                      ",".join(map(str, wl.dims)), str(BATCH)])
            metrics, per_call, absent = per_layer(bench, floor)
            detail.update(kernel=floor, per_call=per_call, absent=absent)
            names = PER_LAYER
        else:
            setup_walls = bench.probes(probe_config)
            bench.loop(traced=False)
            metrics = end_to_end(bench, setup_walls)
            detail["quality"] = quality(bench)
            names = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    attempted = len(bench.commands)
    failed = sum(1 for r in bench.commands if r["problems"])
    detail.update(
        metrics=metrics, attempted=attempted, failed=failed,
        failed_frac=failed / attempted, digest=bench.reference_digest,
        commands=[{k: v for k, v in r.items() if k not in ("trace",)}
                  for r in bench.commands],
    )
    result = {
        "correct": failed == 0 and bench.reference_digest is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, {"median": 0.0})["median"],
                           "unit": unit} for name, unit in names.items()},
    }
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
