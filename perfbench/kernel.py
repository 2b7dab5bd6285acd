"""Standalone NumPy floor for the matmuls of one training step.

Usage: python3 kernel.py DIMS BATCH   (DIMS like 20,64,64,4)

For each layer it times the three products a step makes, in the
layouts the step uses: forward ``x @ w``, weight gradient ``x.T @ g``
and input gradient ``g @ w.T``.  Prints one JSON object mapping
``l<i>.<op>`` to the median microseconds per call and its shape.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

BATCH_NS = 2_000_000
REPEATS = 9


def time_call(fn) -> float:
    """Median microseconds per call over REPEATS timed batches, each
    batch long enough to dwarf the clock's resolution."""
    fn()
    loops, start = 1, time.perf_counter_ns()
    while True:
        for _ in range(loops):
            fn()
        if time.perf_counter_ns() - start >= BATCH_NS:
            break
        loops *= 2
        start = time.perf_counter_ns()
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter_ns()
        for _ in range(loops):
            fn()
        samples.append((time.perf_counter_ns() - start) / loops / 1e3)
    return statistics.median(samples)


def floors(dims: list[int], batch: int) -> dict:
    rng = np.random.default_rng(0)
    out = {}
    for i, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
        x = rng.standard_normal((batch, d_in))
        w = rng.standard_normal((d_in, d_out))
        g = rng.standard_normal((batch, d_out))
        ops = {
            "fwd": (lambda: x @ w, f"{batch}x{d_in}@{d_in}x{d_out}"),
            "dw": (lambda: x.T @ g, f"{d_in}x{batch}@{batch}x{d_out}"),
            "dx": (lambda: g @ w.T, f"{batch}x{d_out}@{d_out}x{d_in}"),
        }
        for op, (fn, shape) in ops.items():
            out[f"l{i}.{op}"] = {"us": time_call(fn), "shape": shape}
    return out


if __name__ == "__main__":
    dims = [int(d) for d in sys.argv[1].split(",")]
    print(json.dumps(floors(dims, int(sys.argv[2]))))
