"""Describe the machine a result was measured on; prints one JSON object.

Covers the interpreter, NumPy, the BLAS NumPy was built against and its
thread setting (the benchmark leaves it at its default), the usable
core count, the CPU model and its cache sizes.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def cpu() -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {"model": model or platform.processor() or None, "caches": caches}


def blas() -> dict:
    import numpy as np

    info = {"numpy": np.__version__, "name": None, "version": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = deps.get("name"), deps.get("version")
    except (TypeError, KeyError):
        pass
    info["threads"] = {v: os.environ.get(v, "default") for v in BLAS_THREAD_VARS}
    return info


def describe() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": cpu(),
        "blas": blas(),
    }


if __name__ == "__main__":
    print(json.dumps(describe()))
