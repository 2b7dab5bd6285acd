"""Spans recorded around the program's layer boundaries, from outside.

``install`` wraps named functions and methods of an imported package.
A function is replaced in every module of the package that holds it,
because each caller looks the name up in its own module's globals
(``ballot.pipeline.forward_training``, not ``ballot.model``'s).  A
method is replaced on its class.  A name that does not exist is not
wrapped; it is reported as absent, so the benchmark outlives refactors
that delete or move code.

Spans stay in memory as ``[name, start_ns, end_ns, parent]`` and are
written out once, when the traced command ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Wrap:
    """One layer boundary: the span name and where the code lives.

    ``attr`` is ``function`` or ``Class.method`` inside ``module``.
    ``variant`` names the parameter whose value is appended to the span
    name, and ``count`` names a counter fed by ``COUNTERS``.
    """

    span: str
    module: str
    attr: str
    variant: str | None = None
    count: str | None = None


WRAPS = (
    Wrap("data.make_dataset", "ballot.data", "make_dataset"),
    Wrap("data.load_csv", "ballot.data", "load_csv"),
    Wrap("model.load_checkpoint", "ballot.model", "load_checkpoint"),
    Wrap("model.forward", "ballot.model", "forward"),
    Wrap("model.forward_training", "ballot.model", "forward_training"),
    Wrap("model.sgd_step", "ballot.model", "sgd_step"),
    Wrap("autodiff.loss", "ballot.autodiff", "Tape.weighted_softmax_cross_entropy"),
    Wrap("autodiff.backward", "ballot.autodiff", "Tape.backward"),
    Wrap("masks.record_epoch", "ballot.masks", "ConflictLedger.record_epoch"),
    Wrap("masks.build_ballot", "ballot.masks", "build_ballot_mask"),
    Wrap("masks.build_magnitude", "ballot.masks", "build_magnitude_mask"),
    Wrap("masks.build_random", "ballot.masks", "build_random_mask"),
    Wrap("masks.serialize", "ballot.masks", "serialize_mask",
         count="masks.trimmed_indices"),
    Wrap("metrics.evaluate", "ballot.metrics", "evaluate"),
    Wrap("pipeline.train_dense", "ballot.pipeline", "train_dense"),
    Wrap("pipeline.refine", "ballot.pipeline", "refine"),
    Wrap("pipeline.run_baseline", "ballot.pipeline", "run_baseline",
         variant="method"),
    Wrap("reporting.write_report", "ballot.reporting", "write_report",
         count="reporting.report_bytes"),
    Wrap("reporting.write_aggregate_csv", "ballot.reporting", "write_aggregate_csv"),
)


def _trimmed_indices(args, kwargs, result) -> int:
    # The length of the serialized trimmed list, while it is part of the
    # serialized mask; the output checks never read it.
    trimmed = result.get("trimmed") if isinstance(result, dict) else None
    return len(trimmed) if isinstance(trimmed, list) else 0


def _report_bytes(args, kwargs, result) -> int:
    path = args[0] if args else kwargs.get("path")
    return os.path.getsize(path)


COUNTERS = {
    "masks.trimmed_indices": _trimmed_indices,
    "reporting.report_bytes": _report_bytes,
}


class Recorder:
    """Collects spans and counters for one traced command."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, w: Wrap, fn):
        clock = time.perf_counter_ns
        spans, stack = self.spans, self._stack
        counter = COUNTERS[w.count] if w.count else None
        base_id = self._name_id(w.span)
        signature = inspect.signature(fn) if w.variant else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if signature is None:
                name_id = base_id
            else:
                bound = signature.bind_partial(*args, **kwargs).arguments
                name_id = self._name_id(f"{w.span}.{bound.get(w.variant)}")
            span = [name_id, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                self.counters[w.count] = (self.counters.get(w.count, 0)
                                          + counter(args, kwargs, result))
            return result

        return traced

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans,
                "counters": self.counters}


def _resolve(w: Wrap):
    """(owner, attribute name, original) or None when the name is absent."""
    try:
        module = importlib.import_module(w.module)
    except ImportError:
        return None
    owner = module
    *path, leaf = w.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, leaf, None)):
        return None
    return owner, leaf, getattr(owner, leaf)


def install(recorder: Recorder, wraps=WRAPS, package: str = "ballot") -> list[str]:
    """Wrap every name in ``wraps`` that exists; return the absent ones
    as ``module:attr`` strings."""
    absent = []
    for w in wraps:
        found = _resolve(w)
        if found is None:
            absent.append(f"{w.module}:{w.attr}")
            continue
        owner, leaf, original = found
        traced = recorder.wrap(w, original)
        if isinstance(owner, type):
            setattr(owner, leaf, traced)
            continue
        for name, module in list(sys.modules.items()):
            if (name == package or name.startswith(package + ".")) and \
                    getattr(module, leaf, None) is original:
                setattr(module, leaf, traced)
    return absent


def self_times(names: list[str], spans: list) -> dict[str, dict]:
    """Per span name: calls, total self time and per-call self times,
    in seconds.  A span's self time is its duration minus the durations
    of its direct children, which nest inside it."""
    child = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name_id, start, end, _) in enumerate(spans):
        entry = out.setdefault(names[name_id], {"calls": 0, "self_s": 0.0,
                                                "per_call_s": []})
        own = (end - start - child[i]) / 1e9
        entry["calls"] += 1
        entry["self_s"] += own
        entry["per_call_s"].append(own)
    return out


def top_level_s(spans: list) -> float:
    """Total duration of spans that no other span encloses."""
    return sum(end - start for _, start, end, parent in spans if parent < 0) / 1e9
