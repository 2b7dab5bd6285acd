"""Span recording from outside the program: self time, absent names,
patching at the caller's lookup site."""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import spans  # noqa: E402
from spans import Wrap  # noqa: E402


def test_self_time_subtracts_direct_children():
    names = ["a", "b", "c"]
    recorded = [
        [0, 0, 100, -1],   # a
        [1, 10, 40, 0],    # b inside a
        [1, 15, 20, 1],    # b inside b
        [2, 50, 60, 0],    # c inside a
        [2, 200, 230, -1],  # c at top level
    ]
    st = spans.self_times(names, recorded)
    assert st["a"]["calls"] == 1
    assert st["a"]["self_s"] == pytest.approx(60e-9)
    assert st["b"]["calls"] == 2
    assert st["b"]["self_s"] == pytest.approx(30e-9)
    assert st["b"]["per_call_s"] == pytest.approx([25e-9, 5e-9])
    assert st["c"]["self_s"] == pytest.approx(40e-9)
    assert spans.top_level_s(recorded) == pytest.approx(130e-9)


@pytest.fixture
def fakepkg(monkeypatch, tmp_path):
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    class Engine:
        def step(self, n):
            return n + 1

    def run(method, n):
        return Engine().step(n)

    def save(path):
        Path(path).write_text("12345")

    core.Engine, core.run, core.save = Engine, run, save
    user.run, user.save = run, save  # as after ``from fakepkg.core import run``
    for mod in (pkg, core, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return types.SimpleNamespace(core=core, user=user, tmp=tmp_path)


WRAPS = (
    Wrap("core.run", "fakepkg.core", "run", variant="method"),
    Wrap("core.step", "fakepkg.core", "Engine.step"),
    Wrap("core.save", "fakepkg.core", "save", count="reporting.report_bytes"),
    Wrap("core.deleted", "fakepkg.core", "deleted"),
    Wrap("core.gone", "fakepkg.core", "Gone.step"),
    Wrap("gone.any", "fakepkg.gone", "anything"),
)


def test_missing_names_are_absent_and_present_ones_wrapped(fakepkg):
    rec = spans.Recorder()
    absent = spans.install(rec, WRAPS, package="fakepkg")
    assert absent == ["fakepkg.core:deleted", "fakepkg.core:Gone.step",
                      "fakepkg.gone:anything"]

    assert fakepkg.user.run("lth", 1) == 2
    assert fakepkg.user.run(n=1, method="random") == 2
    fakepkg.user.save(fakepkg.tmp / "r.json")

    st = spans.self_times(rec.names, rec.spans)
    assert st["core.run.lth"]["calls"] == 1
    assert st["core.run.random"]["calls"] == 1
    assert st["core.step"]["calls"] == 2
    assert st["core.save"]["calls"] == 1
    step = next(s for s in rec.spans if rec.names[s[0]] == "core.step")
    run = next(s for s in rec.spans if rec.names[s[0]] == "core.run.lth")
    assert rec.spans[step[3]] is run
    assert rec.counters == {"reporting.report_bytes": 5}


def test_span_closes_when_wrapped_call_raises(fakepkg):
    def boom():
        raise RuntimeError("x")

    fakepkg.core.boom = boom
    rec = spans.Recorder()
    spans.install(rec, (Wrap("core.boom", "fakepkg.core", "boom"),),
                  package="fakepkg")
    with pytest.raises(RuntimeError):
        fakepkg.core.boom()
    (span,) = rec.spans
    assert span[2] >= span[1] and span[3] == -1
    fakepkg.core.run("a", 0)  # unwrapped name still works; stack is empty
