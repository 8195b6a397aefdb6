"""Tests of the benchmark's own arithmetic and failure accounting.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import freeflow as ff  # noqa: E402
import calibrate  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def fake_package(monkeypatch):
    """``fakepkg.mod`` defines outer -> inner; ``fakepkg.user`` re-binds
    outer the way ``from .mod import outer`` would."""
    clock = FakeClock()
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    user = types.ModuleType("fakepkg.user")

    def inner():
        clock.advance(3.0)

    def outer():
        clock.advance(1.0)
        mod.inner()
        clock.advance(2.0)
        mod.inner()
        clock.advance(1.0)

    mod.inner, mod.outer, user.outer = inner, outer, outer
    for name, module in (("fakepkg", pkg), ("fakepkg.mod", mod), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    return clock, mod, user


def test_self_time_of_nested_call(fake_package):
    clock, mod, user = fake_package
    tracer = tracing.Tracer(package="fakepkg", clock=clock)
    tracer.install(layers=(("mod", "outer"), ("mod", "inner"), ("gone", "f")))
    tracer.op = 1
    user.outer()  # the re-bound name is traced too
    tracer.op = None
    user.outer()  # outside an op: no spans
    tracer.uninstall()

    assert tracer.absent == ["gone.f"]
    assert user.outer is mod.outer and not hasattr(mod.outer, "__wrapped__")
    totals = tracing.self_times(tracer.spans)
    assert totals["mod.outer"] == (1, 4.0)  # 10 s span minus two 3 s children
    assert totals["mod.inner"] == (2, 6.0)
    assert {span.op for span in tracer.spans} == {1}


def test_overlapping_children_count_once():
    spans = [
        tracing.Span(0, "batch", 0.0, 10.0, None, 1),
        tracing.Span(1, "solve", 1.0, 6.0, 0, 1),
        tracing.Span(2, "solve", 4.0, 8.0, 0, 1),  # another worker thread
    ]
    totals = tracing.self_times(spans)
    assert totals["batch"] == (1, 3.0)
    assert totals["solve"] == (2, 9.0)


def test_wrong_result_counts_in_failed_frac(monkeypatch, tmp_path):
    workload = workloads.setup_exact_small(ff, str(tmp_path), seed=0)
    workload.ops = workload.ops[:4]
    oracle = ff.transport_oracle
    monkeypatch.setattr(ff, "transport_oracle", lambda mesh, mu: oracle(mesh, mu) + 1e-3)
    workload.ops.append(workloads.Op("raises", lambda: 1 / 0, workloads.check_exact))

    result = run.untraced_run(workload, seconds=0.0, setup_s=1.0)

    assert result["summary"]["attempted"] == 5
    assert result["summary"]["failed"] == 5
    assert result["summary"]["correct"] is False


def test_correct_results_pass_checks(tmp_path):
    workload = workloads.setup_exact_small(ff, str(tmp_path), seed=0)
    workload.ops = workload.ops[:4]
    result = run.untraced_run(workload, seconds=0.0, setup_s=1.0)
    assert result["summary"]["failed"] == 0
    assert set(result["summary"]["metrics"]) == set(run.END_TO_END_UNITS)


def test_reference_seconds_drop_samples_and_scale(monkeypatch):
    """A host at half speed: every sample takes twice its nominal time."""
    clock = FakeClock()
    monkeypatch.setattr(
        calibrate, "reference_task", lambda: clock.advance(2 * calibrate.REFERENCE_S)
    )
    sampler = calibrate.Sampler(clock=clock)

    def step():
        clock.advance(0.5)
        sampler._on_alarm(None, None)  # a sample taken inside the step
        clock.advance(0.5)
        return "done"

    value, seconds, ref = sampler.measure(step)
    assert value == "done"
    assert len(sampler.samples) == 3
    assert seconds == pytest.approx(1.0)  # the inside sample is taken out
    assert ref == pytest.approx(0.5)
