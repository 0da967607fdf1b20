"""Tests of the benchmark's own arithmetic: python3 -m pytest bench/test_harness.py"""

import sys
import types

import pytest

from harness import (
    NullTracer,
    Span,
    Tracer,
    covered_length,
    failure_share,
    self_time_by_name,
    self_times,
    summarize,
)
from layers import layer_metrics, median_metrics


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 4), (5, 6)], 0, 10) == 4
    assert covered_length([(-5, 2), (9, 20)], 0, 10) == 3
    assert covered_length([], 0, 10) == 0


def test_self_time_subtracts_children_once():
    spans = [
        Span(0, "outer", None, "r", 0, 0.0, 10.0),
        Span(1, "a", 0, "r", 0, 1.0, 3.0),
        Span(2, "b", 0, "r", 0, 2.0, 4.0),  # overlaps a; counted once
        Span(3, "a", 0, "r", 0, 5.0, 6.0),
        Span(4, "leaf", 3, "r", 0, 5.5, 5.75),  # grandchild: only a loses it
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0)
    assert own[3] == pytest.approx(0.75)
    assert own[4] == pytest.approx(0.25)
    by_name = self_time_by_name(spans)
    assert by_name["a"] == pytest.approx(2.0 + 0.75)
    assert by_name["b"] == pytest.approx(2.0)


def test_tracer_records_nesting_ops_and_errors():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.run = "traced-0"

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        tracer.call("inner", inner)
        clock.now += 1.0

    def boom():
        raise ValueError("x")

    tracer.call("outer", outer)
    with pytest.raises(ValueError):
        tracer.call("boom", boom)
    first, second, third = tracer.spans
    assert (first.name, first.parent, first.duration) == ("outer", None, 4.0)
    assert (second.parent, second.op, second.run) == (first.id, first.id, "traced-0")
    assert third.op == third.id and third.attrs["raised"] == "ValueError"
    assert self_times(tracer.spans)[first.id] == pytest.approx(2.0)


def test_observer_that_no_longer_fits_does_not_fail_the_call():
    tracer = Tracer()
    result = tracer.call("f", lambda: 3, observe=lambda a, kw, r: {"x": r.missing})
    assert result == 3 and tracer.spans[0].attrs == {"observe_failed": True}


def test_summarize_median_max_count():
    assert summarize([3.0, 1.0, 2.0, 10.0]) == {"median": 2.5, "max": 10.0, "n": 4}
    assert summarize([]) == {"median": None, "max": None, "n": 0}


def test_failure_share():
    assert failure_share(2, 9) == pytest.approx(2 / 9)
    assert failure_share(0, 5) == 0.0
    with pytest.raises(ValueError):
        failure_share(0, 0)
    with pytest.raises(ValueError):
        failure_share(6, 5)


@pytest.fixture
def fake_module():
    module = types.ModuleType("fake_layer")
    module.present = lambda x: x + 1
    sys.modules["fake_layer"] = module
    yield module
    del sys.modules["fake_layer"]


def test_wrap_marks_missing_names_absent_and_restores(fake_module):
    original = fake_module.present
    targets = [
        ("fake_layer", "present", "graph.load_graph"),
        ("fake_layer", "deleted", "solver.diffusion_warm_start"),
        ("fake_layer", "also_deleted", "solver.solve"),
        ("fake_layer", "present", "solver.solve"),  # same span, another name
    ]
    with Tracer() as tracer:
        tracer.wrap(targets)
        assert fake_module.present(1) == 2  # wrapped twice, called once
        assert [s.name for s in tracer.spans] == ["solver.solve", "graph.load_graph"]
    assert fake_module.present is original
    assert tracer.absent == ["solver.diffusion_warm_start"]


def test_layer_metrics_absent_and_counters():
    spans = [
        Span(0, "solver.solve", None, "r", 0, 0.0, 10.0, {"kept_steps": 0,
                                                            "final_sum_ratios": 0.5}),
        Span(1, "solver.outer_step", 0, "r", 0, 1.0, 5.0,
             {"inner_iters": 100, "cap_hit": True, "edges": 10, "classes": 2}),
        Span(2, "solver.project_constraints", 1, "r", 0, 2.0, 3.0),
        Span(3, "evaluation.baseline_label_spreading", None, "r", 3, 11.0, 12.0,
             {"raised": "NoConvergenceError"}),
    ]
    out = layer_metrics(spans, absent=["solver.diffusion_warm_start"])
    assert out["solver.diffusion_warm_start_s"] is None
    assert out["solver.initialize_state_s"] == 0.0  # exists, not called
    assert out["solver.outer_step_s"] == pytest.approx(3.0)
    assert out["solver.ns_per_edge_class_iter"] == pytest.approx(3.0 / 2000 * 1e9)
    assert out["solver.first_step_rejected"] == 1
    assert out["solver.inner_cap_hits"] == 1
    assert out["solver.project_constraints_calls"] == 1
    assert out["evaluation.baseline_failures"] == 1
    assert out["graph.edges"] == 0

    out = layer_metrics(spans, absent=["solver.outer_step"])
    assert out["solver.inner_iters"] is None and out["solver.outer_step_s"] is None

    spans[1].attrs = {"observe_failed": True}
    assert layer_metrics(spans)["solver.inner_iters"] is None


def test_median_metrics_keeps_absent():
    rounds = [{"a": 1.0, "b": None}, {"a": 3.0, "b": None}, {"a": 2.0, "b": None}]
    assert median_metrics(rounds) == {"a": 2.0, "b": None}


def test_null_tracer_calls_through():
    assert NullTracer().call("x", lambda a, b=0: a + b, 1, b=2) == 3
