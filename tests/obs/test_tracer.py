"""Unit tests of the span tracer: nesting, counters, export/merge."""

import pickle

import pytest

from repro.obs import (NULL_TRACER, NullTracer, Span, Tracer, activate,
                       current_tracer)


class TestSpanTree:
    def test_root_span_is_created_with_the_tracer(self):
        tracer = Tracer(name="run:x")
        assert len(tracer.spans) == 1
        root = tracer.spans[0]
        assert root.span_id == 0 and root.parent_id is None
        assert root.name == "run:x" and root.kind == "root"

    def test_nested_spans_record_parent_ids_and_order(self):
        tracer = Tracer()
        with tracer.span("outer", kind="driver"):
            with tracer.span("inner", kind="phase"):
                pass
            with tracer.span("sibling", kind="phase"):
                pass
        names = [(s.span_id, s.parent_id, s.name) for s in tracer.spans]
        assert names == [(0, None, "trace"), (1, 0, "outer"),
                         (2, 1, "inner"), (3, 1, "sibling")]

    def test_span_durations_are_monotonic_and_closed(self):
        tracer = Tracer()
        with tracer.span("work"):
            pass
        assert tracer.spans[1].duration_s >= 0.0

    def test_spans_nest_under_the_innermost_open_span(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            with tracer.span("b") as b:
                pass
        with tracer.span("c") as c:
            pass
        assert b.parent_id == a.span_id
        assert a.parent_id == c.parent_id == tracer.spans[0].span_id

    def test_span_attrs_are_copied(self):
        tracer = Tracer()
        with tracer.span("a", kind="run", experiment="fig6", seed=7) as span:
            pass
        assert span.attrs == {"experiment": "fig6", "seed": 7}

    def test_record_span_attaches_a_premeasured_child(self):
        tracer = Tracer()
        with tracer.span("kernel", kind="kernel") as kernel:
            pass
        phase = tracer.record_span("beacon_grid", 0.25, kind="phase",
                                   counters={"attempts": 12}, parent=kernel)
        assert phase.parent_id == kernel.span_id
        assert phase.duration_s == 0.25
        assert phase.counters == {"attempts": 12}

    def test_span_exception_still_closes_the_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        with tracer.span("after") as after:
            pass
        assert after.parent_id == tracer.spans[0].span_id
        assert tracer.spans[1].duration_s >= 0.0


class TestCountersAndMeters:
    def test_global_counters_accumulate(self):
        tracer = Tracer()
        tracer.count("cache.hit")
        tracer.count("cache.hit", 2)
        assert tracer.counters.as_dict() == {"cache.hit": 3}

    def test_span_counters_accumulate_independently(self):
        span = Span(1, 0, "s")
        span.count("cca", 5)
        span.count("cca")
        assert span.counters == {"cca": 6}

    def test_meters_reuse_sim_monitor(self):
        tracer = Tracer()
        tracer.meter_record("queue_wait_s", 0.5)
        tracer.meter_record("queue_wait_s", 1.5)
        meter = tracer.meters["queue_wait_s"]
        assert meter.count == 2
        assert meter.mean == pytest.approx(1.0)


class TestActivation:
    def test_default_active_tracer_is_the_shared_null(self):
        assert current_tracer() is NULL_TRACER
        assert not current_tracer().enabled

    def test_activate_nests_and_restores(self):
        tracer = Tracer()
        with activate(tracer):
            assert current_tracer() is tracer
            inner = Tracer()
            with activate(inner):
                assert current_tracer() is inner
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_null_tracer_operations_are_noops(self):
        null = NullTracer()
        with null.span("anything", kind="run", attr=1) as span:
            assert span is None
        assert null.record_span("x", 1.0) is None
        assert null.count("x") is None
        assert null.meter_record("x", 1.0) is None


class TestExportMerge:
    def _worker_export(self, label):
        worker = Tracer(name="task")
        with worker.span(f"run:{label}", kind="run"):
            worker.record_span("setup", 0.1, kind="phase")
            worker.count("cache.miss")
        worker.meter_record("kernel_s", 0.2)
        return worker.export()

    def test_export_is_picklable_plain_data(self):
        export = self._worker_export("a")
        assert pickle.loads(pickle.dumps(export)) == export
        assert export["spans"][0]["id"] == 0
        assert export["counters"] == {"cache.miss": 1}

    def test_merge_renumbers_children_in_creation_order(self):
        parent = Tracer(name="sweep")
        parent.merge_export(self._worker_export("a"), name="task[0]",
                            worker=111)
        parent.merge_export(self._worker_export("b"), name="task[1]",
                            worker=222)
        spans = [(s.span_id, s.parent_id, s.name) for s in parent.spans]
        assert spans == [(0, None, "sweep"),
                         (1, 0, "task[0]"), (2, 1, "run:a"), (3, 2, "setup"),
                         (4, 0, "task[1]"), (5, 4, "run:b"), (6, 5, "setup")]
        assert parent.workers == {1: 111, 4: 222}

    def test_merge_accumulates_counters_and_meters(self):
        parent = Tracer()
        parent.merge_export(self._worker_export("a"), name="task[0]")
        parent.merge_export(self._worker_export("b"), name="task[1]")
        assert parent.counters.as_dict() == {"cache.miss": 2}
        assert parent.meters["kernel_s"].count == 2

    def test_merge_order_determines_ids_not_completion_order(self):
        """Merging the same exports in the same order yields identical
        span trees — the property the parallel executor relies on when it
        sorts finished tasks by index before merging."""
        exports = [self._worker_export(str(i)) for i in range(3)]
        one, two = Tracer(), Tracer()
        for index, export in enumerate(exports):
            one.merge_export(export, name=f"task[{index}]")
            two.merge_export(export, name=f"task[{index}]")
        assert ([(s.span_id, s.parent_id, s.name, s.kind)
                 for s in one.spans]
                == [(s.span_id, s.parent_id, s.name, s.kind)
                    for s in two.spans])
