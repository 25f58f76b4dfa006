"""Tracing tests: span lifecycle, ambient activation, cross-process adoption."""

import threading

import pytest

from repro.obs import trace
from repro.obs.trace import Span, Timer, Tracer


@pytest.fixture(autouse=True)
def _no_ambient_tracer():
    """Every test starts and ends with tracing off."""
    trace.reset()
    yield
    trace.reset()


class TestSpan:
    def test_end_is_idempotent_first_close_wins(self):
        s = Span("x", span_id=1, parent_id=None, start=10.0)
        assert s.duration is None
        s.end(at=11.5)
        assert s.duration == pytest.approx(1.5)
        s.end(at=99.0)
        assert s.duration == pytest.approx(1.5)

    def test_add_event_records_offset_from_start(self):
        s = Span("x", span_id=1, parent_id=None, start=trace.clock())
        s.add_event("first", reason="crash")
        s.add_event("second")
        assert [e["name"] for e in s.events] == ["first", "second"]
        assert s.events[0]["reason"] == "crash"
        assert 0.0 <= s.events[0]["offset"] <= s.events[1]["offset"]

    def test_dict_roundtrip(self):
        s = Span("step2.shard", span_id=7, parent_id=3, start=1.25, duration=0.5)
        s.set_attrs(shard=2, via="pool")
        s.add_event("retry", attempt=1)
        assert Span.from_dict(s.to_dict()) == s

    def test_open_span_roundtrips_as_open(self):
        s = Span("open", span_id=1, parent_id=None, start=0.0)
        assert Span.from_dict(s.to_dict()).duration is None


class TestTracer:
    def test_nesting_parent_before_child_order(self):
        tracer = Tracer()
        with trace.activate(tracer):
            with trace.span("a") as a:
                with trace.span("b", k=1) as b:
                    assert b.parent_id == a.span_id
                    assert trace.current_span_id() == b.span_id
                with trace.span("c") as c:
                    assert c.parent_id == a.span_id
            assert a.parent_id is None
        assert [s.name for s in tracer.spans] == ["a", "b", "c"]
        assert all(s.duration is not None for s in tracer.spans)
        ids = [s.span_id for s in tracer.spans]
        assert ids == sorted(ids)  # creation order = parent before child

    def test_record_backdates_to_end_now(self):
        tracer = Tracer()
        before = trace.clock()
        s = tracer.record("shard", 2.0, shard=1)
        after = trace.clock()
        assert s.duration == pytest.approx(2.0)
        assert before - 2.0 <= s.start <= after - 2.0
        assert s.attributes == {"shard": 1}

    def test_record_with_explicit_start(self):
        s = Tracer().record("x", 1.0, start=5.0)
        assert s.start == 5.0 and s.duration == 1.0

    def test_adopt_remaps_ids_reparents_and_rebases(self):
        worker = Tracer()
        w_root = worker.start_span("step2.worker")
        w_child = worker.start_span("batch", parent_id=w_root.span_id)
        w_child.end()
        w_root.end()

        parent = Tracer()
        shard = parent.start_span("step2.shard")
        adopted = parent.adopt(
            worker.export(), shard.span_id, rebase=(w_root.start, 100.0)
        )
        a_root, a_child = adopted
        # Foreign root hangs under the shard span; the internal link holds.
        assert a_root.parent_id == shard.span_id
        assert a_child.parent_id == a_root.span_id
        # Ids are remapped into the parent tracer's space and stay unique.
        assert len({shard.span_id, a_root.span_id, a_child.span_id}) == 3
        # Timeline rebased: worker start lands at local time 100.
        assert a_root.start == pytest.approx(100.0)
        assert a_child.start == pytest.approx(
            100.0 + (w_child.start - w_root.start)
        )
        assert a_child.duration == pytest.approx(w_child.duration)

    def test_adopt_resolves_stale_parent_to_new_root(self):
        # A fork-inherited context var can leave a worker root whose parent
        # id equals its own id; adoption must reparent it, never self-link.
        foreign = [{"name": "step2.worker", "span_id": 1, "parent_id": 1,
                    "start": 0.0, "duration": 0.1, "attributes": {},
                    "events": []}]
        parent = Tracer()
        top = parent.start_span("step2.shard")
        (adopted,) = parent.adopt(foreign, top.span_id)
        assert adopted.parent_id == top.span_id
        assert adopted.span_id != top.span_id

    def test_adopt_without_rebase_keeps_starts(self):
        worker = Tracer()
        worker.record("w", 1.0, start=3.0)
        parent = Tracer()
        (adopted,) = parent.adopt(worker.export(), None)
        assert adopted.start == 3.0 and adopted.parent_id is None

    def test_export_is_json_able(self):
        tracer = Tracer(meta={"command": "test"})
        tracer.record("x", 0.25)
        (row,) = tracer.export()
        assert row["name"] == "x" and isinstance(row["attributes"], dict)
        assert tracer.meta == {"command": "test"}


class TestAmbient:
    def test_span_is_noop_when_inactive(self):
        assert trace.active() is None
        with trace.span("x") as sp:
            assert sp is None
            assert trace.current_span_id() is None

    def test_activate_none_deactivates_for_the_extent(self):
        tracer = Tracer()
        with trace.activate(tracer):
            with trace.activate(None):
                with trace.span("hidden") as sp:
                    assert sp is None
            with trace.span("seen"):
                pass
        assert [s.name for s in tracer.spans] == ["seen"]

    def test_reset_drops_ambient_and_current_span(self):
        with trace.activate(Tracer()):
            with trace.span("x"):
                trace.reset()
                assert trace.active() is None
                assert trace.current_span_id() is None

    def test_add_event_attaches_to_innermost_open_span(self):
        tracer = Tracer()
        with trace.activate(tracer):
            trace.add_event("orphan")  # no open span: dropped, no error
            with trace.span("outer") as outer:
                with trace.span("inner") as inner:
                    trace.add_event("step2.retry", shard=1)
        assert outer.events == []
        assert inner.events[0]["name"] == "step2.retry"
        assert inner.events[0]["shard"] == 1

    def test_traced_decorator(self):
        calls = []

        @trace.traced(engine="batched")
        def score(n):
            calls.append(n)
            return n * 2

        assert score(3) == 6  # inactive: plain call, nothing recorded
        tracer = Tracer()
        with trace.activate(tracer):
            assert score(4) == 8
        assert calls == [3, 4]
        (only,) = tracer.spans
        assert only.name.endswith("score")
        assert only.attributes == {"engine": "batched"}

    def test_threads_see_their_own_ancestry(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)
        links = {}

        def work(k):
            with trace.span("root", thread=k) as root:
                barrier.wait()  # both roots open before either child
                with trace.span("child", thread=k) as child:
                    links[k] = (root.span_id, child.parent_id)

        with trace.activate(tracer):
            threads = [threading.Thread(target=work, args=(k,)) for k in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        for root_id, parent_of_child in links.values():
            assert parent_of_child == root_id


class TestTimer:
    def test_accumulates_and_resets(self):
        t = Timer()
        with t:
            pass
        first = t.seconds
        with t:
            pass
        assert t.seconds >= first >= 0.0
        t.reset()
        assert t.seconds == 0.0
