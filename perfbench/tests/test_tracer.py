"""Self-time arithmetic and wrapper hygiene of the outside-in tracer."""

import itertools

import pytest

from perfbench.tracer import PATCHES, Span, Tracer, resolve, root_coverage, self_times


def test_self_times_on_a_synthetic_nest():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7].
    spans = [
        Span("a", 0.0, None, 10.0),
        Span("b", 1.0, 0, 4.0),
        Span("c", 5.0, 0, 9.0),
        Span("d", 6.0, 2, 7.0),
        Span("e", 11.0, None, 12.0),
    ]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0, 1.0]
    assert root_coverage(spans, -1.0, 13.0) == 11.0


def test_overlapping_children_are_counted_once():
    spans = [
        Span("a", 0.0, None, 10.0),
        Span("b", 1.0, 0, 5.0),
        Span("c", 3.0, 0, 6.0),
        Span("d", 8.0, 0, 12.0),  # runs past its parent: clipped
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_ledger_adds_up_to_wall_time():
    ticks = itertools.count()
    tracer = Tracer(patches=(), clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    start = tracer.clock()  # 0
    outer()  # outer [1, 6], inner [2, 3] and [4, 5]
    end = tracer.clock() + 2.0  # 9
    ledger = tracer.ledger(start, end)
    assert ledger["inclusive"] == {"outer": 5.0, "inner": 2.0}
    assert ledger["self"] == {"outer": 3.0, "inner": 2.0}
    assert ledger["unattributed"] == 4.0
    assert sum(ledger["self"].values()) + ledger["unattributed"] == end - start
    assert tracer.counts["inner.calls"] == 2


def test_wrappers_are_removed_after_a_traced_run():
    from repro.baselines import default_config, run_variant
    from repro.subjects import get_subject

    before = {(t, a): resolve(t).__dict__[a] for t, a, _ in PATCHES}
    with Tracer() as tracer:
        assert all(resolve(t).__dict__[a] is not before[(t, a)]
                   for t, a, _ in PATCHES)
        assert run_variant(get_subject("P1"), config=default_config()).success
    assert tracer.restored()
    assert all(resolve(t).__dict__[a] is before[(t, a)] for t, a, _ in PATCHES)
    names = {span.name for span in tracer.spans}
    assert {"cfront.parse", "fuzz", "core.search.evaluate",
            "hls.compile_unit", "interp.run_many"} <= names
