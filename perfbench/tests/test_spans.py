"""Span arithmetic and wrapping, on hand-built inputs."""

from collections import Counter

from perfbench.spans import SETUP, Span, Tracer, layer_metrics, self_times


def test_self_time_subtracts_the_direct_children():
    spans = [
        Span("root", 0, 100, -1, 0),
        Span("a", 10, 30, 0, 0),
        Span("b", 40, 70, 0, 0),
        Span("b.child", 45, 55, 2, 0),
        Span("b.child.leaf", 50, 52, 3, 0),
        Span("c", 75, 95, 0, 0),
    ]
    assert self_times(spans) == [100 - (20 + 30 + 20), 20, 30 - 10, 10 - 2, 2, 20]


def test_layer_metrics_split_setup_trials_and_count_window():
    spans = [
        Span("qtb.qtb_new", 0, 2_000_000_000, -1, SETUP),
        Span("listdec.list_decode_rs", 0, 10_000_000, -1, 0),
        Span("gf.nullspace", 1_000_000, 7_000_000, 1, 0),
        Span("listdec.list_decode_rs", 20_000_000, 24_000_000, -1, 1),
        Span("gf.nullspace", 20_000_000, 23_000_000, 3, 1),
    ]
    counts = {0: Counter({"gf.rref.cells": 5, "qtbdec.candidates": 2, "qtbdec.list_entries": 4}),
              1: Counter({"gf.rref.cells": 7})}
    m = layer_metrics(spans, counts, n_trials=2, window=1)
    assert m["qtb.qtb_new.s"] == (2.0, "s")
    assert m["gf.nullspace.ms"] == (4.5, "ms")
    assert m["listdec.list_decode_rs.self_ms"] == ((4 + 1) / 2, "ms")
    assert m["gf.nullspace.calls"] == (1, "count")
    assert m["gf.rref.cells"] == (5, "count")
    assert m["qtbdec.useful_ratio"] == (0.5, "ratio")


def test_wrapper_records_nesting_trial_and_hook_counts():
    tracer = Tracer()

    def inner(x):
        return x + 1

    wrapped_inner = tracer.wrap("m.inner", inner, lambda args, out: {"m.work": out})

    def outer(x):
        return wrapped_inner(x) * 2

    wrapped_outer = tracer.wrap("m.outer", outer)
    tracer.trial = 3
    assert wrapped_outer(1) == 4
    outer_span, inner_span = tracer.spans
    assert (outer_span.name, outer_span.parent, outer_span.trial) == ("m.outer", -1, 3)
    assert (inner_span.name, inner_span.parent, inner_span.trial) == ("m.inner", 0, 3)
    assert outer_span.start <= inner_span.start <= inner_span.end <= outer_span.end
    assert tracer.counts[3]["m.work"] == 2
