"""In-memory span tracing around the public functions of ``qlrc`` modules.

A span is recorded for every call of a wrapped function: its name, start and
end (``perf_counter_ns``), the index of the enclosing span (-1 at the top)
and the trial it belongs to (-1 during set-up). Count hooks read work counts
from a call's arguments and result at the same boundary. Everything stays in
memory until the run writes it out at the end.

Wrapping happens at every name a caller resolves: each ``qlrc`` module
attribute bound to the original function is replaced, so ``from .gf import
nullspace`` bindings and function-local imports (which read ``qlrc.gf`` at
call time) all reach the wrapper.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns
from typing import Callable, NamedTuple

SETUP = -1  # trial id of spans recorded while the code is built and warmed up


class Span(NamedTuple):
    name: str
    start: int
    end: int
    parent: int
    trial: int


def _rref_cells(args, result):
    rows, cols = args[1].shape
    return {"gf.rref.cells": rows * cols * len(result[1])}


def _dec_outcome(args, result):
    return {"qtbdec.list_entries": sum(result.list_sizes),
            "qtbdec.candidates": result.candidates,
            "qtbdec.dual_distance": result.dual_distance,
            "qtbdec.decodes": 1,
            "qtbdec.rs_radius": result.rs_radius}


def _ael_decode(args, result):
    return {"ensembles.inner_failures": result.inner_failures,
            "ensembles.inner_blocks": args[0].n_out}


def _words_scanned(args, result):
    code = args[0]
    return {"classical.words_scanned": code.ctx.q ** code.dim}


# (module, function, count hook). `_inner_decoder_cache` is private, but it is
# where the AEL inner syndrome table is built, so its set-up span is that cost.
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("gf", "rref", _rref_cells),
    ("gf", "nullspace", None),
    ("gf", "solve_right", None),
    ("polycode", "evaluate_values", None),
    ("listdec", "list_decode_rs", None),
    ("listdec", "list_decode_frs", None),
    ("qtbdec", "dist_to_piecewise", None),
    ("qtbdec", "dist_to_piecewise_folded", None),
    ("qtbdec", "dec_c", _dec_outcome),
    ("qtbdec", "dec_c_folded", _dec_outcome),
    ("qtbdec", "quantum_decode", None),
    ("css", "syndrome", None),
    ("css", "coset_representative", None),
    ("css", "is_logical_identity", None),
    ("css", "css_decode", None),
    ("css", "css_distance_brute", None),
    ("classical", "min_weight_excluding", _words_scanned),
    ("ensembles", "ael_decode", _ael_decode),
    ("ensembles", "rs_decode_errors_erasures", None),
    ("ensembles", "ael_encode", None),
    ("ensembles", "ael_quantum_decode", None),
    ("ensembles", "ael_standard_build", None),
    ("ensembles", "_inner_decoder_cache", None),
    ("qtb", "qtb_new", None),
    ("qtb", "fqtb_new", None),
)


class Tracer:
    """Records spans and counts; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.trial = SETUP
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.trial)
            if hook is not None:
                counts[self.trial].update(hook(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "qlrc") -> None:
        self.missing = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for mod_name, fn_name, hook in TARGETS:
            module = sys.modules.get(f"{package}.{mod_name}")
            if module is None:  # the workload never imported it
                continue
            original = getattr(module, fn_name, None)
            if original is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    One tracer on one thread keeps a call stack, so a span's children run one
    after another inside it and never overlap.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def layer_metrics(spans: list[Span], counts: dict[int, Counter], n_trials: int,
                  window: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}.

    Times (``.ms``, ``.self_ms``) are per-trial means over every traced
    trial; set-up times (``.s`` of a constructor) cover the set-up spans.
    Counts and ratios cover only trials ``0..window-1``, which every traced
    run completes, so they repeat exactly for a given seed.
    """
    selfs = self_times(spans)
    total_ns: Counter = Counter()
    self_ns: Counter = Counter()
    setup_ns: Counter = Counter()
    calls: Counter = Counter()
    for s, own in zip(spans, selfs):
        if s.trial == SETUP:
            setup_ns[s.name] += s.end - s.start
            continue
        total_ns[s.name] += s.end - s.start
        self_ns[s.name] += own
        if s.trial < window:
            calls[s.name] += 1
    in_window: Counter = Counter()
    for t in range(window):
        in_window.update(counts.get(t, Counter()))
    every: Counter = Counter()
    for t, bucket in counts.items():
        if t != SETUP:
            every.update(bucket)

    def ms(name):
        return (total_ns[name] / n_trials / 1e6, "ms")

    def self_ms(name):
        return (self_ns[name] / n_trials / 1e6, "ms")

    def setup_s(name):
        return (setup_ns[name] / 1e9, "s")

    def ratio(num, den):
        return num / den if den else 0.0

    scan_s = total_ns["classical.min_weight_excluding"] / 1e9
    return {
        "gf.nullspace.calls": (calls["gf.nullspace"], "count"),
        "gf.nullspace.ms": ms("gf.nullspace"),
        "gf.solve_right.ms": ms("gf.solve_right"),
        "gf.rref.cells": (in_window["gf.rref.cells"], "count"),
        "listdec.list_decode_rs.calls": (calls["listdec.list_decode_rs"], "count"),
        "listdec.list_decode_rs.self_ms": self_ms("listdec.list_decode_rs"),
        "listdec.list_decode_frs.calls": (calls["listdec.list_decode_frs"], "count"),
        "listdec.list_decode_frs.self_ms": self_ms("listdec.list_decode_frs"),
        "qtbdec.dec_c.self_ms": self_ms("qtbdec.dec_c"),
        "qtbdec.dec_c_folded.self_ms": self_ms("qtbdec.dec_c_folded"),
        "qtbdec.dist_to_piecewise.ms": ms("qtbdec.dist_to_piecewise"),
        "qtbdec.dist_to_piecewise_folded.ms": ms("qtbdec.dist_to_piecewise_folded"),
        "qtbdec.list_entries": (in_window["qtbdec.list_entries"], "count"),
        "qtbdec.candidates": (in_window["qtbdec.candidates"], "count"),
        "qtbdec.useful_ratio": (ratio(in_window["qtbdec.candidates"],
                                      in_window["qtbdec.list_entries"]), "ratio"),
        "qtbdec.dual_distance": (ratio(in_window["qtbdec.dual_distance"],
                                       in_window["qtbdec.decodes"]), "symbols"),
        "qtbdec.rs_radius": (ratio(in_window["qtbdec.rs_radius"],
                                   in_window["qtbdec.decodes"]), "symbols"),
        "polycode.evaluate_values.calls": (calls["polycode.evaluate_values"], "count"),
        "polycode.evaluate_values.ms": ms("polycode.evaluate_values"),
        "css.syndrome.ms": ms("css.syndrome"),
        "css.coset_representative.ms": ms("css.coset_representative"),
        "css.is_logical_identity.ms": ms("css.is_logical_identity"),
        # the first call per side factorises the lazy CssCode.solver_*
        "css.coset_representative.setup_s": setup_s("css.coset_representative"),
        "ensembles.ael_decode.self_ms": self_ms("ensembles.ael_decode"),
        "ensembles.rs_decode_errors_erasures.self_ms": self_ms("ensembles.rs_decode_errors_erasures"),
        "ensembles.ael_encode.ms": ms("ensembles.ael_encode"),
        "ensembles.inner_erasure_ratio": (ratio(in_window["ensembles.inner_failures"],
                                                in_window["ensembles.inner_blocks"]), "ratio"),
        "ensembles.ael_standard_build.s": setup_s("ensembles.ael_standard_build"),
        "ensembles.inner_table.s": setup_s("ensembles._inner_decoder_cache"),
        "classical.min_weight_excluding.s": (scan_s / n_trials, "s"),
        "classical.words_scanned": (in_window["classical.words_scanned"], "count"),
        "classical.words_per_s": (ratio(every["classical.words_scanned"], scan_s), "1/s"),
        "qtb.qtb_new.s": setup_s("qtb.qtb_new"),
        "qtb.fqtb_new.s": setup_s("qtb.fqtb_new"),
    }
