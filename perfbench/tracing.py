"""In-memory span tracing around the layers that `gaussvol.integrate` calls.

The package source is not edited: while a tracer is installed, the module
attributes that `integrate` looks up at call time (`domain_mask`,
`metric_components`, `regularizer_values`, `upsilon_box`,
`mc_joint_volumes`, `_stream_partial`) and `numpy.linalg.slogdet` are replaced by wrappers that
record one span per call, and the originals are put back afterwards.

A span is (name, start, end, parent, points).  The parent is the innermost
open span of the same thread, so self time does not subtract work that
another thread did.  Each stream of an `mc_joint_volumes` pass runs in one call of
`_stream_partial`, which gets its own span: in a pool worker thread, whose
span stack starts empty, that span's parent is the innermost open
`mc_joint_volumes` span, the only place that starts threads.  Self time is a
span's duration minus the part of it that the union of its children's
intervals covers, so the pool owner's self time excludes the time any stream
runs, and a stream's self time is the draw, mask algebra and reduction of
that one thread.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import threading
import time
from dataclasses import dataclass

import numpy as np

LAYERS = {
    # span name: (module attribute path, how many points one call processes)
    "twomode.domain_mask": ("gaussvol.integrate.domain_mask", lambda a, *r, **k: np.size(a)),
    "twomode.metric_components": ("gaussvol.integrate.metric_components",
                                  lambda a, *r, **k: np.size(a)),
    "numpy.linalg.slogdet": ("numpy.linalg.slogdet",
                             lambda m, *r, **k: int(np.prod(np.shape(m)[:-2]))),
    "integrate.regularizer_values": ("gaussvol.integrate.regularizer_values",
                                     lambda a, *r, **k: np.size(a)),
    "integrate.upsilon_box": ("gaussvol.integrate.upsilon_box", lambda *r, **k: 0),
    "integrate.mc_joint_volumes": ("gaussvol.integrate.mc_joint_volumes",
                                   lambda box, spec, n_samples, *r, **k: int(n_samples)),
    "integrate.stream": ("gaussvol.integrate._stream_partial",
                         lambda child_ss, count, *r, **k: int(count)),
}
_POOL_OWNER = "integrate.mc_joint_volumes"
_STREAM = "integrate.stream"
_PROBE = "integrate.upsilon_box"


@dataclass
class Span:
    name: str
    parent: int | None
    points: int
    start: float = 0.0
    end: float = 0.0
    cpu: float = 0.0  # process CPU seconds over the span; recorded for pool owners only

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; one tracer per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()  # worker threads append spans concurrently
        self._local = threading.local()
        self._pool_parent: int | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, points=lambda *a, **k: 0):
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, stack[-1] if stack else self._pool_parent, points(*args, **kwargs))
            with self._lock:
                sid = len(self.spans)
                self.spans.append(span)
            owner = name == _POOL_OWNER
            if owner:
                saved, self._pool_parent = self._pool_parent, sid
                cpu0 = time.process_time()
            stack.append(sid)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if owner:
                    span.cpu = time.process_time() - cpu0
                    self._pool_parent = saved

        return traced


def _resolve(path: str):
    module_name, attr = path.rsplit(".", 1)
    module = __import__(module_name, fromlist=[attr])
    return module, attr


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every layer in LAYERS for its traced wrapper; restore on exit."""
    saved = []
    try:
        for name, (path, points) in LAYERS.items():
            module, attr = _resolve(path)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, points))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent]
            children.setdefault(s.parent, []).append((max(s.start, p.start), min(s.end, p.end)))
    return [s.duration - covered(children.get(i, [])) for i, s in enumerate(spans)]


def _under_probe(spans: list[Span], i: int) -> bool:
    p = spans[i].parent
    while p is not None:
        if spans[p].name == _PROBE:
            return True
        p = spans[p].parent
    return False


def layer_metrics(traces: list[list[Span]], untraced_walls: list[float],
                  one_stream_walls: list[float]) -> dict:
    """Per-layer metrics from the spans of several traced runs of one workload.

    Each trace's root span is `cli.main`.  Times are medians over the runs,
    per-point figures pool every run, and p50/p99 pool every call.
    """
    per_run = []
    mask_ms = []
    pooled_self = {}
    pooled_points = {}
    for spans in traces:
        selfs = self_times(spans)
        run = {"calls": {}, "self_s": {}}
        drawn = probe_drawn = weighted = 0
        main_s = probe_s = main_cpu = 0.0
        for i, s in enumerate(spans):
            run["calls"][s.name] = run["calls"].get(s.name, 0) + 1
            run["self_s"][s.name] = run["self_s"].get(s.name, 0.0) + selfs[i]
            pooled_self[s.name] = pooled_self.get(s.name, 0.0) + selfs[i]
            pooled_points[s.name] = pooled_points.get(s.name, 0) + s.points
            if s.name == "twomode.domain_mask":
                mask_ms.append(s.duration * 1e3)
            elif s.name == "twomode.metric_components":
                weighted += s.points
            elif s.name == _PROBE:
                probe_s += s.duration
            elif s.name == _POOL_OWNER:
                drawn += s.points
                if _under_probe(spans, i):
                    probe_drawn += s.points
                else:
                    main_s += s.duration
                    main_cpu += s.cpu
        root = spans[0]
        run.update(drawn=drawn, probe_drawn=probe_drawn, weighted=weighted, main_s=main_s,
                   probe_s=probe_s, main_cpu=main_cpu, wall=root.duration,
                   overhead=root.duration - main_s - probe_s)
        per_run.append(run)

    def med(key):
        return statistics.median(r[key] for r in per_run)

    def med_self(name):
        return statistics.median(r["self_s"].get(name, 0.0) for r in per_run)

    def ns_per_point(name):
        pts = pooled_points.get(name, 0)
        return pooled_self.get(name, 0.0) / pts * 1e9 if pts else 0.0

    first = per_run[0]
    untraced = statistics.median(untraced_walls)
    p50, p99 = np.percentile(mask_ms, [50, 99]) if mask_ms else (0.0, 0.0)
    total_drawn = sum(r["drawn"] for r in per_run)
    return {
        "twomode.domain_mask.calls": (first["calls"].get("twomode.domain_mask", 0), "count"),
        "twomode.domain_mask.self_s": (med_self("twomode.domain_mask"), "s"),
        "twomode.domain_mask.ns_per_point": (ns_per_point("twomode.domain_mask"), "ns"),
        "twomode.domain_mask.p50_ms": (float(p50), "ms"),
        "twomode.domain_mask.p99_ms": (float(p99), "ms"),
        "twomode.metric_components.calls": (first["calls"].get("twomode.metric_components", 0),
                                            "count"),
        "twomode.metric_components.self_s": (med_self("twomode.metric_components"), "s"),
        "twomode.metric_components.ns_per_point": (ns_per_point("twomode.metric_components"), "ns"),
        "numpy.linalg.slogdet.self_s": (med_self("numpy.linalg.slogdet"), "s"),
        "numpy.linalg.slogdet.ns_per_point": (ns_per_point("numpy.linalg.slogdet"), "ns"),
        "integrate.regularizer_values.self_s": (med_self("integrate.regularizer_values"), "s"),
        "integrate.regularizer_values.ns_per_point": (ns_per_point("integrate.regularizer_values"),
                                                      "ns"),
        "integrate.self_ns_per_sample": ((pooled_self.get(_POOL_OWNER, 0.0) + pooled_self.get(_STREAM, 0.0))
                                         / total_drawn * 1e9, "ns"),
        "integrate.accept_classical": (sum(r["weighted"] for r in per_run) / total_drawn, "ratio"),
        "integrate.probe_s": (med("probe_s"), "s"),
        "integrate.probe_sample_share": (sum(r["probe_drawn"] for r in per_run) / total_drawn, "ratio"),
        "integrate.main_pass_s": (med("main_s"), "s"),
        "cli.overhead_s": (med("overhead"), "s"),
        "integrate.cpu_per_wall": (sum(r["main_cpu"] for r in per_run)
                                   / sum(r["main_s"] for r in per_run), "ratio"),
        "integrate.speedup_vs_1_stream": (statistics.median(one_stream_walls) / untraced, "ratio"),
        "trace.overhead_frac": ((med("wall") - untraced) / untraced, "ratio"),
    }


def run_in_process(main, argv: list[str]) -> tuple[int, str, float]:
    """Call ``main(argv)`` with stdout captured; return (exit code, stdout, wall seconds)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue(), time.perf_counter() - t0
