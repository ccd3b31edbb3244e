"""Shared pieces of the end-to-end benchmark.

* the metric declarations, read from ``BENCHMARK.json`` at the repo root;
* the percentile rule: a tail percentile is reported only when at least
  ten samples lie beyond it;
* the span recorder the traced run uses around calls into the library;
* the host record and the process-tree peak-RSS probe.

Nothing here imports ``repro``: the workload process times ``import
repro`` as part of its set-up.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"

#: Metric, workload and span names must match this (the benchmark schema).
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10

#: The tail is never reported further out than p95.  Further out, the
#: ~1 ms reads of ``serve-mixed`` measure the host descheduling the
#: process: over six seeds on a 2-vCPU VM their p99 ranged 2.5-8.9 ms and
#: p98 1.9-4.0 ms, while p95 stayed within 1.7-2.1 ms.
MAX_TAIL_Q = 0.95


class Mismatch(Exception):
    """An output disagreed with the reference: the run is invalid."""


def load_declaration(path: Path = BENCHMARK_JSON) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def declared_metrics(trace: bool) -> list[dict]:
    """The metrics one run must print: per-layer when traced, else end-to-end."""
    return load_declaration()["per_layer" if trace else "end_to_end"]


# --------------------------------------------------------------------- #
# percentiles
# --------------------------------------------------------------------- #
def percentile(samples, q: float) -> float | None:
    """The ``q``-quantile of ``samples``; ``None`` for a tail (``q > 0.5``)
    with fewer than :data:`MIN_BEYOND` samples beyond it.  The median is
    always reported."""
    n = len(samples)
    if n == 0:
        return None
    if q > 0.5 and n * (1.0 - q) < MIN_BEYOND - 1e-9:
        return None
    return float(np.quantile(np.asarray(samples, dtype=np.float64), q))


def tail_level(n: int) -> float:
    """The highest quantile with :data:`MIN_BEYOND` samples beyond it,
    capped at :data:`MAX_TAIL_Q` and never below the median."""
    if n <= 0:
        return 0.5
    return min(MAX_TAIL_Q, max(0.5, 1.0 - MIN_BEYOND / n))


def summarize(samples) -> dict:
    """Median and tail of a latency sample (seconds in, milliseconds out)."""
    q = tail_level(len(samples))
    return {
        "n": len(samples),
        "p50_ms": percentile(samples, 0.5) * 1e3,
        "tail_q": q,
        "tail_ms": percentile(samples, q) * 1e3,
    }


def spread(values) -> float:
    """Inter-quartile distance as a share of the median (the acceptance
    statistic: ``statistics.quantiles(values, n=4)``)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


# --------------------------------------------------------------------- #
# tracing
# --------------------------------------------------------------------- #
class Tracer:
    """In-memory span recorder.

    A span is ``{id, parent, op, name, start, end, attrs}``; every span of
    one operation carries the operation's id.  Spans are opened by the
    benchmark around its own calls into the library; :meth:`derive` adds
    children whose durations the library itself reported (bucket timings
    of a :class:`~repro.plan.HybridReport`), laid end to end from the
    parent's start because only their durations are known.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._op = -1

    def _record(self, name, start, end, parent, attrs) -> dict:
        rec = {
            "id": len(self.spans),
            "parent": None if parent is None else parent["id"],
            "op": self._op,
            "name": name,
            "start": start,
            "end": end,
            "attrs": dict(attrs),
        }
        self.spans.append(rec)
        return rec

    @contextmanager
    def op(self, **attrs):
        """The root span of one operation."""
        self._op += 1
        with self.span("op", **attrs) as rec:
            yield rec

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        rec = self._record(name, time.perf_counter(), None, parent, attrs)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def op_at(self, start: float, end: float, **attrs) -> dict:
        """Record a whole operation measured elsewhere (a served request)."""
        self._op += 1
        return self._record("op", start, end, None, attrs)

    def add(self, name: str, start: float, end: float, parent: dict, **attrs) -> dict:
        """Record a child span whose interval was measured elsewhere."""
        return self._record(name, start, end, parent, attrs)

    def derive(self, parent: dict, children) -> None:
        """Children ``(name, seconds, attrs)`` of a closed span."""
        t = parent["start"]
        for name, seconds, attrs in children:
            self.add(name, t, t + seconds, parent, **attrs)
            t += seconds

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def self_times(spans) -> dict[int, float]:
    """Span id → duration minus the durations of its children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer medians over the traced operations.

    ``<span name>_ms`` is the median, over operations that entered the
    layer, of its summed duration; every numeric span attribute becomes
    a metric of its own (the median over the spans carrying it).
    ``trace.coverage`` is the share of operation wall time that named
    layer spans account for (1 minus the root's self time).
    """
    per_op: dict[tuple[int, str], float] = {}
    attrs: dict[str, list[float]] = {}
    roots = {}
    for s in spans:
        if s["name"] == "op":
            roots[s["op"]] = s
        else:
            key = (s["op"], s["name"])
            per_op[key] = per_op.get(key, 0.0) + (s["end"] - s["start"])
        for k, v in s["attrs"].items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                attrs.setdefault(k, []).append(float(v))
    by_name: dict[str, list[float]] = {}
    for (_, name), seconds in per_op.items():
        by_name.setdefault(name, []).append(seconds)
    out = {f"{name}_ms": statistics.median(v) * 1e3 for name, v in by_name.items()}
    out.update({k: statistics.median(v) for k, v in attrs.items()})
    if roots:
        own = self_times(spans)
        cover = [
            1.0 - own[r["id"]] / (r["end"] - r["start"])
            for r in roots.values()
            if r["end"] > r["start"]
        ]
        out["trace.coverage"] = statistics.median(cover)
    return out


# --------------------------------------------------------------------- #
# host and process records
# --------------------------------------------------------------------- #
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path = ROOT) -> str:
    """The checked-out commit, read from ``.git`` without running git
    (which would search directories above the checkout)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = git / ref
        if ref_path.exists():
            return ref_path.read_text().strip()
        packed = git / "packed-refs"
        if packed.exists():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record(seed: int, provider: str | None, start_method: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "compiled_provider": provider or "none",
        "start_method": start_method,
        "seed": seed,
        "commit": git_commit(),
    }


def _children(pid: int) -> list[int]:
    out = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as fh:
                out.extend(int(c) for c in fh.read().split())
    except OSError:
        pass
    return out


def _hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb() -> float:
    """Summed VmHWM of this process and every live descendant, in MiB."""
    todo, total = [os.getpid()], 0
    while todo:
        pid = todo.pop()
        total += _hwm_kib(pid)
        todo.extend(_children(pid))
    return total / 1024.0
