"""The workload process of the end-to-end benchmark.

``run.py`` starts one fresh interpreter per workload (and per extra
set-up measurement), so the plan cache, the dataset cache and the
compiled-provider load start cold and the process's memory is its own::

    python benchmarks/e2e/e2e_workloads.py --workload NAME --inputs DIR \\
        --seconds S --trace 0|1 --result PATH [--setup-only]

Set-up is timed from the top of this file: the imports below, ``import
repro`` and the workload's own set-up calls through its first operation.
Generating inputs and computing reference counts happened earlier, in
the harness process.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from functools import cached_property  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from repro.core.result import EdgeCounts  # noqa: E402
from repro.engine import GraphSession  # noqa: E402
from repro.graph.build import edges_to_csr  # noqa: E402
from repro.graph.io import load_csr, read_edge_list, read_edge_pairs  # noqa: E402
from repro.plan.planner import clear_plan_cache  # noqa: E402

from e2e_core import (  # noqa: E402
    ROOT,
    SRC,
    Mismatch,
    Tracer,
    declared_metrics,
    layer_metrics,
    percentile,
    summarize,
    tree_peak_rss_mb,
)

#: Untimed operations before the timed phase.
WARMUP_S = 2.0
#: Length of each layer probe in a traced run.
PROBE_S = 3.0
POOL_BACKENDS = ("hybrid", "parallel", "sharded")
#: Pool workers (and shards): the host has 2 vCPUs.
POOL_WORKERS = 2


def child_env(work: Path) -> dict:
    """Environment for every process the benchmark starts: the program is
    imported from this checkout's ``src``, and its compiled-kernel cache
    and temporary files stay inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_COMPILED_CACHE"] = str(work / "compiled")
    env["TMPDIR"] = str(work / "tmp")
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    return env


class Inputs:
    """One input directory written by :func:`e2e_inputs.make_inputs`."""

    def __init__(self, path):
        self.dir = Path(path)
        self.graph_npz = self.dir / "graph.npz"
        self.graph_txt = self.dir / "graph.txt"

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        with np.load(self.graph_npz) as data:
            return data["offsets"], data["dst"]

    @cached_property
    def reference(self) -> tuple[np.ndarray, int]:
        with np.load(self.dir / "check.npz") as data:
            return data["counts"], int(data["triangles"])

    @cached_property
    def traffic(self) -> dict:
        with np.load(self.dir / "serve.npz") as data:
            return {k: data[k] for k in data.files}

    def check_counts(self, counts, triangles=None) -> None:
        ref, ref_tri = self.reference
        if not np.array_equal(counts, ref):
            raise Mismatch("count vector differs from the reference")
        if triangles is not None and triangles != ref_tri:
            raise Mismatch(f"triangle count {triangles} != reference {ref_tri}")

    def check_graph(self, graph) -> None:
        offsets, dst = self.csr
        if not (np.array_equal(graph.offsets, offsets) and np.array_equal(graph.dst, dst)):
            raise Mismatch("CSR built from the edge-list file differs from the input graph")


def derive_report(tracer: Tracer, span: dict, result) -> None:
    """Attach what a counting call reported about itself to its span:
    per-bucket executor time and the mirror step as child spans, the
    planner's accuracy and the pool statistics as span attributes."""
    report = result.hybrid_report
    if report is not None:
        children = [
            (f"executor.{t.name}", t.measured_seconds, {f"executor.{t.name}_edges": t.edges})
            for t in report.timings
        ]
        children.append(("kernels.mirror", report.fuse_seconds, {}))
        tracer.derive(span, children)
        measured = sum(t.measured_seconds for t in report.timings)
        if measured > 0:
            span["attrs"]["executor.predicted_over_measured"] = (
                report.plan.predicted_total_ns / (measured * 1e9)
            )
    stats = result.parallel_stats
    if stats is not None:
        busy = max((w.busy_seconds for w in stats.per_worker()), default=0.0)
        span["attrs"].update({
            "pool.worker_busy_ms": busy * 1e3,
            "pool.parent_wait_ms": (span["end"] - span["start"] - busy) * 1e3,
            "pool.imbalance": stats.imbalance,
            "pool.chunks": stats.num_chunks,
        })
        if stats.replication_factor is not None:
            span["attrs"]["sharded.replication_factor"] = stats.replication_factor


class CountWorkload:
    """A closed loop with one caller: the next operation starts when the
    previous one returned."""

    #: Span-name prefixes this workload reports when run as a layer probe.
    PROVIDES: tuple = ()
    #: Set-up time starts at the top of this file, so it covers ``import
    #: repro``; the serve workload's program is a separate process.
    SETUP_INCLUDES_IMPORT = True

    def __init__(self, inputs: Inputs, work: Path):
        self.inputs = inputs
        self.work = work
        self.ops = 0

    def start(self) -> list:
        """Build the program's state and run the first operation; the
        results are checked after set-up time is taken."""
        return [self.op()]

    def op(self, tracer=None):
        raise NotImplementedError

    def check(self, result) -> None:
        self.inputs.check_counts(result)

    def close(self) -> None:
        pass

    def run(self, seconds: float, tracer=None) -> dict:
        latencies = []
        attempted = failed = 0
        t0 = time.perf_counter()
        deadline = t0 + seconds
        end = t0
        while attempted == 0 or end < deadline:
            attempted += 1
            start = time.perf_counter()
            try:
                result = self.op(tracer)
            except Exception:  # noqa: BLE001 - a failed operation is counted
                failed += 1
                traceback.print_exc()
                end = time.perf_counter()
                continue
            end = time.perf_counter()
            latencies.append(end - start)
            self.check(result)
        out = {
            "latencies": latencies,
            "attempted": attempted,
            "failed": failed,
            "elapsed": end - t0,
        }
        if tracer is not None:
            out["layers"] = layer_metrics(tracer.spans)
        return out

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb()


class FileToCounts(CountWorkload):
    """The CLI path: parse the edge-list file, build the CSR, open a
    session, count, total the triangles, close — every operation."""

    PROVIDES = ("io.", "build.", "session.", "planner.", "executor.", "kernels.", "result.")

    def op(self, tracer=None):
        path = self.inputs.graph_txt
        if tracer is None:
            clear_plan_cache()
            graph = read_edge_list(path)
            session = GraphSession(graph)
            try:
                counts = session.count()
                triangles = counts.triangle_count()
            finally:
                session.close()
            return graph, counts.counts, triangles
        with tracer.op():
            clear_plan_cache()
            # read_edge_list split into its two public halves.
            with tracer.span("io.parse"):
                pairs = read_edge_pairs(path)
            with tracer.span("build.csr"):
                graph = edges_to_csr(pairs[:, 0].copy(), pairs[:, 1].copy())
            session = GraphSession(graph)
            try:
                with tracer.span("session.fingerprint"):
                    session.fingerprint()
                with tracer.span("planner.plan"):
                    session.plan()
                with tracer.span("session.count") as span:
                    result = session.count(collect_stats=True)
                derive_report(tracer, span, result)
                with tracer.span("result.wrap"):
                    triangles = EdgeCounts(graph, result.counts).triangle_count()
            finally:
                with tracer.span("session.close"):
                    session.close()
        return graph, result.counts, triangles

    def check(self, result):
        graph, counts, triangles = result
        self.inputs.check_graph(graph)
        self.inputs.check_counts(counts, triangles)


class WarmCountSkewed(CountWorkload):
    """Repeated ``count()`` on one resident session: planning is memoized,
    so each operation is the executor buckets plus the mirror step."""

    def start(self):
        self.session = GraphSession(load_csr(self.inputs.graph_npz))
        return [self.op()]

    def op(self, tracer=None):
        if tracer is None:
            return self.session.count().counts
        with tracer.op():
            with tracer.span("session.count") as span:
                result = self.session.count(collect_stats=True)
            derive_report(tracer, span, result)
        return result.counts

    def close(self):
        session = getattr(self, "session", None)
        if session is not None:
            session.close()


class PoolCountDense(WarmCountSkewed):
    """Counts on one warm session cycling through the pool-backed
    backends with two workers each; set-up runs one full cycle, so every
    runtime has started before the timed phase."""

    PROVIDES = ("pool.", "sharded.", "executor.", "kernels.")

    def start(self):
        self.session = GraphSession(load_csr(self.inputs.graph_npz))
        return [self.op() for _ in POOL_BACKENDS]

    def op(self, tracer=None):
        backend = POOL_BACKENDS[self.ops % len(POOL_BACKENDS)]
        self.ops += 1
        if tracer is None:
            return self.session.count(backend=backend, num_workers=POOL_WORKERS).counts
        with tracer.op(backend=backend):
            with tracer.span(f"pool.{backend}") as span:
                result = self.session.count(
                    backend=backend, num_workers=POOL_WORKERS, collect_stats=True
                )
            derive_report(tracer, span, result)
        return result.counts


class ServeMixed:
    """Open-loop HTTP traffic against ``repro serve`` (see :mod:`e2e_serve`).
    Set-up runs from starting the server process through loading the
    graph file and answering the first read."""

    PROVIDES = ("serve.",)
    SETUP_INCLUDES_IMPORT = False

    def __init__(self, inputs: Inputs, work: Path):
        self.inputs = inputs
        self.work = work
        self.loop = asyncio.new_event_loop()
        self.server = None
        self.traffic = None

    def start(self) -> list:
        from e2e_serve import ServerProcess, Traffic, request

        self.server = ServerProcess(ROOT, child_env(self.work), self.work / "server.log")
        port = self.server.start()

        async def setup():
            status, info = await request(
                port, "POST", "/graphs", {"path": str(self.inputs.graph_txt)}
            )
            if status != 200:
                raise RuntimeError(f"loading the graph failed: {status} {info}")
            traffic = Traffic(port, info["graph"], self.inputs.traffic)
            await traffic.first_read()
            await traffic.open()
            return traffic

        self.traffic = self.loop.run_until_complete(setup())
        return []

    def check(self, result) -> None:
        pass  # every read is checked as its response arrives

    def run(self, seconds: float, tracer=None) -> dict:
        from e2e_serve import layer_metrics as serve_layers

        async def phase():
            before = await self.traffic.stats() if tracer is not None else None
            ph = await self.traffic.run(seconds, tracer=tracer)
            after = await self.traffic.stats() if tracer is not None else None
            return ph, before, after

        ph, before, after = self.loop.run_until_complete(phase())
        out = {
            "latencies": ph.reads,
            "edits": ph.edits,
            "attempted": ph.attempted,
            "failed": ph.failed,
            "elapsed": ph.elapsed,
        }
        if tracer is not None:
            out["layers"] = {
                **layer_metrics(tracer.spans),
                **serve_layers(ph, before, after, self.traffic.roundtrips),
            }
        return out

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb()  # this process plus the server

    def close(self) -> None:
        if self.traffic is not None:
            self.loop.run_until_complete(self.traffic.close())
            self.traffic = None
        if self.server is not None:
            self.server.stop()
            self.server = None
        if not self.loop.is_closed():
            self.loop.close()


WORKLOADS = {
    "file-to-counts": FileToCounts,
    "warm-count-skewed": WarmCountSkewed,
    "pool-count-dense": PoolCountDense,
    "serve-mixed": ServeMixed,
}

#: Probes that fill per-layer metrics a workload's own operation does not reach.
PROBES = (FileToCounts, PoolCountDense, ServeMixed)


def _probe(cls, inputs: Inputs, work: Path, seconds: float) -> dict:
    wl = cls(inputs, work)
    try:
        for result in wl.start():
            wl.check(result)
        return wl.run(seconds, tracer=Tracer())["layers"]
    finally:
        wl.close()


def run_workload(
    name: str,
    inputs_dir,
    seconds: float,
    trace: bool,
    *,
    work: Path,
    warmup: float = WARMUP_S,
    probe_seconds: float = PROBE_S,
    setup_only: bool = False,
    t0: float | None = None,
    spans_path: Path | None = None,
) -> dict:
    """Set up, warm up and measure one workload; raises :class:`Mismatch`
    on any wrong output."""
    t0 = time.perf_counter() if t0 is None else t0
    inputs = Inputs(inputs_dir)
    wl = WORKLOADS[name](inputs, work)
    try:
        if not wl.SETUP_INCLUDES_IMPORT:
            t0 = time.perf_counter()
        first = wl.start()
        setup_s = time.perf_counter() - t0
        for result in first:
            wl.check(result)
        out = {"workload": name, "setup_s": setup_s}
        if setup_only:
            return out
        if warmup > 0:
            wl.run(warmup)
        if not trace:
            phases = [wl.run(seconds)]
            out["peak_rss_mb"] = wl.peak_rss_mb()
        else:
            tracer = Tracer()
            phases = [wl.run(seconds / 2), wl.run(seconds / 2, tracer=tracer)]
            if spans_path is not None:
                tracer.dump(spans_path)
            out["layers"] = phases[1]["layers"]
            out["layers"]["trace.overhead"] = (
                percentile(phases[1]["latencies"], 0.5)
                / percentile(phases[0]["latencies"], 0.5)
            )
        ph = phases[-1]
        out.update(
            attempted=sum(p["attempted"] for p in phases),
            failed=sum(p["failed"] for p in phases),
            ops_per_s=(ph["attempted"] - ph["failed"]) / ph["elapsed"],
            op=summarize(ph["latencies"]),
        )
        if ph.get("edits"):
            out["edit"] = summarize(ph["edits"])
    finally:
        wl.close()
    if trace:
        missing = [m["name"] for m in declared_metrics(True) if m["name"] not in out["layers"]]
        for cls in PROBES:
            if isinstance(wl, cls) or not any(
                m.startswith(cls.PROVIDES) for m in missing
            ):
                continue
            for k, v in _probe(cls, inputs, work, probe_seconds).items():
                out["layers"].setdefault(k, v)
            missing = [m for m in missing if m not in out["layers"]]
    return out


def end_to_end_metrics(out: dict, setups: list[float]) -> dict:
    """The end-to-end metrics of one untraced run, from the measuring
    process's result and every set-up time measured for the run."""
    return {
        "op_p50_ms": out["op"]["p50_ms"],
        "op_tail_ms": out["op"]["tail_ms"],
        "ops_per_s": out["ops_per_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": out["peak_rss_mb"],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--inputs", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans")
    args = p.parse_args(argv)
    work = Path(args.result).resolve().parent
    try:
        out = run_workload(
            args.workload,
            args.inputs,
            args.seconds,
            bool(args.trace),
            work=work,
            setup_only=args.setup_only,
            t0=_T0,
            spans_path=Path(args.spans) if args.spans else None,
        )
    except Mismatch as exc:
        print(f"INCORRECT: {exc}", file=sys.stderr)
        return 3
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
