"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``stats``       Table 1/2 statistics for a dataset stand-in or edge-list file.
``count``       Exact all-edge counting (optionally saving the counts), or a
                registered motif total via ``--motif clique-4`` /
                ``--motif biclique-2-2``.
``plan``        Inspect the hybrid planner's kernel buckets for a graph
                (``--motif`` prices a motif count instead).
``backends``    The backend registry: capabilities, kernel provider, motifs.
``update``      Apply edge insertions/deletions with live count maintenance.
``serve``       Long-lived HTTP/JSON counting service with request batching.
``stream``      Sliding-window counting over a timestamped edge stream.
``fuzz``        Differential fuzzing across every registered execution path.
``simulate``    Modeled run on one of the paper's three processors.
``experiment``  Regenerate one paper table/figure (table1..table7, fig3..fig10).
``recommend``   The paper's processor guidance for a graph.
``cluster``     SCAN structural clustering on the counts.
``linkpred``    Link prediction (common neighbors / Adamic-Adar / RA).
``datasets``    List the bundled dataset stand-ins.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def _load_graph(spec: str, scale: float, reordered: bool):
    """A graph argument is either a dataset name or an edge-list path."""
    from repro.graph.datasets import DATASETS, load_dataset
    from repro.graph.io import read_edge_list
    from repro.graph.reorder import reorder_graph

    if spec in DATASETS:
        return load_dataset(spec, scale=scale, reordered=reordered)
    graph = read_edge_list(spec)
    if reordered:
        graph = reorder_graph(graph).graph
    return graph


def _cmd_stats(args) -> int:
    from repro.graph.stats import graph_statistics

    graph = _load_graph(args.graph, args.scale, reordered=False)
    s = graph_statistics(graph, args.graph, skew_threshold=args.skew_threshold)
    print(f"graph            : {args.graph}")
    print(f"|V|              : {s.num_vertices}")
    print(f"|E| (undirected) : {s.num_edges}")
    print(f"average degree   : {s.average_degree:.2f}")
    print(f"max degree       : {s.max_degree}")
    print(
        f"skewed edges     : {s.skew_percentage:.1f}% "
        f"(degree ratio > {args.skew_threshold:g})"
    )
    return 0


def _cmd_count(args) -> int:
    from repro.core import verify_counts
    from repro.engine import GraphSession
    from repro.motif import DEFAULT_MOTIF

    graph = _load_graph(args.graph, args.scale, reordered=False)
    if args.motif != DEFAULT_MOTIF:
        return _count_motif(args, graph)
    backend = args.backend
    if backend == "auto" and args.shard_mb is not None:
        backend = "sharded"
    elif backend == "auto" and (args.workers is not None or args.stats):
        backend = "parallel"
    with GraphSession(graph, shard_budget_mb=args.shard_mb) as session:
        result = session.count(
            algorithm=args.algorithm,
            backend=backend,
            num_workers=args.workers,
            chunks_per_worker=args.chunks_per_worker,
            collect_stats=args.stats,
            cover=not args.no_cover,
        )
        if args.verify:
            verify_counts(result)
            print("verification     : passed")
        print(f"graph            : {graph}")
        print(f"triangles        : {result.triangle_count()}")
        if args.stats and result.parallel_stats is not None:
            print(result.parallel_stats.format())
        if args.stats and result.hybrid_report is not None:
            print(result.hybrid_report.format())
        print("top edges (u, v, common neighbors):")
        for u, v, c in result.top_edges(args.top):
            print(f"  ({u}, {v})  {c}")
        if args.output:
            np.savez_compressed(args.output, counts=result.counts)
            print(f"counts saved     : {args.output}")
    return 0


def _count_motif(args, graph) -> int:
    """``count --motif``: one motif total through the session runners."""
    from repro.engine import GraphSession
    from repro.errors import VerificationError
    from repro.motif import get_motif

    spec = get_motif(args.motif)  # unknown motif -> AlgorithmError, exit 4
    with GraphSession(graph) as session:
        result = session.count_motif(args.motif, backend=args.backend)
        print(f"graph            : {graph}")
        print(f"motif            : {result.motif} (arity {spec.arity})")
        print(f"backend          : {result.backend}")
        print(f"occurrences      : {result.total}")
        if args.verify:
            structure = (
                session.bipartite_view().graph
                if spec.structure == "bipartite"
                else graph
            )
            reference = spec.reference(structure)
            if reference != result.total:
                raise VerificationError(
                    f"motif {result.motif} backend {result.backend!r} counted "
                    f"{result.total}, brute force counted {reference}"
                )
            print("verification     : passed (brute force)")
    return 0


def _cmd_plan(args) -> int:
    from repro.engine import GraphSession
    from repro.motif import DEFAULT_MOTIF
    from repro.plan import plan_cache_stats

    graph = _load_graph(args.graph, args.scale, reordered=False)
    if args.motif != DEFAULT_MOTIF:
        return _plan_motif(args, graph)
    with GraphSession(graph) as session:
        plan = session.plan(args.skew_threshold, cover=not args.no_cover)
        print(f"graph            : {graph}")
        print(plan.format())
        if args.execute:
            report = session.count(
                backend="hybrid",
                skew_threshold=args.skew_threshold,
                num_workers=args.workers,
                collect_stats=True,
                cover=not args.no_cover,
            ).hybrid_report
            for t in report.timings:
                print(
                    f"ran    {t.name:7s}: {t.edges:>8d} edges in "
                    f"{t.measured_ms:9.2f} ms (predicted {t.predicted_ns / 1e6:9.2f} ms)"
                )
            print(f"symmetric assign : {report.fuse_seconds * 1e3:.2f} ms")
            print(f"total            : {report.total_seconds * 1e3:.2f} ms")
    cache = plan_cache_stats()
    print(
        f"plan cache       : {cache.hits} hits, {cache.misses} misses, "
        f"{cache.size} cached"
    )
    return 0


def _plan_motif(args, graph) -> int:
    """``plan --motif``: price the motif count without running it."""
    from repro.engine import GraphSession
    from repro.errors import AlgorithmError
    from repro.motif import get_motif, plan_cliques
    from repro.motif.biclique import biclique_plan_summary

    spec = get_motif(args.motif)
    with GraphSession(graph) as session:
        print(f"graph            : {graph}")
        if spec.family == "clique":
            plan = plan_cliques(
                graph,
                spec.params[0],
                dag=session.oriented_dag(),
                skew_threshold=args.skew_threshold,
            )
            print(plan.format())
        elif spec.family == "biclique":
            print(
                biclique_plan_summary(
                    session.bipartite_view().graph, *spec.params
                )
            )
        else:  # pragma: no cover - every non-edge family is handled above
            raise AlgorithmError(
                f"motif {spec.name!r} has no dedicated planner; "
                "omit --motif for the common-neighbor plan"
            )
    return 0


def _cmd_backends(args) -> int:
    from repro import compiled
    from repro.engine import default_registry
    from repro.motif import motif_specs

    reg = default_registry()
    print(f"kernel provider: {compiled.provider() or compiled.unavailable_reason()}")
    print()
    print(
        f"{'backend':<16s} {'algorithms':<10s} {'capabilities':<30s} motifs"
    )
    for s in reg.specs():
        caps = [
            label
            for flag, label in (
                (s.supports_stats, "stats"),
                (s.supports_num_workers, "workers"),
                (s.supports_edge_subset, "subset"),
            )
            if flag
        ]
        extra = sorted(s.motifs - {"common-neighbors"})
        print(
            f"{s.name:<16s} {','.join(sorted(s.algorithms)) or '-':<10s} "
            f"{','.join(caps) or '-':<30s} "
            f"{'+' + str(len(extra)) if extra else '-'}"
        )
    print()
    print(f"{'motif':<16s} {'arity':<6s} {'structure':<10s} {'runners':<22s} default")
    for m in motif_specs():
        runners = ",".join(m.runner_names()) or "(count backends)"
        print(
            f"{m.name:<16s} {m.arity:<6d} {m.structure:<10s} "
            f"{runners:<22s} {m.default_backend}"
        )
    return 0


def _cmd_update(args) -> int:
    import time

    from repro.core import DynamicCounter
    from repro.graph.io import read_edge_pairs

    if not args.edges and not args.delete:
        print("update: provide --edges and/or --delete", file=sys.stderr)
        return 2
    graph = _load_graph(args.graph, args.scale, reordered=False)
    ins = read_edge_pairs(args.edges) if args.edges else np.empty((0, 2), np.int64)
    dels = read_edge_pairs(args.delete) if args.delete else np.empty((0, 2), np.int64)

    t0 = time.perf_counter()
    counter = DynamicCounter(
        graph,
        backend=args.backend,
        num_workers=args.workers,
        chunks_per_worker=args.chunks_per_worker,
        recount_fraction=args.recount_fraction,
    )
    build_s = time.perf_counter() - t0

    batch = args.batch_size if args.batch_size else max(len(ins) + len(dels), 1)
    inserted = deleted = skipped = 0
    t0 = time.perf_counter()
    for lo in range(0, len(ins), batch):
        r = counter.apply(insertions=ins[lo : lo + batch])
        inserted += r.inserted
        skipped += r.skipped
    for lo in range(0, len(dels), batch):
        r = counter.apply(deletions=dels[lo : lo + batch])
        deleted += r.deleted
        skipped += r.skipped
    update_s = time.perf_counter() - t0

    print(f"graph            : {graph}")
    print(f"initial build    : {build_s * 1e3:.1f} ms")
    print(f"inserted         : {inserted}")
    print(f"deleted          : {deleted}")
    print(f"skipped (no-op)  : {skipped}")
    print(f"update time      : {update_s * 1e3:.1f} ms")
    print(f"batch recounts   : {counter.recounts}")
    print(f"compactions      : {counter.overlay.compactions}")
    print(f"|E| now          : {counter.num_edges}")
    print(f"triangles        : {counter.triangle_count()}")
    if args.verify:
        counter.verify()
        print("verification     : passed")
    if args.output:
        counter.snapshot().save(args.output)
        print(f"counts saved     : {args.output}")
    return 0


def _parse_preload(spec: str) -> dict:
    """``lj`` / ``lj:0.2`` (dataset[:scale]) or an edge-list path."""
    from repro.graph.datasets import DATASETS

    name, _, scale = spec.partition(":")
    if name in DATASETS:
        return {"dataset": name, "scale": float(scale) if scale else 1.0}
    return {"path": spec}


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve import CountingServer, CountingService

    service = CountingService(
        capacity=args.pool_size,
        max_pending=args.max_pending,
        dispatch_threads=args.dispatch_threads,
        coalesce=not args.no_coalesce,
    )

    async def run() -> None:
        server = CountingServer(service, host=args.host, port=args.port)
        await server.start()
        print(f"serving on {server.address}", flush=True)
        for spec in args.preload or []:
            info = await service.load_graph(**_parse_preload(spec))
            print(
                f"loaded {info['graph']}  ({info['name']}: "
                f"|V|={info['vertices']}, |E|={info['edges']})",
                flush=True,
            )
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        service.close()
    return 0


def _cmd_stream(args) -> int:
    import itertools
    import json
    import math
    import time

    from repro.stream import SampledCounter, StreamCounter, parse_trace, read_trace

    window = math.inf if args.window is None else float(args.window)
    events = (
        read_trace(args.trace)
        if args.trace
        else parse_trace(sys.stdin, source="<stdin>")
    )
    if args.max_events:
        events = itertools.islice(events, args.max_events)

    sampler = None
    if args.sampled_budget is not None:
        sampler = SampledCounter(
            args.sampled_budget, seed=args.seed, delta=args.delta
        )

    counter = StreamCounter(window)
    # Pull-model backpressure: events are read from the pipe only as fast
    # as they are ingested, in batches sized to a target wall-time per
    # batch — large enough to amortize per-event cost, small enough that
    # snapshots stay fresh when the producer outruns the counter.
    adaptive = args.batch == 0
    batch_size = 256 if adaptive else max(1, args.batch)
    target = max(1e-3, args.target_batch_seconds)
    total = 0
    next_snapshot = args.snapshot_every
    t0 = time.perf_counter()
    it = iter(events)
    try:
        while True:
            chunk = list(itertools.islice(it, batch_size))
            if not chunk:
                break
            tb = time.perf_counter()
            counter.ingest(chunk)
            if sampler is not None:
                sampler.ingest((int(u), int(v)) for _, u, v in chunk)
            batch_s = time.perf_counter() - tb
            total += len(chunk)
            if adaptive:
                if batch_s > target and batch_size > 64:
                    batch_size //= 2
                elif batch_s < target / 4 and batch_size < 65536:
                    batch_size *= 2
            if args.snapshot_every and total >= next_snapshot:
                next_snapshot += args.snapshot_every
                elapsed = time.perf_counter() - t0
                snap = {
                    "type": "snapshot",
                    "events": total,
                    "now": counter.now,
                    "live_edges": counter.live_edges,
                    "triangles": counter.triangle_count(),
                    "edges_per_sec": total / elapsed if elapsed > 0 else 0.0,
                    "batch_size": batch_size,
                }
                if sampler is not None:
                    snap["sampled"] = sampler.triangle_estimate()
                print(json.dumps(snap), flush=True)
    except KeyboardInterrupt:
        print("stream interrupted; emitting final summary", file=sys.stderr)
    elapsed = time.perf_counter() - t0
    summary = {
        "type": "summary",
        "events": total,
        "elapsed_seconds": elapsed,
        "edges_per_sec": total / elapsed if elapsed > 0 else 0.0,
        "triangles": counter.triangle_count(),
        **counter.stats(),
    }
    if sampler is not None:
        summary["sampled"] = {
            **sampler.stats(),
            "estimate": sampler.triangle_estimate(),
        }
    counter.close()
    print(json.dumps(summary), flush=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


def _cmd_fuzz(args) -> int:
    from repro.fuzz import registered_paths, replay_artifact, run_fuzz

    if args.replay:
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            report = replay_artifact(args.replay, paths=args.paths)
        print(f"replay           : {args.replay}")
        print(f"case             : {report.case.describe()}")
        for w in caught:
            print(f"warning          : {w.message}", file=sys.stderr)
        if report.skipped:
            # The recorded path cannot run here (e.g. a retired backend's
            # artifact): not a reproduction, not a crash — an explicit skip.
            print(f"result           : skipped — {report.skipped}")
            return 0
        print(f"paths run        : {', '.join(report.paths_run) or '(none)'}")
        if report.ok:
            print("result           : no failure reproduced")
            return 0
        for f in report.failures:
            print(f"  {f.format()}")
        return 1

    if args.paths:
        unknown = set(args.paths) - set(registered_paths())
        if unknown:
            print(
                f"fuzz: unknown paths {sorted(unknown)}; registered: "
                f"{registered_paths()}",
                file=sys.stderr,
            )
            return 2

    def progress(done, total, failures):
        if done % 50 == 0 or done == total:
            print(f"  {done}/{total} cases, {failures} failing", flush=True)

    report = run_fuzz(
        num_cases=args.cases,
        seed=args.seed,
        paths=args.paths,
        artifact_dir=args.artifact_dir,
        shrink=not args.no_shrink,
        max_vertices=args.max_vertices,
        progress=progress if args.cases >= 50 else None,
    )
    print(report.format())
    return 0 if report.ok else 1


def _cmd_simulate(args) -> int:
    from repro.simarch import simulate
    from repro.simarch.report import format_sim_result

    graph = _load_graph(args.graph, args.scale, reordered=True)
    result = simulate(
        graph,
        args.algorithm,
        args.processor,
        threads=args.threads,
        mcdram_mode=args.mcdram,
        warps_per_block=args.warps,
        passes=args.passes,
    )
    print(format_sim_result(result))
    return 0


def _cmd_experiment(args) -> int:
    from repro.bench import experiments
    from repro.bench.harness import render_table

    registry = {
        "table1": experiments.table1_datasets,
        "table2": experiments.table2_skew,
        "table3": experiments.table3_bitmap_memory,
        "table4": experiments.table4_breakdown,
        "table5": experiments.table5_coprocessing,
        "table6": experiments.table6_memory_passes,
        "table7": experiments.table7_gpu_rf,
        "fig3": experiments.fig3_skew_handling,
        "fig4": experiments.fig4_vectorization,
        "fig5": experiments.fig5_scalability,
        "fig6": experiments.fig6_range_filtering,
        "fig7": experiments.fig7_mcdram,
        "fig8": experiments.fig8_multipass,
        "fig9": experiments.fig9_block_size,
        "fig10": experiments.fig10_comparison,
    }
    if args.id == "list":
        print("\n".join(sorted(registry)))
        return 0
    if args.id not in registry:
        print(f"unknown experiment {args.id!r}; try 'experiment list'", file=sys.stderr)
        return 2
    result = registry[args.id](scale=args.scale)
    print(render_table(result))
    if args.chart:
        _print_charts(result)
    return 0


def _print_charts(result) -> None:
    """Render figure-style series as ASCII charts when the rows carry
    (x-list, y-list) columns (fig5, fig8, fig9)."""
    from repro.bench.figures import ascii_series

    series_specs = {
        "fig5": (3, 4, ("dataset", "proc", "algorithm")),   # threads, speedups
        "fig8": (3, 4, ("dataset", "algorithm")),            # passes, seconds
        "fig9": (2, 3, ("dataset", "algorithm")),            # warps, seconds
    }
    spec = series_specs.get(result.experiment_id)
    if spec is None:
        return
    x_col, y_col, key_cols = spec
    groups: dict[tuple, dict[str, list]] = {}
    for row in result.rows:
        x = tuple(row[x_col])
        label = "-".join(str(row[result.columns.index(c)]) for c in key_cols[1:])
        key = (row[0], x)
        groups.setdefault(key, {})[label] = row[y_col]
    for (ds, x), series in groups.items():
        print(f"\n[{result.experiment_id}] {ds}")
        print(ascii_series(list(x), series))


def _cmd_cluster(args) -> int:
    from repro.apps import scan_clustering
    from repro.core import count_common_neighbors

    graph = _load_graph(args.graph, args.scale, reordered=False)
    counts = count_common_neighbors(graph)
    result = scan_clustering(counts, eps=args.eps, mu=args.mu)
    print(f"graph     : {graph}")
    print(f"SCAN(eps={args.eps:g}, mu={args.mu})")
    print(f"clusters  : {result.num_clusters}")
    print(f"cores     : {len(result.cores)}")
    print(f"hubs      : {len(result.hubs)}")
    print(f"outliers  : {len(result.outliers)}")
    import numpy as np

    if result.num_clusters:
        sizes = np.bincount(result.labels[result.labels >= 0])
        shown = ", ".join(map(str, sorted(sizes.tolist(), reverse=True)[:10]))
        print(f"sizes     : {shown}{' ...' if result.num_clusters > 10 else ''}")
    return 0


def _cmd_linkpred(args) -> int:
    from repro.apps import predict_links

    graph = _load_graph(args.graph, args.scale, reordered=False)
    seed = args.vertex if args.vertex is not None else int(graph.degrees.argmax())
    preds = predict_links(graph, seed, k=args.top, method=args.method)
    print(f"graph     : {graph}")
    print(f"candidate links for vertex {seed} ({args.method}):")
    if not preds:
        print("  (no two-hop candidates)")
    for cand, score in preds:
        print(f"  {cand:8d}  score={score:.4f}")
    return 0


def _cmd_recommend(args) -> int:
    from repro.core import recommend_processor
    from repro.graph.stats import skew_percentage

    graph = _load_graph(args.graph, args.scale, reordered=False)
    proc = recommend_processor(graph)
    algo = "BMP" if proc == "gpu" else "MPS"
    print(
        f"{args.graph}: {skew_percentage(graph):.1f}% skewed intersections "
        f"-> run {algo} on the {proc.upper()} (paper §5.3)"
    )
    return 0


def _cmd_datasets(args) -> int:
    from repro.graph.datasets import DATASETS

    for name, spec in DATASETS.items():
        p = spec.paper_stats()
        print(
            f"{name:4s} {spec.full_name:28s} paper: |V|={p['V']:>12,} "
            f"|E|={p['E']:>14,}  {spec.description}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.engine import default_registry
    from repro.motif import motif_specs

    parser = argparse.ArgumentParser(
        prog="repro",
        description="All-edge common neighbor counting (ICPP 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    counting_choices = ["auto", *default_registry().names()]
    backend_choices = list(counting_choices)
    # Motif runners that are not also counting backends (e.g. the
    # biclique ``hash`` path) are still valid ``--backend`` spellings.
    for m in motif_specs():
        for runner in m.runner_names():
            if runner not in backend_choices:
                backend_choices.append(runner)

    def add_graph_args(p):
        p.add_argument("graph", help="dataset name (lj/or/wi/tw/fr) or edge-list path")
        p.add_argument("--scale", type=float, default=1.0, help="dataset scale factor")

    p = sub.add_parser("stats", help="graph statistics (Tables 1-2)")
    add_graph_args(p)
    p.add_argument("--skew-threshold", type=float, default=50.0)
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("count", help="exact all-edge counting")
    add_graph_args(p)
    p.add_argument("--algorithm", default="auto")
    p.add_argument("--backend", default="auto", choices=backend_choices)
    p.add_argument("--motif", default="common-neighbors",
                   help="count a registered motif instead (clique-3/4/5, "
                        "biclique-2-2 ... 3-3); see 'repro backends'")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes for the parallel backend "
                        "(implies --backend parallel)")
    p.add_argument("--chunks-per-worker", type=int, default=4,
                   help="over-decomposition knob |T| for dynamic scheduling")
    p.add_argument("--stats", action="store_true",
                   help="print per-worker telemetry (implies --backend parallel)")
    p.add_argument("--shard-mb", type=float, default=None,
                   help="per-worker shared-memory budget in MiB; implies "
                        "--backend sharded (overrides REPRO_SHARD_BUDGET)")
    p.add_argument("--top", type=int, default=5, help="print the k hottest edges")
    p.add_argument("--verify", action="store_true", help="verify against a reference")
    p.add_argument("--no-cover", action="store_true",
                   help="disable the hybrid planner's cover-edge pre-pass "
                        "(every edge runs on a real intersection kernel)")
    p.add_argument("--output", help="save counts to a .npz file")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser(
        "plan", help="inspect the hybrid planner's kernel buckets"
    )
    add_graph_args(p)
    p.add_argument("--skew-threshold", type=float, default=50.0,
                   help="degree-skew ratio above which edges become "
                        "galloping candidates")
    p.add_argument("--execute", action="store_true",
                   help="also run the plan and print measured bucket times")
    p.add_argument("--workers", type=int, default=None,
                   help="with --execute, run the bitmap bucket on this many "
                        "worker processes")
    p.add_argument("--no-cover", action="store_true",
                   help="plan without the cover-edge pre-pass bucket")
    p.add_argument("--motif", default="common-neighbors",
                   help="price a motif count instead (clique-k buckets DAG "
                        "edges; biclique-p-q prices subset emission)")
    p.set_defaults(fn=_cmd_plan)

    p = sub.add_parser(
        "backends",
        help="list registered backends, capabilities, and motifs",
    )
    p.set_defaults(fn=_cmd_backends)

    p = sub.add_parser(
        "update", help="apply edge insertions/deletions with live counts"
    )
    add_graph_args(p)
    p.add_argument("--edges", help="edge-list file of edges to insert")
    p.add_argument("--delete", help="edge-list file of edges to delete")
    p.add_argument("--batch-size", type=int, default=0,
                   help="apply updates in batches of this size (default: one batch)")
    p.add_argument("--backend", default="auto", choices=counting_choices,
                   help="backend for the initial build and batch recounts")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes for parallel batch recounts")
    p.add_argument("--chunks-per-worker", type=int, default=4)
    p.add_argument("--recount-fraction", type=float, default=0.1,
                   help="batches above this fraction of |E| recount instead "
                        "of applying per-edge deltas")
    p.add_argument("--verify", action="store_true",
                   help="recount from scratch and check equality afterwards")
    p.add_argument("--output", help="save the final counts to a .npz file")
    p.set_defaults(fn=_cmd_update)

    p = sub.add_parser(
        "serve", help="HTTP/JSON counting service with request batching"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8707,
                   help="listen port (0 binds an ephemeral port)")
    p.add_argument("--pool-size", type=int, default=4,
                   help="graphs kept live in the LRU session pool")
    p.add_argument("--max-pending", type=int, default=256,
                   help="admission bound; excess requests get 503 + Retry-After")
    p.add_argument("--dispatch-threads", type=int, default=None,
                   help="kernel dispatch threads (default: min(4, cpus + 1))")
    p.add_argument("--no-coalesce", action="store_true",
                   help="disable request batching (one dispatch per request)")
    p.add_argument("--preload", action="append", metavar="GRAPH",
                   help="dataset[:scale] or edge-list path to load at startup "
                        "(repeatable)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "stream",
        help="sliding-window counting over a timestamped edge stream",
    )
    p.add_argument("--trace", default=None,
                   help="trace file of 't u v' lines (default: read stdin)")
    p.add_argument("--window", type=float, default=None,
                   help="sliding window width in stream time units "
                        "(default: infinite — nothing ever expires)")
    p.add_argument("--batch", type=int, default=0,
                   help="events per ingest batch; 0 picks adaptively from "
                        "measured batch latency (backpressure)")
    p.add_argument("--target-batch-seconds", type=float, default=0.05,
                   help="latency target steering the adaptive batch size")
    p.add_argument("--snapshot-every", type=int, default=0,
                   help="emit a JSON snapshot line every N events (0: off)")
    p.add_argument("--sampled-budget", type=int, default=None, metavar="BYTES",
                   help="also run a byte-budgeted reservoir estimator and "
                        "report its (ε, δ) interval")
    p.add_argument("--seed", type=int, default=0,
                   help="reservoir RNG seed (with --sampled-budget)")
    p.add_argument("--delta", type=float, default=0.05,
                   help="error-bar confidence parameter (with --sampled-budget)")
    p.add_argument("--max-events", type=int, default=0,
                   help="stop after N events (0: run the stream dry)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the final summary to this file")
    p.set_defaults(fn=_cmd_stream)

    p = sub.add_parser(
        "fuzz", help="differential fuzzing across all execution paths"
    )
    p.add_argument("--cases", type=int, default=200,
                   help="number of generated cases to run")
    p.add_argument("--seed", type=int, default=0,
                   help="run seed; every case regenerates from (seed, index)")
    p.add_argument("--paths", nargs="*", default=None,
                   help="restrict to these execution paths "
                        "(default: every registered path)")
    p.add_argument("--max-vertices", type=int, default=None,
                   help="vertex-count ceiling for generated cases")
    p.add_argument("--artifact-dir", default="fuzz-artifacts",
                   help="directory for shrunk reproducer artifacts")
    p.add_argument("--no-shrink", action="store_true",
                   help="skip minimizing failing cases")
    p.add_argument("--replay",
                   help="replay a saved reproducer artifact instead of fuzzing")
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser("simulate", help="modeled run on cpu/knl/gpu")
    add_graph_args(p)
    p.add_argument("--algorithm", default="BMP-RF")
    p.add_argument("--processor", default="cpu", choices=["cpu", "knl", "gpu"])
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--mcdram", default="flat", choices=["ddr", "flat", "cache"])
    p.add_argument("--warps", type=int, default=4, help="warps per GPU thread block")
    p.add_argument("--passes", type=int, default=None, help="GPU multi-pass count")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument("id", help="table1..table7, fig3..fig10, or 'list'")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--chart", action="store_true", help="also render ASCII charts (fig5/fig8/fig9)")
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("recommend", help="processor guidance for a graph")
    add_graph_args(p)
    p.set_defaults(fn=_cmd_recommend)

    p = sub.add_parser("cluster", help="SCAN structural clustering")
    add_graph_args(p)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--mu", type=int, default=3)
    p.set_defaults(fn=_cmd_cluster)

    p = sub.add_parser("linkpred", help="link prediction for one vertex")
    add_graph_args(p)
    p.add_argument("--vertex", type=int, default=None, help="default: highest degree")
    p.add_argument("--top", type=int, default=5)
    p.add_argument("--method", default="adamic-adar",
                   choices=["common", "adamic-adar", "resource-allocation"])
    p.set_defaults(fn=_cmd_linkpred)

    p = sub.add_parser("datasets", help="list bundled dataset stand-ins")
    p.set_defaults(fn=_cmd_datasets)

    return parser


#: Known-failure → exit-code mapping, checked in order (most specific
#: first).  Bad input gets a one-line message and a distinct nonzero
#: code; a raw traceback with exit code 1 is reserved for actual bugs.
#: Code 2 stays argparse's usage-error code.
EXIT_GRAPH_FORMAT = 3
EXIT_ALGORITHM = 4
EXIT_VERIFICATION = 5
EXIT_REPRO = 6
EXIT_FILE_NOT_FOUND = 7


def _known_error_exits():
    from repro.errors import (
        AlgorithmError,
        GraphFormatError,
        ReproError,
        VerificationError,
    )

    return (
        (GraphFormatError, EXIT_GRAPH_FORMAT),
        (AlgorithmError, EXIT_ALGORITHM),
        (VerificationError, EXIT_VERIFICATION),
        (ReproError, EXIT_REPRO),
        (FileNotFoundError, EXIT_FILE_NOT_FOUND),
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    known = _known_error_exits()
    try:
        return args.fn(args)
    except tuple(cls for cls, _ in known) as exc:
        for cls, code in known:
            if isinstance(exc, cls):
                print(f"repro {args.command}: {exc}", file=sys.stderr)
                return code
        raise  # pragma: no cover - unreachable


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
