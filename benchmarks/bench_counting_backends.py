"""Real wall-clock comparison of the exact counting backends.

Unlike the table/figure benches (which use the architecture simulator),
this benchmark times the *actual* Python production paths on this machine
— useful for regression tracking of the library itself.

Two entry points:

* ``pytest benchmarks/ --benchmark-only`` — the classic pytest-benchmark
  legs (matmul / bitmap / hybrid / parallel on lj).
* ``python benchmarks/bench_counting_backends.py [--quick] [--json PATH]``
  — a standalone sweep over several bundled graphs that also reports the
  hybrid planner's bucket decisions, plan-cache behavior, and the measured
  chunk-imbalance improvement of work-weighted over equal-volume chunking.
  ``--json`` writes the machine-readable ``BENCH_counting.json`` consumed
  by the CI smoke leg, so the perf trajectory is tracked per commit.
"""

import argparse
import json
import time
import warnings

import numpy as np

from repro import compiled
from repro.graph.datasets import load_dataset
from repro.kernels.batch import (
    count_all_edges_bitmap,
    count_all_edges_matmul,
    count_edges_bitmap_interpreted,
)
from repro.kernels.batchsearch import count_edges_galloping_interpreted
from repro.engine import GraphSession
from repro.parallel.pool import ShardedGraph, WorkerPool
from repro.plan import (
    clear_plan_cache,
    count_all_edges_hybrid,
    get_plan,
    plan_cache_stats,
    plan_shards,
)

#: (dataset, scale) legs for the standalone sweep.  ``wi`` is the
#: degree-skewed stand-in where the galloping bucket earns its keep; the
#: quick set is sized for a CI smoke run.
SWEEP_GRAPHS = [("lj", 0.5), ("or", 0.5), ("wi", 0.5)]
QUICK_GRAPHS = [("lj", 0.2), ("wi", 0.25)]


# --------------------------------------------------------------------- #
# pytest-benchmark legs
# --------------------------------------------------------------------- #
try:
    import pytest
except ImportError:  # pragma: no cover - standalone script use
    pytest = None

if pytest is not None:

    @pytest.fixture(scope="module")
    def graph():
        return load_dataset("lj", scale=0.5)

    def test_backend_matmul(benchmark, graph):
        cnt = benchmark.pedantic(
            count_all_edges_matmul, args=(graph,), rounds=3, iterations=1
        )
        assert cnt.sum() > 0

    def test_backend_bitmap(benchmark, graph):
        cnt = benchmark.pedantic(
            count_all_edges_bitmap, args=(graph,), rounds=3, iterations=1
        )
        assert cnt.sum() > 0

    def test_backend_hybrid(benchmark, graph):
        get_plan(graph)  # steady state: plan cached before timing
        cnt = benchmark.pedantic(
            count_all_edges_hybrid, args=(graph,), rounds=3, iterations=1
        )
        assert cnt.sum() > 0

    def test_backend_parallel(benchmark, graph):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with GraphSession(graph) as session:
                cnt = benchmark.pedantic(
                    lambda: session.count(backend="parallel", num_workers=2).counts,
                    rounds=3,
                    iterations=1,
                )
        assert cnt.sum() > 0

    def test_backends_agree(graph):
        a = count_all_edges_matmul(graph)
        assert np.array_equal(count_all_edges_bitmap(graph), a)
        assert np.array_equal(count_all_edges_hybrid(graph), a)


# --------------------------------------------------------------------- #
# standalone sweep
# --------------------------------------------------------------------- #
def _best_of(fn, rounds):
    best = float("inf")
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _chunk_imbalance(graph, plan, num_chunks):
    """Measured max/mean chunk-time spread for one chunking policy."""
    export = ShardedGraph(graph, plan_shards(graph, 1, plan=plan))
    with export, WorkerPool(export, 1) as pool:
        _, stats = pool.count_all_edges(chunks_per_worker=num_chunks, with_stats=True)
    return stats


def bench_compiled(graph, ref, rounds):
    """Compiled-vs-interpreted leg: bit-exact is asserted, speedup recorded.

    The interpreted side times the ``*_interpreted`` kernel bodies by
    name: the public entry points dispatch to the provider whenever one
    is present, so timing them would compare compiled with compiled.
    Skips cleanly (recording why) when no provider — neither numba nor a
    system C compiler — is available on this host.
    """
    rec = {"available": compiled.available()}
    if not compiled.available():
        rec["reason"] = compiled.unavailable_reason()
        print(f"   compiled              : unavailable ({rec['reason']})")
        return rec
    rec["provider"] = compiled.provider()
    eo = np.flatnonzero(graph.edge_sources() < graph.dst)

    # Warm once so JIT/compile+load cost never lands inside a timed round.
    compiled.count_edges_galloping_compiled(graph, eo[:1])
    t_gal_py, gal_py = _best_of(
        lambda: count_edges_galloping_interpreted(graph, eo), rounds
    )
    t_gal_cc, gal_cc = _best_of(
        lambda: compiled.count_edges_galloping_compiled(graph, eo), rounds
    )
    assert np.array_equal(gal_cc, gal_py), "compiled gallop != interpreted"
    assert np.array_equal(gal_cc, ref[eo]), "compiled gallop != matmul"

    def bmp_py():
        out = np.zeros(graph.num_directed_edges, dtype=np.int64)
        count_edges_bitmap_interpreted(graph, eo, out)
        return out

    def bmp_cc():
        out = np.zeros(graph.num_directed_edges, dtype=np.int64)
        compiled.count_edges_bitmap_compiled(graph, eo, out)
        return out

    t_bmp_py, bmp_py_cnt = _best_of(bmp_py, rounds)
    t_bmp_cc, bmp_cc_cnt = _best_of(bmp_cc, rounds)
    assert np.array_equal(bmp_cc_cnt, bmp_py_cnt), "compiled bitmap != interpreted"

    rec["gallop"] = {
        "interpreted_s": t_gal_py,
        "compiled_s": t_gal_cc,
        "speedup": t_gal_py / t_gal_cc,
    }
    rec["bitmap"] = {
        "interpreted_s": t_bmp_py,
        "compiled_s": t_bmp_cc,
        "speedup": t_bmp_py / t_bmp_cc,
    }
    print(
        f"   compiled ({rec['provider']:5s})      : gallop "
        f"{rec['gallop']['speedup']:5.1f}x, bitmap "
        f"{rec['bitmap']['speedup']:5.1f}x vs interpreted (bit-exact)"
    )
    return rec


def bench_graph(name, scale, rounds=3, num_chunks=8):
    graph = load_dataset(name, scale=scale)
    label = f"{name}-{scale:g}"
    print(f"== {label}: {graph}")
    record = {
        "dataset": name,
        "scale": scale,
        "num_vertices": int(graph.num_vertices),
        "num_edges": int(graph.num_edges),
        "backends": {},
    }

    t_mm, ref = _best_of(lambda: count_all_edges_matmul(graph), rounds)
    t_bmp, bmp = _best_of(lambda: count_all_edges_bitmap(graph), rounds)

    clear_plan_cache()
    t_first = time.perf_counter()
    hyb = count_all_edges_hybrid(graph)  # cold: includes planning
    t_hybrid_cold = time.perf_counter() - t_first
    t_hyb, _ = _best_of(lambda: count_all_edges_hybrid(graph), rounds)
    cache = plan_cache_stats()
    plan = get_plan(graph)

    assert np.array_equal(hyb, ref), f"hybrid != matmul on {label}"
    assert np.array_equal(bmp, ref), f"bitmap != matmul on {label}"

    record["backends"] = {
        "matmul": t_mm,
        "bitmap": t_bmp,
        "hybrid": t_hyb,
        "hybrid_cold": t_hybrid_cold,
    }
    best_single = min(t_mm, t_bmp)
    for b, t in record["backends"].items():
        print(f"   {b:12s}: {t * 1e3:9.1f} ms")
    print(
        f"   hybrid vs bitmap      : {t_bmp / t_hyb:5.2f}x, "
        f"vs best single backend: {best_single / t_hyb:5.2f}x"
    )

    record["plan"] = {
        "planning_seconds": plan.planning_seconds,
        "skew_threshold": plan.skew_threshold,
        "predicted_total_ns": plan.predicted_total_ns,
        "buckets": {
            b.name: {"edges": b.edges, "predicted_ns": b.predicted_ns}
            for b in plan.buckets()
        },
        "cache": {"hits": cache.hits, "misses": cache.misses},
    }
    assert cache.misses == 1, "repeat counts re-priced the same graph"
    assert cache.hits >= rounds, "plan cache missed on identical graphs"
    for b in plan.buckets():
        print(
            f"   bucket {b.name:7s}: {b.edges:>8d} edges, "
            f"predicted {b.predicted_ms:8.2f} ms"
        )
    print(
        f"   plan cache            : {cache.hits} hits / {cache.misses} miss "
        f"(planning {plan.planning_seconds * 1e3:.1f} ms, amortized)"
    )

    record["compiled"] = bench_compiled(graph, ref, rounds)

    equal_stats = _chunk_imbalance(graph, None, num_chunks)
    weighted_stats = _chunk_imbalance(graph, plan, num_chunks)
    record["chunking"] = {
        "num_chunks": equal_stats.num_chunks,
        "equal_edge_imbalance": equal_stats.chunk_imbalance,
        "weighted_imbalance": weighted_stats.chunk_imbalance,
        "weighted_predicted_imbalance": weighted_stats.predicted_chunk_imbalance,
        "prediction_error": weighted_stats.prediction_error(),
    }
    print(
        f"   chunk imbalance       : equal-edge "
        f"{100 * equal_stats.chunk_imbalance:6.1f}%  ->  work-weighted "
        f"{100 * weighted_stats.chunk_imbalance:6.1f}% "
        f"({equal_stats.num_chunks} chunks)"
    )
    print()
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small graphs, fewer rounds (CI smoke)"
    )
    parser.add_argument("--json", help="write machine-readable results here")
    args = parser.parse_args(argv)

    graphs = QUICK_GRAPHS if args.quick else SWEEP_GRAPHS
    rounds = 2 if args.quick else 3
    results = {
        "benchmark": "counting_backends",
        "quick": args.quick,
        "graphs": [bench_graph(name, scale, rounds=rounds) for name, scale in graphs],
    }

    for rec in results["graphs"]:
        b = rec["backends"]
        best = min(b["matmul"], b["bitmap"])
        label = f"{rec['dataset']}-{rec['scale']:g}"
        if b["hybrid"] > best * 1.10:
            print(
                f"WARNING: hybrid is {b['hybrid'] / best:.2f}x the best single "
                f"backend on {label} (target: within 10%)"
            )
        comp = rec.get("compiled", {})
        if comp.get("available"):
            for kernel in ("gallop", "bitmap"):
                speedup = comp[kernel]["speedup"]
                if speedup < 1.0:
                    print(
                        f"WARNING: compiled {kernel} is {1 / speedup:.2f}x "
                        f"SLOWER than interpreted on {label}"
                    )

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(results, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
