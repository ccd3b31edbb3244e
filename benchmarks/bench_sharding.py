"""Sharded-execution benchmark: memory bound + throughput parity.

Three hard gates on the largest bundled graph (fr):

1. **Bit-exactness** — sharded counts at K=4 (real worker processes)
   must equal the merge backend's counts.
2. **Memory bound** — with the shard budget set to the K=4 layout's
   largest segment, no worker may attach more shared memory than the
   budget (the whole point of sharding; the single-export parallel
   backend maps the full CSR into every worker).
3. **Throughput parity** — a warm sharded pool at K=4 must sustain
   >= 0.9x the throughput of the warm single-export parallel pool at 4
   workers: boundary-column replication buys the memory bound, it must
   not buy a slowdown.

Also records peak RSS per worker and the replication factor so the
memory/replication trade-off is visible per commit.  ``--json
BENCH_sharding.json`` writes the record the CI bench-smoke job uploads.
"""

import argparse
import json
import time
import warnings

import numpy as np

from repro.engine import GraphSession
from repro.graph.datasets import load_dataset
from repro.kernels.batch import count_all_edges_merge
from repro.parallel.pool import ShardedGraph, WorkerPool
from repro.plan.shardplan import plan_shards

#: The largest bundled stand-in; quick scale is sized for CI smoke.
GRAPH = ("fr", 0.3)
QUICK_GRAPH = ("fr", 0.1)

NUM_SHARDS = 4
THROUGHPUT_FLOOR = 0.9


def _best_of(fn, rounds):
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def bench(name, scale, rounds):
    graph = load_dataset(name, scale=scale)
    label = f"{name}-{scale:g}"
    print(f"== {label}: {graph} ({graph.memory_bytes() / 2**20:.2f} MiB CSR)")

    expected = count_all_edges_merge(graph)
    shard_plan = plan_shards(graph, num_shards=NUM_SHARDS)
    budget = shard_plan.max_shard_bytes
    record = {
        "dataset": name,
        "scale": scale,
        "num_vertices": int(graph.num_vertices),
        "num_edges": int(graph.num_edges),
        "csr_bytes": int(graph.memory_bytes()),
        "num_shards": shard_plan.num_shards,
        "budget_bytes": int(budget),
        "replication_factor": float(shard_plan.replication_factor),
    }

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with ShardedGraph(graph, shard_plan) as export, WorkerPool(
            export, 1
        ) as sharded:
            counts, stats = sharded.count_all_edges(with_stats=True)
            # Gate 1: bit-exact against the merge backend.
            assert np.array_equal(counts, expected), (
                f"sharded counts diverged from merge on {label}"
            )
            # Gate 2: every worker stayed within the shard budget.
            attached = stats.max_worker_bytes_attached
            assert attached <= budget, (
                f"worker attached {attached} B > budget {budget} B"
            )
            sharded_t = _best_of(sharded.count_all_edges, rounds)
            worker_rss = {
                w.pid: w.rss_bytes for w in stats.per_worker()
            }

        with ShardedGraph(graph, plan_shards(graph, 1)) as export, WorkerPool(
            export, NUM_SHARDS
        ) as parallel:
            pcounts, pstats = parallel.count_all_edges(with_stats=True)
            assert np.array_equal(pcounts, expected)
            parallel_t = _best_of(parallel.count_all_edges, rounds)
            parallel_attached = pstats.max_worker_bytes_attached

    speedup = parallel_t / sharded_t
    record.update(
        {
            "max_worker_bytes_attached": int(attached),
            "parallel_worker_bytes_attached": int(parallel_attached),
            "peak_rss_per_worker": {str(k): int(v) for k, v in worker_rss.items()},
            "sharded_seconds": sharded_t,
            "parallel_seconds": parallel_t,
            "throughput_vs_parallel": speedup,
            "effective_workers": stats.effective_workers,
        }
    )
    print(
        f"   shards={record['num_shards']}  budget {budget / 2**20:.2f} MiB  "
        f"max attached {attached / 2**20:.2f} MiB "
        f"(single export: {parallel_attached / 2**20:.2f} MiB)  "
        f"replication {record['replication_factor']:.2f}x"
    )
    print(
        f"   sharded {sharded_t * 1e3:8.1f} ms  vs  parallel "
        f"{parallel_t * 1e3:8.1f} ms  ->  {speedup:.2f}x"
    )
    # Gate 3: replication must not cost meaningful throughput.
    assert speedup >= THROUGHPUT_FLOOR, (
        f"sharded throughput {speedup:.2f}x below the "
        f"{THROUGHPUT_FLOOR:g}x floor on {label}"
    )
    # Session-level sanity: the budget auto-routes backend="auto" to
    # sharded and the result stays bit-exact.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with GraphSession(graph, shard_budget_mb=budget / 2**20) as session:
            routed = session.count(collect_stats=True)
    assert routed.parallel_stats is not None
    # The session runs its own budget search, so K may differ from the
    # probe layout — what matters is that it sharded and stayed bounded.
    assert len(routed.parallel_stats.shard_stats) > 1
    assert routed.parallel_stats.max_worker_bytes_attached <= budget
    assert np.array_equal(routed.counts, expected)
    print("   auto-routing: backend='auto' served sharded, bit-exact")
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="smaller graph, fewer rounds (CI smoke)"
    )
    parser.add_argument("--json", help="write machine-readable results here")
    args = parser.parse_args(argv)

    name, scale = QUICK_GRAPH if args.quick else GRAPH
    rounds = 3 if args.quick else 5
    results = {
        "benchmark": "sharded_vs_single_export",
        "quick": args.quick,
        "num_shards": NUM_SHARDS,
        "throughput_floor": THROUGHPUT_FLOOR,
        "graphs": [bench(name, scale, rounds)],
    }
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(results, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
