"""Seeded inputs for the end-to-end benchmark.

Built in the harness process, written to an input directory, and read by
the workload process; the program under test receives only these files.

Each workload's graph is the bundled stand-in ``load_dataset(name,
scale, seed=0)`` relabelled by a permutation drawn from ``--seed`` that
only exchanges vertices of equal degree.  Every seed therefore gives a
different CSR (different ids, adjacency order, fingerprint and count
vector) with the same degree sequence and the same planner buckets.  The
stand-in generators' own seed changes the kernel work itself: on ``wi``
the gallop bucket ranges from 7.5k to 13.7k edges across generator seeds
0-7, which moved the warm count time by ±20% and would drown any change
a later commit makes.

Files in an input directory:

``graph.npz``    CSR ``offsets``/``dst`` (read with ``repro.graph.io.load_csr``)
``graph.txt``    the same graph as SNAP text, one ``u v`` line per edge
``check.npz``    reference counts (the ``matmul`` kernel) and triangle total
``serve.npz``    read queries, their expected counts per epoch parity, and
                 the edit batch (only when serve traffic is requested)
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

#: workload → bundled dataset stand-in
WORKLOAD_DATASETS = {
    "file-to-counts": "fr",
    "warm-count-skewed": "wi",
    "pool-count-dense": "or",
    "serve-mixed": "lj",
}

#: Open-loop read rate of the serve traffic (requests per second); about
#: 45% of the closed-loop capacity measured on a 2-vCPU host.
READ_RATE = 800.0
#: One edit batch every this many seconds.  An edit swaps in a new epoch
#: snapshot and stalls reads for 13-30 ms on a 2-vCPU host, and that length
#: follows the host's load.  Whenever stalled reads reach the read tail,
#: the tail is the stall length: at 2 edits/s the read p99 of ten seeds
#: ranged 10-21 ms (inter-quartile spread 0.43-0.47 of the median).  At one
#: edit per 6 s under 0.5% of reads are stalled, so the read median and
#: tail measure the read path while reads still cross epoch swaps; the
#: stall itself is the per-layer ``serve.edit_p50_ms``.
EDIT_PERIOD = 6.0
#: Left endpoints of read pairs come from this many highest-degree vertices.
NUM_HUBS = 8
PAIRS_PER_READ = 4
#: Non-edges inserted by odd edit batches and deleted by even ones.
EDIT_PAIRS = 32


def relabel(offsets: np.ndarray, dst: np.ndarray, seed: int):
    """Undirected ``u < v`` pairs of the graph after a seeded permutation
    that maps every vertex to a vertex of the same degree."""
    n = len(offsets) - 1
    deg = np.diff(offsets)
    rng = np.random.default_rng(seed)
    by_id = np.lexsort((np.arange(n), deg))
    by_draw = np.lexsort((rng.random(n), deg))
    perm = np.empty(n, dtype=np.int64)
    perm[by_id] = by_draw
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    keep = src < dst
    u, v = perm[src[keep]], perm[dst[keep].astype(np.int64)]
    return np.minimum(u, v), np.maximum(u, v), n


def write_edge_text(path: Path, u: np.ndarray, v: np.ndarray, n: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# Undirected graph: |V|={n} |E|={len(u)}\n")
        np.savetxt(fh, np.column_stack([u, v]), fmt="%d")


def serve_traffic(offsets, dst, seed: int, num_reads: int) -> dict:
    """Read queries, the edit batch, and expected read answers.

    Expected counts come from SciPy products of the hub rows with the
    adjacency matrix — for the original graph (even epochs) and for the
    graph plus the edit batch (odd epochs) — not from the program.
    """
    import scipy.sparse as sp

    n = len(offsets) - 1
    rng = np.random.default_rng([seed, 1])
    deg = np.diff(offsets)
    hubs = np.argsort(-deg, kind="stable")[:NUM_HUBS].astype(np.int64)
    a = sp.csr_matrix((np.ones(len(dst), dtype=np.int64), dst, offsets), shape=(n, n))

    edits: list[tuple[int, int]] = []
    seen = set()
    while len(edits) < EDIT_PAIRS:
        h = int(hubs[rng.integers(len(hubs))])
        w = int(rng.integers(n))
        key = (min(h, w), max(h, w))
        if w == h or key in seen or a[h, w]:
            continue
        seen.add(key)
        edits.append(key)
    e = np.asarray(edits, dtype=np.int64)
    ins = sp.csr_matrix(
        (np.ones(2 * len(e), dtype=np.int64),
         (np.r_[e[:, 0], e[:, 1]], np.r_[e[:, 1], e[:, 0]])),
        shape=(n, n),
    )
    hub_rows = []
    for adj in (a, a + ins):
        hub_rows.append((adj[hubs] @ adj).toarray())

    hub_idx = rng.integers(len(hubs), size=(num_reads, PAIRS_PER_READ))
    right = rng.integers(n, size=(num_reads, PAIRS_PER_READ))
    pairs = np.stack([hubs[hub_idx], right], axis=-1)
    expect = np.stack([rows[hub_idx, right] for rows in hub_rows])
    return {"pairs": pairs, "expect": expect, "edits": e, "hubs": hubs}


def serve_reads_needed(seconds: float) -> int:
    """Reads to generate for ``seconds`` of traffic (plus one spare second)."""
    return int(math.ceil((seconds + 1.0) * READ_RATE)) + 1


def make_inputs(
    workload: str,
    seed: int,
    out_dir: Path,
    *,
    scale: float = 1.0,
    serve_seconds: float = 0.0,
) -> Path:
    """Generate one workload's inputs for ``seed`` into ``out_dir``."""
    from repro.graph.build import edges_to_csr
    from repro.graph.datasets import load_dataset
    from repro.kernels.batch import count_all_edges_matmul

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = load_dataset(WORKLOAD_DATASETS[workload], scale, seed=0, cache=False)
    u, v, n = relabel(base.offsets, base.dst, seed)
    graph = edges_to_csr(u, v, n)
    np.savez(out_dir / "graph.npz", offsets=graph.offsets, dst=graph.dst)
    write_edge_text(out_dir / "graph.txt", u, v, n)
    ref = count_all_edges_matmul(graph)
    np.savez(out_dir / "check.npz", counts=ref, triangles=int(ref.sum()) // 6)
    if serve_seconds > 0:
        traffic = serve_traffic(
            graph.offsets, graph.dst, seed, serve_reads_needed(serve_seconds)
        )
        np.savez(out_dir / "serve.npz", **traffic)
    return out_dir
