"""End-to-end benchmark of the repository: file→counts, warm skewed
counts, pooled counts and mixed HTTP traffic.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --seed 0                       # all workloads
    python3 benchmarks/e2e/run.py --workload serve-mixed --seed 3
    python3 benchmarks/e2e/run.py --workload pool-count-dense --seed 0 --trace 1
    python3 benchmarks/e2e/run.py --seed 0 --json runs.json      # append the record

Each run generates its inputs from ``--seed`` in this process, warms the
on-disk compiled-kernel cache, then measures the workload in fresh
processes: one that sets up, warms up for 2 s untimed and measures for
``--seconds``, with processes that only time set-up before and after it.
``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``; it is an
option because the ``BENCHMARK.json`` calling convention passes
``--workload``, ``--seed``, ``--seconds`` and ``--trace`` to the command.
Each record keeps its length, and ``compare.py`` refuses to compare sets
of different lengths.  Every operation is checked
bit-exact against a reference; a mismatch aborts with a nonzero exit and
no result.  Every declared metric is printed by name with its unit, and
the last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

``--trace 1`` prints the per-layer metrics instead of the end-to-end
ones (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from e2e_core import (  # noqa: E402
    BENCHMARK_JSON,
    ROOT,
    SRC,
    Mismatch,
    declared_metrics,
    host_record,
    load_declaration,
)

#: Set-up is measured this many times per run (fresh processes); the median
#: is reported.  Half of the set-up-only processes run before the measuring
#: process and half after it, so a burst of host noise hits few of them.
SETUP_RUNS = 5
#: A run must end within this many seconds.
RUN_BUDGET_S = 170.0
WORK = ROOT / ".bench_e2e"


class RunError(Exception):
    """The run could not produce a result."""


def _reap(pgid: int, timeout: float = 10.0) -> None:
    """Wait until every process of the group has ended; kill stragglers."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    time.sleep(0.2)


def _spawn(args: list[str], env: dict, result: Path, deadline: float) -> dict:
    """Run one workload process in its own process group and read its result."""
    result.unlink(missing_ok=True)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "e2e_workloads.py"), *args, "--result", str(result)],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RunError("workload process exceeded the run's time budget") from None
    finally:
        _reap(proc.pid)
    if code == 3:
        raise Mismatch("the workload process reported a wrong result (see above)")
    if code != 0 or not result.exists():
        raise RunError(f"workload process failed with exit code {code}")
    return json.loads(result.read_text())


def run_one(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    """Generate inputs, time set-up, measure; returns the run record."""
    from e2e_inputs import make_inputs
    from e2e_workloads import PROBE_S, WARMUP_S, end_to_end_metrics

    deadline = time.monotonic() + RUN_BUDGET_S
    inputs = WORK / f"inputs-{workload}-{seed}"
    if workload == "serve-mixed":
        serve_seconds = WARMUP_S + seconds
    else:
        serve_seconds = PROBE_S if trace else 0.0
    make_inputs(workload, seed, inputs, serve_seconds=serve_seconds)
    base = ["--workload", workload, "--inputs", str(inputs), "--seconds", str(seconds)]
    result = WORK / f"result-{workload}.json"
    measure = base
    if trace:
        measure = [*base, "--trace", "1", "--spans", str(WORK / f"spans-{workload}-{seed}.json")]
    extra = 0 if trace else SETUP_RUNS - 1

    def setup_only(count: int) -> list[float]:
        return [
            _spawn([*base, "--setup-only"], env, result, deadline)["setup_s"]
            for _ in range(count)
        ]

    try:
        setups = setup_only(extra // 2)
        out = _spawn(measure, env, result, deadline)
        setups += [out["setup_s"], *setup_only(extra - extra // 2)]
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    values = out["layers"] if trace else end_to_end_metrics(out, setups)
    metrics = {}
    for m in declared_metrics(trace):
        if m["name"] not in values:
            raise RunError(f"{workload}: metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": float(values[m["name"]]), "unit": m["unit"]}
    out["setup_runs_s"] = setups
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": True,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
        "detail": out,
    }


def _print_record(rec: dict) -> None:
    op = rec["detail"]["op"]
    print(
        f"{rec['workload']}  seed {rec['seed']}  attempted {rec['attempted']}  "
        f"failed {rec['failed']}  operations {op['n']} (tail = p{100 * op['tail_q']:.1f})"
    )
    for name, m in rec["metrics"].items():
        print(f"  {name:32s} {m['value']:14.4f} {m['unit']}")


def _append_json(path: Path, records: list[dict], host: dict) -> None:
    doc = {"runs": []}
    if path.exists():
        doc = json.loads(path.read_text())
    for rec in records:
        doc["runs"].append({**rec, "host": host})
    path.write_text(json.dumps(doc, indent=1))


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file() or not BENCHMARK_JSON.is_file():
        print(f"error: no program to measure under {SRC}", file=sys.stderr)
        return 2
    decl = load_declaration()
    names = [w["name"] for w in decl["workloads"]]
    p = argparse.ArgumentParser(description="End-to-end benchmark (see README.md).")
    p.add_argument("--workload", choices=names, help="one workload (default: all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=float(decl["run_seconds"]),
                   help="length of the timed phase (default: run_seconds)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="print per-layer metrics from a traced run")
    p.add_argument("--json", type=Path, help="append the run records to this file")
    args = p.parse_args(argv)

    WORK.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    from e2e_workloads import child_env

    env = child_env(WORK)
    os.environ.update({k: env[k] for k in ("REPRO_COMPILED_CACHE", "TMPDIR")})
    import repro
    from repro import compiled
    from repro.parallel.threadpool import resolve_start_method

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"error: repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # Build (or load) the compiled kernels once here, untimed, so no
    # workload's set-up pays a C compile.
    provider = compiled.provider()
    host = host_record(args.seed, provider, resolve_start_method())

    records = []
    try:
        for workload in [args.workload] if args.workload else names:
            rec = run_one(workload, args.seed, args.seconds, bool(args.trace), env)
            records.append(rec)
            _print_record(rec)
    except Mismatch as exc:
        print(f"INCORRECT: {exc}", file=sys.stderr)
        return 3
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        _append_json(args.json, records, host)
    print(f"host: {json.dumps(host)}")
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()
        }
    print(json.dumps({
        "correct": True,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
