"""Compare two sets of end-to-end benchmark runs.

    python3 benchmarks/e2e/compare.py A.json B.json

``A.json`` and ``B.json`` are files written by ``run.py --json`` (each run
appends its record), typically ten seeds of the parent commit and ten of
the change.  For every workload and end-to-end metric this prints each
side's median and quartiles, the change of the medians, the metric's
bound from ``BENCHMARK.json`` and a verdict:

``unresolved``  the inter-quartile spread of either side exceeds the bound
                (unless every run of B reads better than every run of A)
``worse``       B's median is worse than A's by more than the bound
``better``      B wins at least 9 of 10 runs paired by seed, and its median
                is better by more than A's own spread
``no-worse``    anything else

Each workload also gets an ``error_rate`` row: failed operations over
attempted ones, summed over its runs.  It is ``worse`` when B's rate is
above A's, and then no metric of that workload is rated ``better``: a
change that fails more operations has not made the survivors count.

Then every run's value, by seed.  Exits 1 when any verdict is ``worse``,
and 2 when the two sets were measured with different run lengths.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from e2e_core import load_declaration, spread  # noqa: E402

#: A gain needs this share of seed-paired runs won.
WIN_SHARE = 0.9


def load_runs(path: Path) -> dict:
    """The untraced runs of one file::

        {"values": {(workload, metric): {seed: value}},
         "errors": {workload: [failed, attempted]},
         "seconds": {run length, ...}}
    """
    values: dict = {}
    errors: dict = {}
    seconds: set = set()
    for run in json.loads(Path(path).read_text())["runs"]:
        if run.get("trace"):
            continue
        for name, m in run["metrics"].items():
            values.setdefault((run["workload"], name), {})[run["seed"]] = m["value"]
        err = errors.setdefault(run["workload"], [0, 0])
        err[0] += run["failed"]
        err[1] += run["attempted"]
        seconds.add(run["seconds"])
    return {"values": values, "errors": errors, "seconds": seconds}


def _quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """Verdict and relative change of B's median against A's."""
    sign = 1.0 if better == "lower" else -1.0
    av, bv = list(a.values()), list(b.values())
    med_a, med_b = statistics.median(av), statistics.median(bv)
    change = (med_b - med_a) / med_a
    worse_by = sign * change
    spread_a = spread(av) if len(av) > 1 else float("inf")
    spread_b = spread(bv) if len(bv) > 1 else float("inf")
    every_b_better = all(sign * (y - x) < 0 for x in av for y in bv)
    if (spread_a > bound or spread_b > bound) and not every_b_better:
        return "unresolved", change
    if worse_by > bound:
        return "worse", change
    paired = [s for s in a if s in b]
    wins = sum(sign * (b[s] - a[s]) < 0 for s in paired)
    if paired and wins >= WIN_SHARE * len(paired) and -worse_by > spread_a:
        return "better", change
    return "no-worse", change


def error_verdict(a: list[int], b: list[int]) -> str:
    """``worse`` when B fails a larger share of its operations than A."""
    return "worse" if b[0] * a[1] > a[0] * b[1] else "no-worse"


def compare(path_a: Path, path_b: Path, declaration: dict) -> tuple[list[str], bool]:
    a_runs, b_runs = load_runs(path_a), load_runs(path_b)
    if a_runs["seconds"] != b_runs["seconds"]:
        raise ValueError(
            f"the sets were measured for different lengths: "
            f"{sorted(a_runs['seconds'])} s against {sorted(b_runs['seconds'])} s"
        )
    workloads = [w["name"] for w in declaration["workloads"]]
    lines = [
        f"{'workload':18s} {'metric':12s} {'A median [q1, q3]':>30s} "
        f"{'B median [q1, q3]':>30s} {'change':>8s} {'bound':>6s}  verdict"
    ]
    any_worse = False
    per_seed = []
    for w in workloads:
        if w not in a_runs["errors"] or w not in b_runs["errors"]:
            continue
        ea, eb = a_runs["errors"][w], b_runs["errors"][w]
        errors = error_verdict(ea, eb)
        any_worse |= errors == "worse"
        for m in declaration["end_to_end"]:
            key = (w, m["name"])
            if key not in a_runs["values"] or key not in b_runs["values"]:
                continue
            a, b = a_runs["values"][key], b_runs["values"][key]
            v, change = verdict(a, b, m["better"], m["bound"])
            if v == "better" and errors == "worse":
                v = "no-worse"
            any_worse |= v == "worse"
            qa, qb = _quartiles(list(a.values())), _quartiles(list(b.values()))
            a_txt = f"{qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}]"
            b_txt = f"{qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}]"
            lines.append(
                f"{w:18s} {m['name']:12s} {a_txt:>30s} {b_txt:>30s} "
                f"{100 * change:+7.1f}% {100 * m['bound']:5.0f}%  {v}"
            )
            for side, runs in (("A", a), ("B", b)):
                vals = "  ".join(f"s{s}={runs[s]:.4g}" for s in sorted(runs))
                per_seed.append(f"{w:18s} {m['name']:12s} {side}: {vals}")
        a_txt, b_txt = f"{ea[0]}/{ea[1]}", f"{eb[0]}/{eb[1]}"
        lines.append(
            f"{w:18s} {'error_rate':12s} {a_txt:>30s} {b_txt:>30s} "
            f"{'':>8s} {'0%':>6s}  {errors}"
        )
    return lines + ["", "per seed (s<seed>=value):"] + per_seed, any_worse


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Compare two sets of benchmark runs.")
    p.add_argument("a", type=Path, help="runs of the baseline (run.py --json)")
    p.add_argument("b", type=Path, help="runs of the change")
    args = p.parse_args(argv)
    try:
        lines, any_worse = compare(args.a, args.b, load_declaration())
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
