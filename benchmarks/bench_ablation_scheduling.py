"""Ablation: dynamic vs static scheduling and the task-size |T| trade-off.

The paper's §4 discusses the load-balance vs queue-overhead trade-off but
dedicates no figure to it; this bench makes it measurable.
"""

from conftest import record, run_once

from repro.bench.harness import ExperimentResult
from repro.graph.datasets import load_dataset
from repro.simarch import simulate

TASK_SIZES = (1, 8, 32, 256, 4096)


def _run() -> ExperimentResult:
    g = load_dataset("tw", reordered=True)
    rows = []
    for ts in TASK_SIZES:
        dyn = simulate(g, "MPS", "cpu", task_size=ts).seconds
        stat = simulate(g, "MPS", "cpu", task_size=ts, static_schedule=True).seconds
        rows.append([ts, dyn, stat, round(stat / dyn, 2)])
    return ExperimentResult(
        "ablation_scheduling",
        "Dynamic vs static scheduling across task sizes |T| (TW, CPU, 56 threads)",
        ["task_size", "dynamic_s", "static_s", "static/dynamic"],
        rows,
        notes=["paper §4: small |T| balances load, large |T| cuts queue overhead"],
    )


def test_ablation_scheduling(benchmark):
    result = record(run_once(benchmark, _run))
    dyn = {row[0]: row[1] for row in result.rows}
    # Dynamic scheduling is never worse than static at matched |T|.
    for row in result.rows:
        assert row[3] >= 0.99
    # Extremes lose: |T|=1 pays queue overhead, |T|=4096 loses balance.
    best = min(dyn.values())
    assert dyn[4096] > best
    assert dyn[1] >= best


# --------------------------------------------------------------------------- #
# Measured leg: real worker telemetry vs the dynamic-schedule simulator.
# --------------------------------------------------------------------------- #

CHUNKS_PER_WORKER = (1, 4, 16)


def _run_measured() -> ExperimentResult:
    """Drive the shared-memory pool, then replay its measured per-chunk
    timings through ``simulate_dynamic`` — validating that the simulator's
    imbalance story holds on real wall-clock data."""
    from repro.engine import GraphSession
    from repro.graph.generators import chung_lu_graph

    g = chung_lu_graph(3000, 18000, exponent=2.1, seed=7)
    rows = []
    with GraphSession(g) as session:
        for cpw in CHUNKS_PER_WORKER:
            stats = session.count(
                backend="parallel",
                num_workers=2,
                chunks_per_worker=cpw,
                collect_stats=True,
            ).parallel_stats
            sched = stats.simulated_schedule()
            rows.append(
                [
                    cpw,
                    stats.num_chunks,
                    round(stats.wall_seconds, 5),
                    round(sched.makespan, 5),
                    round(stats.imbalance, 3),
                    round(sched.imbalance, 3),
                ]
            )
    return ExperimentResult(
        "ablation_scheduling_measured",
        "Measured pool telemetry replayed through simulate_dynamic "
        "(chung-lu 3k/18k, 2 workers)",
        [
            "chunks_per_worker",
            "chunks",
            "measured_wall_s",
            "simulated_makespan_s",
            "measured_imbalance",
            "simulated_imbalance",
        ],
        rows,
        notes=[
            "simulated makespan uses the measured per-chunk costs, so it "
            "bounds the compute portion of the measured wall time",
            "paper §4.1: more chunks per worker -> lower imbalance",
        ],
    )


def test_measured_imbalance_matches_simulator(benchmark):
    result = record(run_once(benchmark, _run_measured))
    by_cpw = {row[0]: row for row in result.rows}
    for cpw, row in by_cpw.items():
        _, chunks, wall, makespan, meas_imb, sim_imb = row
        # The simulator replays the measured chunk costs: its makespan can
        # never exceed their serial sum, and both imbalances are finite.
        assert 0 <= makespan <= wall * 10 + 1.0
        assert meas_imb >= 0 and sim_imb >= 0
        assert chunks <= 2 * cpw
    # Over-decomposition must not *increase* the simulated imbalance
    # (modest slack: wall-clock chunk timings are noisy on busy machines).
    assert by_cpw[16][5] <= by_cpw[1][5] + 0.25
