"""The end-to-end benchmark's own rules (``benchmarks/e2e``).

Inputs are tiny stand-ins (scale 0.05) so the whole module runs in a few
seconds: the percentile rule, the naming schema, seed determinism, that
every declared metric is emitted, and a 0.5 s smoke run of every
workload that must finish with no failed operation.
"""

import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"
sys.path.insert(0, str(E2E))

import e2e_core  # noqa: E402
import e2e_inputs  # noqa: E402
import e2e_workloads  # noqa: E402

_spec = importlib.util.spec_from_file_location("e2e_compare", E2E / "compare.py")
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)

SCALE = 0.05
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    dirs = {
        name: e2e_inputs.make_inputs(
            name, 7, root / name, scale=SCALE, serve_seconds=1.5
        )
        for name in e2e_workloads.WORKLOADS
    }
    work = root / "work"
    work.mkdir()
    return dirs, work


def test_percentile_rule():
    assert e2e_core.percentile(list(range(99)), 0.9) is None
    assert e2e_core.percentile(list(range(100)), 0.9) == pytest.approx(89.1)
    assert e2e_core.percentile([3.0], 0.5) == 3.0  # the median is always reported
    assert e2e_core.tail_level(18) == 0.5
    assert e2e_core.tail_level(200) == pytest.approx(0.95)
    assert e2e_core.tail_level(10**6) == e2e_core.MAX_TAIL_Q
    s = e2e_core.summarize([0.001 * i for i in range(1, 201)])
    assert s["n"] == 200 and s["tail_q"] == pytest.approx(0.95)


def test_declaration_names_and_bounds():
    decl = e2e_core.load_declaration()
    names = [w["name"] for w in decl["workloads"]]
    assert sorted(names) == sorted(e2e_workloads.WORKLOADS)
    metrics = decl["end_to_end"] + decl["per_layer"]
    for name in names + [m["name"] for m in metrics]:
        assert e2e_core.NAME_RE.match(name), name
    assert len(set(m["name"] for m in metrics)) == len(metrics)
    for m in metrics:
        assert UNIT_RE.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in decl["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_seed_determinism(tmp_path):
    def arrays(seed, sub):
        d = e2e_inputs.make_inputs(
            "serve-mixed", seed, tmp_path / sub, scale=SCALE, serve_seconds=0.5
        )
        out = {}
        for f in ("graph.npz", "check.npz", "serve.npz"):
            with np.load(d / f) as data:
                out.update({f"{f}:{k}": data[k] for k in data.files})
        return out

    a, again, b = arrays(1, "a"), arrays(1, "again"), arrays(2, "b")
    assert all(np.array_equal(a[k], again[k]) for k in a)
    for k in ("graph.npz:dst", "serve.npz:pairs", "serve.npz:edits"):
        assert not np.array_equal(a[k], b[k]), k
    # A seed relabels the stand-in: same degree sequence, different ids.
    deg = lambda d: np.sort(np.diff(d["graph.npz:offsets"]))  # noqa: E731
    assert np.array_equal(deg(a), deg(b))


@pytest.mark.parametrize("workload", sorted(e2e_workloads.WORKLOADS))
def test_smoke_run_has_no_errors(workload, inputs):
    dirs, work = inputs
    out = e2e_workloads.run_workload(
        workload, dirs[workload], 0.5, False, work=work, warmup=0
    )
    assert out["attempted"] >= 1 and out["failed"] == 0
    values = e2e_workloads.end_to_end_metrics(out, [out["setup_s"]])
    for m in e2e_core.declared_metrics(False):
        assert values[m["name"]] > 0, m["name"]


def test_traced_run_emits_every_layer_metric(inputs):
    dirs, work = inputs
    out = e2e_workloads.run_workload(
        "warm-count-skewed", dirs["warm-count-skewed"], 0.4, True,
        work=work, warmup=0, probe_seconds=0.3,
    )
    layers = out["layers"]
    for m in e2e_core.declared_metrics(True):
        assert m["name"] in layers, m["name"]
    for name in layers:
        assert e2e_core.NAME_RE.match(name), name
    assert layers["trace.coverage"] > 0.9


def test_wrong_counts_abort(inputs, tmp_path):
    dirs, work = inputs
    src = dirs["warm-count-skewed"]
    bad = tmp_path / "bad"
    bad.mkdir()
    for f in src.iterdir():
        (bad / f.name).write_bytes(f.read_bytes())
    with np.load(bad / "check.npz") as data:
        counts, tri = data["counts"].copy(), data["triangles"]
    counts[0] += 1
    np.savez(bad / "check.npz", counts=counts, triangles=tri)
    with pytest.raises(e2e_core.Mismatch):
        e2e_workloads.run_workload(
            "warm-count-skewed", bad, 0.1, False, work=work, warmup=0
        )


def _runs_file(path, values, failed=0, seconds=15.0):
    doc = {"runs": [
        {"workload": "warm-count-skewed", "seed": s, "seconds": seconds, "trace": False,
         "attempted": 100, "failed": failed,
         "metrics": {"op_p50_ms": {"value": v, "unit": "ms"}}}
        for s, v in enumerate(values)
    ]}
    path.write_text(json.dumps(doc))
    return path


BASE = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]


def test_compare_verdicts(tmp_path):
    def values(name, vals):
        return compare.load_runs(_runs_file(tmp_path / name, vals))["values"][key]

    key = ("warm-count-skewed", "op_p50_ms")
    av = values("a.json", BASE)
    assert compare.verdict(av, values("b.json", BASE), "lower", 0.1)[0] == "no-worse"
    slow = values("c.json", [v * 1.3 for v in BASE])
    assert compare.verdict(av, slow, "lower", 0.1)[0] == "worse"
    fast = values("d.json", [v * 0.8 for v in BASE])
    assert compare.verdict(av, fast, "lower", 0.1)[0] == "better"
    noisy = values("e.json", [50, 150] * 5)
    assert compare.verdict(av, noisy, "lower", 0.1)[0] == "unresolved"


def _rows(lines, workload):
    """Verdict by metric from the table (the lines before the per-seed list)."""
    table = lines[: lines.index("")]
    return {ln.split()[1]: ln.split()[-1] for ln in table if ln.startswith(workload)}


def test_compare_more_failures_is_worse_and_never_better(tmp_path):
    decl = e2e_core.load_declaration()
    a = _runs_file(tmp_path / "a.json", BASE)
    # Faster, but one operation in a hundred fails.
    b = _runs_file(tmp_path / "b.json", [v * 0.8 for v in BASE], failed=1)
    lines, any_worse = compare.compare(a, b, decl)
    rows = _rows(lines, "warm-count-skewed")
    assert rows["error_rate"] == "worse" and rows["op_p50_ms"] == "no-worse"
    assert any_worse
    # The same gain without failures is a gain.
    c = _runs_file(tmp_path / "c.json", [v * 0.8 for v in BASE])
    lines, any_worse = compare.compare(a, c, decl)
    rows = _rows(lines, "warm-count-skewed")
    assert rows["error_rate"] == "no-worse" and rows["op_p50_ms"] == "better"
    assert not any_worse


def test_compare_refuses_different_run_lengths(tmp_path):
    a = _runs_file(tmp_path / "a.json", BASE)
    b = _runs_file(tmp_path / "b.json", BASE, seconds=5.0)
    with pytest.raises(ValueError, match="different lengths"):
        compare.compare(a, b, e2e_core.load_declaration())
