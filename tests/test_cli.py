"""Unit tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_datasets(capsys):
    code, out = run(capsys, "datasets")
    assert code == 0
    for name in ("lj", "or", "wi", "tw", "fr"):
        assert name in out


def test_stats_dataset(capsys):
    code, out = run(capsys, "stats", "tw", "--scale", "0.1")
    assert code == 0
    assert "|V|" in out and "skewed edges" in out


def test_stats_edge_list_file(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n0 2\n")
    code, out = run(capsys, "stats", str(path))
    assert code == 0
    assert "|E| (undirected) : 3" in out


def test_count_with_verify_and_output(capsys, tmp_path):
    out_path = tmp_path / "counts.npz"
    code, out = run(
        capsys, "count", "lj", "--scale", "0.05", "--verify",
        "--top", "2", "--output", str(out_path),
    )
    assert code == 0
    assert "verification     : passed" in out
    assert "triangles" in out
    with np.load(out_path) as data:
        assert len(data["counts"]) > 0


def test_count_backends(capsys):
    code, out = run(capsys, "count", "lj", "--scale", "0.05", "--backend", "bitmap")
    assert code == 0


def test_backends_names_the_kernel_provider(capsys, monkeypatch):
    from repro import compiled

    compiled.reset_provider_cache()
    try:
        code, out = run(capsys, "backends")
        assert code == 0
        expected = compiled.provider() or compiled.unavailable_reason()
        assert f"kernel provider: {expected}\n" in out
        monkeypatch.setenv("REPRO_COMPILED", "off")
        compiled.reset_provider_cache()
        code, out = run(capsys, "backends")
        assert code == 0
        assert "kernel provider: compiled kernels disabled via REPRO_COMPILED=off" in out
    finally:
        monkeypatch.undo()
        compiled.reset_provider_cache()


def test_count_workers_stats(capsys):
    code, out = run(
        capsys, "count", "lj", "--scale", "0.05",
        "--workers", "2", "--stats", "--chunks-per-worker", "2",
    )
    assert code == 0
    assert "triangles" in out
    # --workers/--stats route through the parallel backend and print the
    # per-worker telemetry block.
    assert "workers          : 2 effective / 2 requested" in out
    assert "chunks" in out and "imbalance" in out


def test_update_insert_and_delete(capsys, tmp_path):
    g = tmp_path / "g.txt"
    g.write_text("0 1\n1 2\n2 3\n3 0\n")
    ins = tmp_path / "ins.txt"
    ins.write_text("0 2\n1 3\n0 2\n")  # last line duplicates the first
    dels = tmp_path / "del.txt"
    dels.write_text("2 3\n")
    out_path = tmp_path / "counts.npz"
    code, out = run(
        capsys, "update", str(g), "--edges", str(ins), "--delete", str(dels),
        "--verify", "--output", str(out_path),
    )
    assert code == 0
    assert "inserted         : 2" in out
    assert "deleted          : 1" in out
    assert "skipped (no-op)  : 1" in out
    assert "verification     : passed" in out
    assert "|E| now          : 5" in out
    with np.load(out_path) as data:
        assert len(data["counts"]) == 10


def test_update_batched(capsys, tmp_path):
    g = tmp_path / "g.txt"
    g.write_text("0 1\n1 2\n2 3\n3 4\n4 0\n")
    ins = tmp_path / "ins.txt"
    ins.write_text("0 2\n0 3\n1 3\n1 4\n2 4\n")
    code, out = run(
        capsys, "update", str(g), "--edges", str(ins), "--batch-size", "2",
        "--verify",
    )
    assert code == 0
    assert "inserted         : 5" in out
    assert "verification     : passed" in out


def test_update_requires_an_update_file(capsys, tmp_path):
    g = tmp_path / "g.txt"
    g.write_text("0 1\n")
    code = main(["update", str(g)])
    assert code == 2


def test_simulate_cpu(capsys):
    code, out = run(capsys, "simulate", "tw", "--scale", "0.2",
                    "--processor", "cpu", "--algorithm", "MPS", "--threads", "8")
    assert code == 0
    assert "modeled" in out and "breakdown" in out and "threads" in out


def test_simulate_gpu(capsys):
    code, out = run(capsys, "simulate", "tw", "--scale", "0.2",
                    "--processor", "gpu", "--warps", "8")
    assert code == 0
    assert "warps_per_block  : 8" in out


def test_experiment_list_and_run(capsys):
    code, out = run(capsys, "experiment", "list")
    assert code == 0
    assert "fig10" in out and "table4" in out
    code, out = run(capsys, "experiment", "table2", "--scale", "0.2")
    assert code == 0
    assert "skew_%" in out


def test_experiment_unknown(capsys):
    code = main(["experiment", "fig99"])
    assert code == 2


def test_recommend(capsys):
    code, out = run(capsys, "recommend", "fr", "--scale", "0.1")
    assert code == 0
    assert "KNL" in out


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_experiment_chart(capsys):
    code, out = run(capsys, "experiment", "fig9", "--scale", "0.2", "--chart")
    assert code == 0
    assert "A = MPS" in out and "B = BMP" in out


def test_experiment_chart_ignored_for_tables(capsys):
    code, out = run(capsys, "experiment", "table3", "--scale", "0.2", "--chart")
    assert code == 0
    assert "A =" not in out


def test_cluster_command(capsys):
    code, out = run(capsys, "cluster", "lj", "--scale", "0.1", "--eps", "0.45")
    assert code == 0
    assert "clusters" in out and "outliers" in out


def test_linkpred_command(capsys):
    code, out = run(capsys, "linkpred", "lj", "--scale", "0.1", "--top", "3")
    assert code == 0
    assert "candidate links" in out and "score=" in out


def test_linkpred_explicit_vertex(capsys):
    code, out = run(capsys, "linkpred", "lj", "--scale", "0.1",
                    "--vertex", "0", "--method", "common")
    assert code == 0


def test_fuzz_command_clean_run(capsys, tmp_path):
    code, out = run(
        capsys, "fuzz", "--cases", "8", "--seed", "0",
        "--paths", "merge", "bitmap",
        "--artifact-dir", str(tmp_path / "artifacts"),
    )
    assert code == 0
    assert "cases            : 8" in out
    assert "merge" in out and "bitmap" in out
    assert "failures         : 0" in out


def test_fuzz_command_rejects_unknown_path(capsys):
    code = main(["fuzz", "--cases", "2", "--paths", "no-such-path"])
    assert code == 2


def test_fuzz_command_replays_artifact(capsys, tmp_path):
    from repro.fuzz.differential import Failure
    from repro.fuzz.generators import generate_case
    from repro.fuzz.shrink import save_artifact

    artifact = save_artifact(
        generate_case(3, 1), Failure("merge", "mismatch", "stale"), tmp_path
    )
    code, out = run(capsys, "fuzz", "--replay", artifact)
    assert code == 0  # the recorded bug is fixed, so the replay passes
    assert "merge" in out


def test_fuzz_replay_skips_unavailable_recorded_path(capsys, tmp_path):
    # Regression: an artifact recorded on a compiled-enabled host used to
    # crash replay with AlgorithmError on hosts without the dependency.
    # It must skip with a warning and exit 0.
    from repro.fuzz.differential import Failure
    from repro.fuzz.generators import generate_case
    from repro.fuzz.shrink import save_artifact

    artifact = save_artifact(
        generate_case(3, 2),
        Failure("gone-backend", "mismatch", "stale"),
        tmp_path,
    )
    code = main(["fuzz", "--replay", artifact])
    captured = capsys.readouterr()
    assert code == 0
    assert "skipped" in captured.out
    assert "gone-backend" in captured.err  # the warning reaches stderr


def test_stream_command_replays_trace(capsys, tmp_path):
    import json

    from repro.stream import generate_trace, write_trace

    trace = tmp_path / "trace.txt"
    write_trace(trace, generate_trace(500, 60, seed=5))
    summary_path = tmp_path / "summary.json"
    code, out = run(
        capsys, "stream", "--trace", str(trace), "--window", "100",
        "--snapshot-every", "200", "--json", str(summary_path),
        "--sampled-budget", "65536",
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    kinds = [rec["type"] for rec in lines]
    assert kinds.count("snapshot") >= 2 and kinds[-1] == "summary"
    summary = json.loads(summary_path.read_text())
    assert summary["events"] == 500
    assert summary["live_edges"] > 0
    assert summary["sampled"]["estimate"]["delta"] == 0.05


def test_stream_command_maps_errors_to_exit_codes(capsys, tmp_path):
    # Out-of-order timestamps → ReproError → 6; malformed trace → 3.
    trace = tmp_path / "bad_order.txt"
    trace.write_text("5 0 1\n3 1 2\n")
    assert main(["stream", "--trace", str(trace)]) == 6
    capsys.readouterr()
    trace = tmp_path / "bad_tokens.txt"
    trace.write_text("1 a b\n")
    assert main(["stream", "--trace", str(trace)]) == 3
    capsys.readouterr()
    assert main(["stream", "--trace", "/no/such/trace.txt"]) == 7


# --------------------------------------------------------------------- #
# error handling: known failures exit with distinct codes + one stderr line
# --------------------------------------------------------------------- #
def test_missing_file_exits_7_with_one_line_stderr(capsys):
    code = main(["stats", "/no/such/file.txt"])
    captured = capsys.readouterr()
    assert code == 7
    assert captured.err.startswith("repro stats:")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_malformed_edge_list_exits_3(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\nbogus line here\n")
    code = main(["stats", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert "non-integer vertex id" in captured.err
    assert captured.err.count("\n") == 1


def test_incompatible_algorithm_backend_exits_4(capsys):
    code = main(["count", "lj", "--scale", "0.05",
                 "--algorithm", "MPS", "--backend", "bitmap"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err.startswith("repro count:")
    assert "does not execute" in captured.err


def test_update_with_missing_edit_file_exits_7(capsys, tmp_path):
    g = tmp_path / "g.txt"
    g.write_text("0 1\n1 2\n")
    code = main(["update", str(g), "--edges", str(tmp_path / "missing.txt")])
    captured = capsys.readouterr()
    assert code == 7
    assert captured.err.startswith("repro update:")


def test_usage_error_exits_2_via_system_exit():
    with pytest.raises(SystemExit) as err:
        main(["count", "lj", "--backend", "no-such-backend"])
    assert err.value.code == 2


# --------------------------------------------------------------------- #
# serve subcommand plumbing
# --------------------------------------------------------------------- #
def test_serve_preload_spec_parsing():
    from repro.cli import _parse_preload

    assert _parse_preload("lj") == {"dataset": "lj", "scale": 1.0}
    assert _parse_preload("lj:0.2") == {"dataset": "lj", "scale": 0.2}
    spec = _parse_preload("/tmp/some/graph.txt")
    assert spec == {"path": "/tmp/some/graph.txt"}


def test_serve_parser_defaults():
    from repro.cli import build_parser

    args = build_parser().parse_args(["serve", "--port", "0"])
    assert args.command == "serve"
    assert args.port == 0
    assert args.host == "127.0.0.1"
    assert args.preload is None or args.preload == []
