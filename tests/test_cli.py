"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig06" in out
    assert "fig11" in out


def test_run_static_experiment(capsys):
    assert main(["run", "fig05"]) == 0
    out = capsys.readouterr().out
    assert "Figure 5" in out
    assert "1000" in out


def test_run_writes_file(tmp_path, capsys):
    out_path = tmp_path / "fig03.txt"
    assert main(["run", "fig03", "--out", str(out_path)]) == 0
    content = out_path.read_text()
    assert "Annotation type" in content


def test_simulate_command(capsys):
    assert main([
        "simulate", "--benchmark", "nat", "--load", "500",
        "--cycles", "120000", "--process", "cbr",
    ]) == 0
    out = capsys.readouterr().out
    assert "mean power" in out
    assert "ME0" in out


def test_simulate_with_policy(capsys):
    assert main([
        "simulate", "--policy", "tdvs", "--window", "20000",
        "--threshold", "1200", "--load", "300", "--cycles", "200000",
        "--process", "cbr",
    ]) == 0
    out = capsys.readouterr().out
    assert "VF transitions" in out


def test_scenarios_list(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out
    assert "flash_crowd" in out
    assert "ddos_min64" in out
    # At least 8 catalog entries plus the header line.
    assert len(out.strip().splitlines()) >= 9


def test_scenarios_detail(capsys):
    assert main(["scenarios", "link_failover"]) == 0
    out = capsys.readouterr().out
    assert "Link-failover" in out
    assert "Mbps" in out


def test_scenarios_run(capsys):
    assert main([
        "scenarios", "overnight_trough", "--run", "--profile", "bench",
    ]) == 0
    out = capsys.readouterr().out
    assert "mean power" in out
    assert "forwarded" in out


def test_scenarios_unknown_raises():
    with pytest.raises(Exception):
        main(["scenarios", "no_such_workload"])


def test_sweep_small_grid(capsys, tmp_path):
    store = str(tmp_path / "sweep.jsonl")
    argv = [
        "sweep", "--policy", "tdvs", "--threshold", "1200",
        "--window", "40000", "--traffic", "load:800",
        "--profile", "bench", "--workers", "1", "--store", store, "--quiet",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "1 jobs" in out
    assert "power(W)" in out
    # Second invocation hits the store cache.
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "yes" in out


def test_sweep_explicit_serial_backend(capsys):
    argv = [
        "sweep", "--policy", "tdvs", "--threshold", "1200",
        "--window", "40000", "--traffic", "load:800",
        "--profile", "bench", "--backend", "serial", "--quiet",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "backend=serial" in out
    assert "power(W)" in out


def test_sweep_distributed_backend_needs_endpoint():
    from repro.errors import BackendError

    argv = [
        "sweep", "--policy", "tdvs", "--threshold", "1200",
        "--window", "40000", "--profile", "bench",
        "--backend", "distributed", "--quiet",
    ]
    with pytest.raises(BackendError):
        main(argv)


@pytest.mark.slow
def test_worker_command_drains_a_distributed_sweep(capsys):
    """`repro worker --connect` against an in-process coordinator."""
    import threading

    from repro.backends import DistributedBackend
    from repro.api import ExecutionPolicy, Session
    from repro.sweep import SweepSpec

    jobs = SweepSpec(
        policies=("none",), traffic=("load:800",),
        duration_cycles=120_000, process="cbr", seeds=(11,),
    ).jobs()
    backend = DistributedBackend(port=0)
    result = {}
    session = Session(execution=ExecutionPolicy(backend=backend))
    sweep = threading.Thread(
        target=lambda: result.update(outcomes=session.sweep(jobs)),
        daemon=True,
    )
    sweep.start()
    assert main(["worker", "--connect", backend.address, "--quiet"]) == 0
    sweep.join(timeout=120)
    assert not sweep.is_alive()
    out = capsys.readouterr().out
    assert "completed 1 job(s)" in out
    assert len(result["outcomes"]) == 1


def test_worker_requires_connect():
    with pytest.raises(SystemExit):
        main(["worker"])


def test_loc_gen_to_stdout(capsys):
    assert main(["loc-gen", "cycle(deq[i]) - cycle(enq[i]) <= 50"]) == 0
    out = capsys.readouterr().out
    assert "Auto-generated LOC analyzer" in out
    assert "def analyze_lines" in out


def test_loc_gen_to_file(tmp_path, capsys):
    path = tmp_path / "analyzer.py"
    assert main(["loc-gen", "cycle(e[i]) below <0, 5, 1>", "--out", str(path)]) == 0
    assert "def analyze_lines" in path.read_text()


def test_bad_formula_raises():
    with pytest.raises(Exception):
        main(["loc-gen", "not a formula @@"])


def test_unknown_experiment_raises():
    with pytest.raises(Exception):
        main(["run", "fig99"])


@pytest.mark.slow
def test_bench_command_writes_artifact(tmp_path, capsys):
    out = tmp_path / "BENCH_run.json"
    argv = [
        "bench", "--scenario", "flash_crowd", "--repeats", "1",
        "--replay-events", "2000", "--out", str(out), "--quiet",
    ]
    assert main(argv) == 0
    captured = capsys.readouterr().out
    assert "checking path" in captured
    import json

    data = json.loads(out.read_text())
    assert data["bench"] == "run"
    assert "flash_crowd" in data["scenarios"]
    # The soft gate: a matching baseline produces no warnings.
    argv += ["--baseline", str(out)]
    assert main(argv) == 0
