"""Artifact round trips, run execution, sweep aggregation, and diagnostics files."""

import json
import math

import numpy as np
import pytest

import hive_vqe.harness as harness
from hive_vqe.config import ConfigError, experiment_from_mapping, parse_config_text
from hive_vqe.harness import (
    TRACE_HEADER,
    _derived_seed,
    cell_name,
    execute_run,
    read_trace_csv,
    resolve_theta,
    run_diagnose,
    run_sweep,
    save_run,
    trace_without_wall_ms,
    worker_count,
    write_trace_csv,
)


def make_config(extra=""):
    return experiment_from_mapping(
        parse_config_text("qubits = 2\ndepth = 2\nmax_iterations = 150\n" + extra)
    )


def test_trace_csv_round_trip(tmp_path):
    artifact = execute_run(make_config())
    path = tmp_path / "trace.csv"
    write_trace_csv(artifact.trace.records, path)
    text = path.read_text()
    assert text.splitlines()[0] == TRACE_HEADER
    back = read_trace_csv(path)
    assert back == artifact.trace.records


def test_read_trace_rejects_bad_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("iteration,energy\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        read_trace_csv(path)


def test_trace_without_wall_ms():
    text = "a,b,c,d,e\n1,2,3,4,5\n"
    assert trace_without_wall_ms(text) == "a,b,c,d\n1,2,3,4\n"


def test_execute_run_boa_reaches_target():
    artifact = execute_run(make_config())
    assert artifact.trace.reached_target
    assert artifact.restarts is None
    assert artifact.ground_energy < 0
    evaluations = [r.evaluations for r in artifact.trace.records]
    deltas = {b - a for a, b in zip(evaluations, evaluations[1:])}
    assert deltas == {60}
    assert evaluations[0] == 60 + 10  # first cycle plus the initial scout wave


def test_execute_run_is_deterministic():
    def strip(trace):
        return [(r.iteration, r.best_energy, r.abs_error, r.evaluations) for r in trace.records]

    a = execute_run(make_config())
    b = execute_run(make_config())
    assert strip(a.trace) == strip(b.trace)
    np.testing.assert_array_equal(a.trace.best_parameters, b.trace.best_parameters)


def test_execute_run_adam_picks_best_restart():
    config = make_config("optimizer = adam\noptimizer.adam.restarts = 3\n")
    artifact = execute_run(config)
    assert artifact.restarts is not None and len(artifact.restarts) == 3
    assert len({s.seed for s in artifact.restarts}) == 3
    reached = [s for s in artifact.restarts if s.reached_target]
    if reached:
        assert artifact.trace.reached_target
        assert artifact.trace.iterations == min(s.iterations for s in reached)
        assert artifact.seed in {s.seed for s in reached}


def test_derived_seed_is_stable_and_distinct():
    seeds = [_derived_seed(7, r) for r in range(5)]
    assert seeds == [_derived_seed(7, r) for r in range(5)]
    assert len(set(seeds)) == 5
    assert all(0 <= s < 2**64 for s in seeds)


def test_save_run_artifacts(tmp_path):
    config = make_config()
    artifact = execute_run(config)
    paths = save_run(artifact, tmp_path / "out")
    assert paths["trace"].is_file()
    assert paths["run"].is_file()
    payload = json.loads(paths["run"].read_text())
    assert payload["schema_version"] == 1
    assert payload["optimizer"] == "boa"
    assert payload["reached_target"] is True
    assert payload["iterations"] == artifact.trace.iterations
    assert len(payload["best_parameters"]) == 2 * config.depth
    rebuilt = experiment_from_mapping({k: str(v) for k, v in payload["config"].items()})
    assert rebuilt == config
    assert read_trace_csv(paths["trace"]) == artifact.trace.records


def fail_writes_midway(monkeypatch, failing):
    """Make every write to a file whose name contains ``failing`` stop halfway."""
    write_text = harness.Path.write_text

    def fail_midway(path, text):
        if failing in path.name:
            write_text(path, text[: len(text) // 2])
            raise OSError(28, "No space left on device")
        return write_text(path, text)

    monkeypatch.setattr(harness.Path, "write_text", fail_midway)


@pytest.mark.parametrize("failing", ["trace.csv", "run.json"])
def test_save_run_failure_leaves_no_partial_file(tmp_path, monkeypatch, failing):
    artifact = execute_run(make_config())
    out = tmp_path / "out"
    fail_writes_midway(monkeypatch, failing)
    with pytest.raises(OSError, match="No space"):
        save_run(artifact, out)
    assert not (out / "run.json").exists()
    left = ["trace.csv"] if failing == "run.json" else []
    assert sorted(p.name for p in out.iterdir()) == left


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv(harness.THREADS_ENV_VAR, raising=False)
    assert worker_count(4) >= 1
    monkeypatch.setenv(harness.THREADS_ENV_VAR, "1")
    assert worker_count(8) == 1
    monkeypatch.setenv(harness.THREADS_ENV_VAR, "2")
    assert worker_count(8) <= 2
    assert worker_count(1) == 1
    monkeypatch.setenv(harness.THREADS_ENV_VAR, "zero")
    with pytest.raises(ConfigError, match="HIVE_VQE_THREADS"):
        worker_count(4)
    monkeypatch.setenv(harness.THREADS_ENV_VAR, "0")
    with pytest.raises(ConfigError, match="HIVE_VQE_THREADS"):
        worker_count(4)


def sweep_config():
    return experiment_from_mapping(
        parse_config_text(
            "qubits = 2\ndepth = 2\nmax_iterations = 60\n"
            "sweep.grid = 2:1, 2:2\nsweep.seeds = 1, 2\nsweep.optimizers = boa\n"
        )
    )


def test_sweep_writes_cells_and_summary(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.THREADS_ENV_VAR, "1")
    result = run_sweep(sweep_config(), tmp_path / "sweep")
    assert result.error_count == 0
    assert len(result.rows) == 4
    for qubits, depth in ((2, 1), (2, 2)):
        for seed in (1, 2):
            cell = tmp_path / "sweep" / cell_name(qubits, depth, "boa", seed)
            assert (cell / "trace.csv").is_file()
            assert (cell / "run.json").is_file()
    lines = (tmp_path / "sweep" / "summary.csv").read_text().splitlines()
    assert lines[0] == harness.SUMMARY_HEADER
    assert len(lines) == 3
    for row in result.summary_rows:
        assert row["runs"] == 2
        assert row["errors"] == 0
        if row["successes"]:
            assert row["median_iterations_to_target"] is not None


def test_sweep_parallel_matches_serial(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.THREADS_ENV_VAR, "1")
    serial = run_sweep(sweep_config(), tmp_path / "serial")
    monkeypatch.setenv(harness.THREADS_ENV_VAR, "2")
    parallel = run_sweep(sweep_config(), tmp_path / "parallel")
    assert serial.error_count == parallel.error_count == 0
    for row in serial.rows:
        cell = row["cell"]
        a = trace_without_wall_ms((tmp_path / "serial" / cell / "trace.csv").read_text())
        b = trace_without_wall_ms((tmp_path / "parallel" / cell / "trace.csv").read_text())
        assert a == b
    assert (tmp_path / "serial" / "summary.csv").read_text() == (
        tmp_path / "parallel" / "summary.csv"
    ).read_text()


def test_sweep_records_partial_failures(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.THREADS_ENV_VAR, "1")
    real = harness.execute_run

    def flaky(config):
        if config.depth == 1:
            raise RuntimeError("synthetic failure")
        return real(config)

    monkeypatch.setattr(harness, "execute_run", flaky)
    result = run_sweep(sweep_config(), tmp_path / "sweep")
    assert result.error_count == 2
    failed = tmp_path / "sweep" / cell_name(2, 1, "boa", 1)
    assert "synthetic failure" in (failed / "error.txt").read_text()
    summary = {(r["qubits"], r["depth"]): r for r in result.summary_rows}
    assert summary[(2, 1)]["errors"] == 2
    assert summary[(2, 2)]["errors"] == 0
    assert (tmp_path / "sweep" / "summary.csv").is_file()


def test_sweep_success_removes_a_stale_error_file(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.THREADS_ENV_VAR, "1")
    out = tmp_path / "sweep"
    stale = out / cell_name(2, 1, "boa", 1) / "error.txt"
    stale.parent.mkdir(parents=True)
    stale.write_text("RuntimeError: an earlier sweep\n")
    assert run_sweep(sweep_config(), out).error_count == 0
    assert not stale.exists()
    assert (stale.parent / "run.json").is_file()
    assert (stale.parent / "trace.csv").is_file()


def test_sweep_failure_removes_a_stale_run(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.THREADS_ENV_VAR, "1")
    out = tmp_path / "sweep"
    run_sweep(sweep_config(), out)
    cell = out / cell_name(2, 1, "boa", 1)
    assert (cell / "run.json").is_file()

    def failing(config):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(harness, "execute_run", failing)
    assert run_sweep(sweep_config(), out).error_count == 4
    assert sorted(p.name for p in cell.iterdir()) == ["error.txt"]


def test_sweep_error_file_failure_leaves_no_partial_file(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.THREADS_ENV_VAR, "1")
    real = harness.execute_run

    def flaky(config):
        if config.depth == 1:
            raise RuntimeError("synthetic failure")
        return real(config)

    monkeypatch.setattr(harness, "execute_run", flaky)
    fail_writes_midway(monkeypatch, "error.txt")
    out = tmp_path / "sweep"
    with pytest.raises(OSError, match="No space"):
        run_sweep(sweep_config(), out)
    assert [p.name for p in out.rglob("*") if p.is_file()] == []


def test_sweep_summary_failure_leaves_no_partial_file(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.THREADS_ENV_VAR, "1")
    fail_writes_midway(monkeypatch, "summary.csv")
    out = tmp_path / "sweep"
    with pytest.raises(OSError, match="No space"):
        run_sweep(sweep_config(), out)
    assert sorted(p.name for p in out.iterdir() if p.is_file()) == []


def test_resolve_theta_modes(tmp_path):
    config = make_config()
    zeros, origin = resolve_theta(config, "zeros")
    np.testing.assert_array_equal(zeros, np.zeros(4))
    assert origin == "zeros"

    path = tmp_path / "theta.txt"
    path.write_text("0.1 0.2\n-0.3 0.4\n")
    values, origin = resolve_theta(config, str(path))
    np.testing.assert_allclose(values, [0.1, 0.2, -0.3, 0.4])
    assert str(path) in origin

    best, origin = resolve_theta(config, "best")
    assert best.shape == (4,)
    assert "best" in origin


def test_resolve_theta_errors(tmp_path):
    config = make_config()
    short = tmp_path / "short.txt"
    short.write_text("0.1 0.2\n")
    with pytest.raises(ConfigError, match="expected 4 values"):
        resolve_theta(config, str(short))
    bad = tmp_path / "bad.txt"
    bad.write_text("one two three four\n")
    with pytest.raises(ConfigError, match="only numbers"):
        resolve_theta(config, str(bad))
    inf = tmp_path / "inf.txt"
    inf.write_text("inf 0 0 0\n")
    with pytest.raises(ConfigError, match="non-finite"):
        resolve_theta(config, str(inf))
    with pytest.raises(ConfigError, match="cannot read"):
        resolve_theta(config, str(tmp_path / "missing.txt"))


def test_run_diagnose_outputs(tmp_path):
    config = make_config()
    summary = run_diagnose(config, "zeros", tmp_path / "diag")
    for name in ("qfim.csv", "hessian.csv", "spectrum.txt", "theta.txt"):
        assert (tmp_path / "diag" / name).is_file()
    rows = [
        [float(x) for x in line.split(",")]
        for line in (tmp_path / "diag" / "qfim.csv").read_text().splitlines()
    ]
    matrix = np.array(rows)
    assert matrix.shape == (4, 4)
    np.testing.assert_allclose(matrix, matrix.T, atol=1e-12)
    assert summary["qfim_rank"] >= 1
    text = (tmp_path / "diag" / "spectrum.txt").read_text()
    assert "[qfim]" in text and "[hessian]" in text
    assert not math.isnan(summary["hessian_rank"])


DIAGNOSE_FILES = ["qfim.csv", "hessian.csv", "theta.txt", "spectrum.txt"]


@pytest.mark.parametrize("failing", DIAGNOSE_FILES)
def test_diagnose_failure_leaves_no_partial_file(tmp_path, monkeypatch, failing):
    out = tmp_path / "diag"
    fail_writes_midway(monkeypatch, failing)
    with pytest.raises(OSError, match="No space"):
        run_diagnose(make_config(), "zeros", out)
    written = DIAGNOSE_FILES[: DIAGNOSE_FILES.index(failing)]
    assert sorted(p.name for p in out.iterdir()) == sorted(written)
