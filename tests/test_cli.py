"""Subcommand behavior, exit codes, artifact files, and plot output."""

import json
import os

import numpy as np
import pytest

import hive_vqe.cli as cli
import hive_vqe.harness as harness
from hive_vqe.cli import main
from hive_vqe.harness import trace_without_wall_ms
from hive_vqe.optimizers import ConvergenceTrace, DivergenceError, Termination


def write_config(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return str(path)


TINY = "qubits = 2\ndepth = 2\nmax_iterations = 150\n"


def test_oracle_prints_twelve_digits(capsys):
    assert main(["oracle", "2", "1.1", "open"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "-2.41660919472"
    assert float(out) == pytest.approx(-(5.84**0.5), abs=1e-10)


def test_oracle_zero_field(capsys):
    for n in range(2, 7):
        assert main(["oracle", str(n), "0", "open"]) == 0
        assert float(capsys.readouterr().out) == -(n - 1)


def test_oracle_guards(capsys):
    assert main(["oracle", "13", "1.1", "open"]) == 2
    assert "12 qubits" in capsys.readouterr().err
    assert main(["oracle", "4", "1.1", "ring"]) == 2
    assert main(["oracle", "1", "1.1", "open"]) == 2


def test_usage_errors(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["run"]) == 1
    assert main(["oracle", "four", "1.1", "open"]) == 1
    capsys.readouterr()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "hive-vqe" in capsys.readouterr().out


def test_run_writes_artifacts_and_exit_zero(tmp_path, capsys):
    config = write_config(tmp_path, TINY)
    out = tmp_path / "runs"
    assert main(["run", "--config", config, "--out", str(out)]) == 0
    assert (out / "trace.csv").is_file()
    payload = json.loads((out / "run.json").read_text())
    assert payload["reached_target"] is True
    stdout = capsys.readouterr().out
    assert "target_reached" in stdout


def test_run_seed_override(tmp_path):
    config = write_config(tmp_path, TINY)
    assert main(["run", "--config", config, "--seed", "9", "--out", str(tmp_path / "a")]) in (0, 4)
    payload = json.loads((tmp_path / "a" / "run.json").read_text())
    assert payload["config"]["seed"] == 9


def test_run_target_not_reached_exit_four(tmp_path):
    config = write_config(tmp_path, "qubits = 4\ndepth = 4\nmax_iterations = 2\n")
    assert main(["run", "--config", config, "--out", str(tmp_path / "r")]) == 4


def test_run_bad_config_exit_two(tmp_path, capsys):
    config = write_config(tmp_path, "qubits = 4\n")
    assert main(["run", "--config", config]) == 2
    assert "depth" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_run_determinism_byte_identical(tmp_path):
    config = write_config(tmp_path, TINY)
    assert main(["run", "--config", config, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", config, "--out", str(tmp_path / "b")]) == 0
    a = trace_without_wall_ms((tmp_path / "a" / "trace.csv").read_text())
    b = trace_without_wall_ms((tmp_path / "b" / "trace.csv").read_text())
    assert a == b


def test_sweep_cli(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HIVE_VQE_THREADS", "2")
    config = write_config(
        tmp_path,
        "qubits = 2\ndepth = 2\nmax_iterations = 60\n"
        "sweep.grid = 2:2\nsweep.seeds = 1, 2\n",
    )
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", config, "--out", str(out)]) == 0
    assert (out / "summary.csv").is_file()
    assert (out / "n2_L2_boa_seed1" / "trace.csv").is_file()
    assert "summary=" in capsys.readouterr().out


SWEEP_THREE_SEEDS = (
    "qubits = 2\ndepth = 2\nmax_iterations = 60\n"
    "sweep.grid = 2:2\nsweep.optimizers = boa\nsweep.seeds = 1, 2, 3\n"
)


def test_sweep_with_a_failed_cell_exits_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HIVE_VQE_THREADS", "1")
    real = harness.execute_run

    def fail_seed_two(config):
        if config.seed == 2:
            raise RuntimeError("synthetic failure")
        return real(config)

    monkeypatch.setattr(harness, "execute_run", fail_seed_two)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", write_config(tmp_path, SWEEP_THREE_SEEDS), "--out", str(out)]) == 3
    assert "1 failed" in capsys.readouterr().out
    assert (out / "summary.csv").is_file()


def test_sweep_survives_a_crashed_worker(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HIVE_VQE_THREADS", "2")
    parent = os.getpid()
    real = harness.execute_run

    def crash_on_seed_two(config):
        # Only a forked pool worker dies; were the sweep serial, the test fails instead.
        if config.seed == 2 and os.getpid() != parent:
            os._exit(1)
        return real(config)

    monkeypatch.setattr(harness, "execute_run", crash_on_seed_two)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", write_config(tmp_path, SWEEP_THREE_SEEDS), "--out", str(out)]) == 3
    cells = [out / f"n2_L2_boa_seed{seed}" for seed in (1, 2, 3)]
    failed = [cell for cell in cells if (cell / "error.txt").is_file()]
    assert cells[1] in failed
    assert "BrokenProcessPool" in (cells[1] / "error.txt").read_text()
    assert all((cell / "run.json").is_file() for cell in cells if cell not in failed)
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[1].endswith(f",{len(failed)}")
    assert f"{len(failed)} failed" in capsys.readouterr().out


def test_run_divergence_exits_three(tmp_path, capsys, monkeypatch):
    def diverge(config):
        raise DivergenceError("non-finite loss or gradient at iteration 1",
                              ConvergenceTrace([], Termination.DIVERGED))

    monkeypatch.setattr(cli, "execute_run", diverge)
    assert main(["run", "--config", write_config(tmp_path, TINY), "--out", str(tmp_path / "r")]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_diagnose_linalg_failure_exits_three(tmp_path, capsys, monkeypatch):
    def no_convergence(*args):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(harness, "hessian", no_convergence)
    config = write_config(tmp_path, TINY)
    assert main(["diagnose", "--config", config, "--out", str(tmp_path / "diag")]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_diagnose_cli(tmp_path, capsys):
    config = write_config(tmp_path, TINY)
    out = tmp_path / "diag"
    assert main(["diagnose", "--config", config, "--theta", "zeros", "--out", str(out)]) == 0
    for name in ("qfim.csv", "hessian.csv", "spectrum.txt", "theta.txt"):
        assert (out / name).is_file()
    assert "qfim_rank=" in capsys.readouterr().out


def test_diagnose_theta_file_errors(tmp_path, capsys):
    config = write_config(tmp_path, TINY)
    bad = tmp_path / "theta.txt"
    bad.write_text("0.1 0.2\n")
    out = tmp_path / "diag"
    assert main(["diagnose", "--config", config, "--theta", str(bad), "--out", str(out)]) == 2
    assert "expected 4 values" in capsys.readouterr().err
    assert not out.exists()


def test_plot_cli(tmp_path):
    config = write_config(tmp_path, TINY)
    run_dir = tmp_path / "runs"
    assert main(["run", "--config", config, "--out", str(run_dir)]) == 0
    svg_path = tmp_path / "out.svg"
    assert main([
        "plot", str(run_dir), str(run_dir / "trace.csv"),
        "--out", str(svg_path), "--target", "1e-6", "--title", "demo",
    ]) == 0
    svg = svg_path.read_text()
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 2
    assert "stroke-dasharray" in svg
    assert "demo" in svg
    assert "iteration" in svg


def test_plot_missing_trace(tmp_path, capsys):
    assert main(["plot", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "x.svg")]) == 2
    assert "not found" in capsys.readouterr().err
