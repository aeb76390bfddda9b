"""Subcommand behavior, exit codes, artifact files, and plot output."""

import json

import pytest

from hive_vqe.cli import main
from hive_vqe.harness import trace_without_wall_ms


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
