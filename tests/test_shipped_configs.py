"""The shipped configs' outcomes, pinned against recorded fixtures.

``configs/quickstart.cfg``, ``configs/adam_baseline.cfg`` and
``configs/grid.cfg`` are replayed in process.  The grid goes through
``run_sweep`` on one worker, so each cell runs through ``execute_run`` with
no process pool.  Seeds, iterations, evaluations, terminations and the
integer columns of ``summary.csv`` must match exactly.  Energies must match
to 1e-12 relative, room for the roundoff of a change of engine and nothing
more: the final energy of each run, and the energy ``vqe_energy`` gives at
its best parameters.

A 12x26 diagnose at a fixed random point (the theta the benchmark's
diagnose workload draws for ``--seed 701``) is held to its recorded ranks,
to its recorded information matrix within 1e-12 of the largest entry, and
to its recorded Hessian within ``HESSIAN_RTOL``.

The fixtures under ``fixtures/`` were written by ``recorded_outcomes`` below
and the diagnose's own ``qfim.csv`` and ``hessian.csv``.
"""

import csv
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from hive_vqe.config import ExperimentConfig, load_config
from hive_vqe.diagnostics import FD_STEP
from hive_vqe.harness import (
    THREADS_ENV_VAR,
    build_problem,
    cell_name,
    execute_run,
    run_diagnose,
    run_sweep,
    save_run,
)
from hive_vqe.loss import vqe_energy

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "fixtures"
ENERGY_RTOL = 1e-12
QFIM_RTOL = 1e-12
# The Hessian is a central difference of the gradient with step FD_STEP, so
# gradient roundoff of 1e-12 of the scale moves it by 1e-12 / FD_STEP.
HESSIAN_RTOL = 1e-12 / FD_STEP
DIAGNOSE_SEED = 701
# Columns of summary.csv computed from integers; the median error is a float.
SUMMARY_COLUMNS = (
    "qubits", "depth", "optimizer", "runs", "successes", "success_rate",
    "median_iterations_to_target", "errors",
)


def run_outcome(config: ExperimentConfig, run_json: Path) -> dict:
    """A run's exact outcome fields from its ``run.json``, plus its two energies."""
    payload = json.loads(run_json.read_text())
    circuit, hamiltonian, _ = build_problem(config)
    restarts = payload["restarts"]
    return {
        "seed": payload["seed"],
        "iterations": payload["iterations"],
        "evaluations": payload["evaluations"],
        "terminated_by": payload["terminated_by"],
        "reached_target": payload["reached_target"],
        "restarts": None if restarts is None else [
            [r["seed"], r["iterations"], r["reached_target"], r["diverged"]] for r in restarts
        ],
        "energies": [
            payload["final_energy"],
            vqe_energy(circuit, payload["best_parameters"], hamiltonian),
        ],
    }


def replay_run(name: str, out: Path) -> dict:
    config = load_config(ROOT / "configs" / f"{name}.cfg")
    save_run(execute_run(config), out / name)
    return run_outcome(config, out / name / "run.json")


def replay_grid(out: Path) -> dict:
    config = load_config(ROOT / "configs" / "grid.cfg")
    result = run_sweep(config, out / "grid")
    with result.summary_path.open() as handle:
        summary = [[row[column] for column in SUMMARY_COLUMNS] for row in csv.DictReader(handle)]
    cells = {}
    for qubits, depth in config.sweep_grid:
        for optimizer in config.sweep_optimizers:
            for seed in config.sweep_seeds:
                cell = replace(config, seed=seed, qubits=qubits, depth=depth, optimizer=optimizer)
                name = cell_name(qubits, depth, optimizer, seed)
                cells[name] = run_outcome(cell, out / "grid" / name / "run.json")
    return {"summary": summary, "cells": cells}


def recorded_outcomes(out: Path) -> dict:
    """Everything the fixture records for the three configs; the grid runs on one worker."""
    return {
        "quickstart": replay_run("quickstart", out),
        "adam_baseline": replay_run("adam_baseline", out),
        "grid": replay_grid(out),
    }


def diagnose_12x26(out: Path) -> dict[str, object]:
    theta = np.random.default_rng(np.random.SeedSequence([DIAGNOSE_SEED])).uniform(
        -np.pi, np.pi, 52
    )
    theta_file = out / "theta.txt"
    theta_file.write_text("\n".join(f"{x:.17g}" for x in theta) + "\n")
    return run_diagnose(ExperimentConfig(qubits=12, depth=26), str(theta_file), out / "diagnose")


def assert_same_run(found: dict, pinned: dict, label: str) -> None:
    found, pinned = dict(found), dict(pinned)
    np.testing.assert_allclose(
        found.pop("energies"), pinned.pop("energies"), rtol=ENERGY_RTOL, atol=0, err_msg=label
    )
    assert found == pinned, label


def test_shipped_configs_are_pinned(tmp_path, monkeypatch):
    monkeypatch.setenv(THREADS_ENV_VAR, "1")
    pinned = json.loads((FIXTURES / "shipped_configs.json").read_text())
    found = recorded_outcomes(tmp_path)
    assert found["quickstart"]["iterations"] == 52
    assert found["adam_baseline"]["seed"] == 6844389187657447401
    assert found["adam_baseline"]["iterations"] == 123
    for name in ("quickstart", "adam_baseline"):
        assert_same_run(found[name], pinned[name], name)
    assert found["grid"]["summary"] == pinned["grid"]["summary"]
    assert [row[3:5] for row in found["grid"]["summary"]] == [["5", "5"]] * 4
    assert [row[6] for row in found["grid"]["summary"]] == ["52", "68", "98", "142"]
    assert found["grid"]["cells"].keys() == pinned["grid"]["cells"].keys()
    for name, cell in found["grid"]["cells"].items():
        assert_same_run(cell, pinned["grid"]["cells"][name], name)


def test_diagnose_12x26_is_pinned(tmp_path):
    report = diagnose_12x26(tmp_path)
    assert (report["qfim_rank"], report["hessian_rank"]) == (12, 52)
    for name, rtol in (("qfim", QFIM_RTOL), ("hessian", HESSIAN_RTOL)):
        pinned = np.loadtxt(FIXTURES / f"diagnose_12x26_{name}.csv", delimiter=",")
        found = np.loadtxt(tmp_path / "diagnose" / f"{name}.csv", delimiter=",")
        assert found.shape == pinned.shape == (52, 52)
        scale = float(np.abs(pinned).max())
        assert float(np.abs(found - pinned).max()) <= rtol * scale, name

