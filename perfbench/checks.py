"""Output checks for each operation, and the independent diagnostic reference.

Every check returns a list of failure messages; an operation with any message
counts as failed.  The reference simulator below shares no code with the
package: it diagonalizes the field layer in the Hadamard basis (fast
Walsh-Hadamard transform) instead of the package's per-qubit rotations, and
builds its bond table from popcounts.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

TARGET = 1e-6
VARIATIONAL_SLACK = 1e-9
# Rounding slack on a stored energy that was compared with the target
# before it was rounded to 15 significant digits.
STORED_ENERGY_SLACK = 1e-12
SWARM_SCOUT_EVALUATIONS = 10
SWARM_CYCLE_EVALUATIONS = 60

# Generic ranks at 12 spins, 26 layers, closed chain, h = 1.1, recorded at
# the commit that introduced this benchmark; every random parameter point
# tried gave these (the QFIM rank saturates at the algebra's dimension).
DIAGNOSE_RANKS = {(12, 26): {"qfim": 12, "hessian": 52}}
# Reference tolerances, relative to the largest matrix entry.  The reference
# uses central differences of exact states with step 1e-4, whose truncation
# error is below 1e-6 of the scale at these sizes.
QFIM_TOLERANCE = 1e-5
HESSIAN_DIAGONAL_TOLERANCE = 1e-4
FD_STEP = 1e-4
SPECTRUM_TOLERANCE = 1e-9


def _popcount(values: np.ndarray) -> np.ndarray:
    counts = np.zeros_like(values)
    while np.any(values):
        counts += values & 1
        values = values >> 1
    return counts


@functools.lru_cache(maxsize=None)
def _sylvester(bits: int) -> np.ndarray:
    index = np.arange(1 << bits)
    signs = 1 - 2 * (_popcount(index[:, None] & index[None, :]) & 1)
    return (signs / np.sqrt(1 << bits)).astype(np.complex128)


def _walsh_hadamard(amps: np.ndarray) -> np.ndarray:
    """Normalized Walsh-Hadamard transform on the last axis (its own inverse).

    ``W(2^n) = W(2^k) kron W(2^(n-k))``, applied as two matrix products on an
    ``(rows, 2^k, 2^(n-k))`` view.
    """
    n = amps.shape[-1].bit_length() - 1
    high = n // 2
    grid = amps.reshape(amps.shape[:-1] + (1 << high, 1 << (n - high)))
    return (_sylvester(high) @ grid @ _sylvester(n - high)).reshape(amps.shape)


class ReferenceChain:
    """Closed TFIM chain and layered circuit in two diagonal bases."""

    def __init__(self, n: int, h: float):
        basis = np.arange(1 << n)
        rotated = ((basis << 1) | (basis >> (n - 1))) & ((1 << n) - 1)
        self.n = n
        self.h = h
        self.bonds = (n - 2 * _popcount(basis ^ rotated)).astype(np.float64)
        self.fields = (n - 2 * _popcount(basis)).astype(np.float64)

    def states(self, thetas: np.ndarray) -> np.ndarray:
        amps = np.full((len(thetas), 1 << self.n), 2.0 ** (-self.n / 2), dtype=np.complex128)
        for j in range(thetas.shape[1]):
            angle = thetas[:, j, None]
            if j % 2 == 0:
                amps = amps * np.exp(-1j * angle * self.bonds)
            else:
                amps = _walsh_hadamard(_walsh_hadamard(amps) * np.exp(-1j * angle * self.fields))
        return amps

    def energies(self, amps: np.ndarray) -> np.ndarray:
        coupling = -np.abs(amps) ** 2 @ self.bonds
        field = -self.h * (np.abs(_walsh_hadamard(amps)) ** 2 @ self.fields)
        return coupling + field

    def qfim_and_hessian_diagonal(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """QFIM and the energy Hessian's diagonal, by central differences."""
        dim = len(theta)
        shifts = np.vstack([theta, theta + FD_STEP * np.eye(dim), theta - FD_STEP * np.eye(dim)])
        amps = self.states(shifts)
        energies = self.energies(amps)
        psi, plus, minus = amps[0], amps[1 : dim + 1], amps[dim + 1 :]
        derivs = (plus - minus) / (2 * FD_STEP)
        overlaps = derivs.conj() @ psi
        qfim = 4.0 * (derivs.conj() @ derivs.T - np.outer(overlaps, overlaps.conj())).real
        diagonal = (energies[1 : dim + 1] - 2 * energies[0] + energies[dim + 1 :]) / FD_STEP**2
        return 0.5 * (qfim + qfim.T), diagonal


def check_run(out: Path, child: dict, ground_energy: float, optimizer: str,
              restarts: int, needs_target: bool) -> list[str]:
    """Checks for one ``hive-vqe run``: target, variational bound, accounting, round trip."""
    from hive_vqe.harness import read_trace_csv

    errors = []
    expected_codes = (0,) if needs_target else (0, 4)
    if child["exit_code"] not in expected_codes:
        errors.append(f"exit code {child['exit_code']}, expected {expected_codes}")
    run = json.loads((out / "run.json").read_text())
    saved = [
        [r.iteration, r.best_energy, r.abs_error, r.evaluations, r.wall_ms]
        for r in read_trace_csv(out / "trace.csv")
    ]
    traces = [t["records"] for t in child["traces"]]
    if len(traces) != restarts:
        errors.append(f"{len(traces)} optimizer runs, expected {restarts}")
    if saved not in traces:
        errors.append("trace.csv does not round-trip to a returned trace")
    if not saved or run["iterations"] != saved[-1][0] or run["evaluations"] != saved[-1][3]:
        errors.append("run.json iterations/evaluations disagree with trace.csv")
    if abs(run["ground_energy"] - ground_energy) > 1e-12:
        errors.append(f"run.json ground energy {run['ground_energy']} != oracle {ground_energy}")
    if needs_target:
        error = abs(saved[-1][1] - ground_energy) if saved else float("inf")
        if not run["reached_target"] or error > TARGET + STORED_ENERGY_SLACK:
            errors.append(f"target missed: abs_error {error:.3e}")
    for records in traces:
        lowest = min((r[1] for r in records), default=float("inf"))
        if lowest < ground_energy - VARIATIONAL_SLACK:
            errors.append(f"energy {lowest!r} below the ground energy {ground_energy!r}")
        for iteration, _, _, evaluations, _ in records:
            if optimizer == "boa":
                expected = SWARM_SCOUT_EVALUATIONS + SWARM_CYCLE_EVALUATIONS * iteration
            else:
                expected = 2 * iteration
            if evaluations != expected:
                errors.append(f"iteration {iteration}: {evaluations} evaluations, expected {expected}")
                break
    return errors


def _read_matrix(path: Path) -> np.ndarray:
    return np.array([[float(x) for x in line.split(",")] for line in path.read_text().split()])


def _read_spectrum(path: Path) -> dict[str, dict[str, object]]:
    sections: dict[str, dict[str, object]] = {}
    current: dict[str, object] = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if line.startswith("[") and line.endswith("]"):
            current = {"eigenvalues": []}
            sections[line[1:-1]] = current
        elif line.startswith("rank:") and current:
            current["rank"] = int(line.split(":")[1])
        elif current and line and ":" not in line:
            current["eigenvalues"].append(float(line))
    return sections


def check_diagnose(out: Path, theta: np.ndarray, qubits: int, depth: int,
                   reference: tuple[np.ndarray, np.ndarray]) -> list[str]:
    """Checks for the outputs of one ``hive-vqe diagnose``.

    ``reference`` is ``ReferenceChain.qfim_and_hessian_diagonal(theta)``.
    """
    errors = []
    written = np.array([float(x) for x in (out / "theta.txt").read_text().split()])
    if not np.array_equal(written, theta):
        errors.append("theta.txt differs from the input parameters")
    qfim = _read_matrix(out / "qfim.csv")
    hess = _read_matrix(out / "hessian.csv")
    spectrum = _read_spectrum(out / "spectrum.txt")
    ranks = DIAGNOSE_RANKS[(qubits, depth)]
    for name, matrix in (("qfim", qfim), ("hessian", hess)):
        section = spectrum.get(name, {})
        if section.get("rank") != ranks[name]:
            errors.append(f"{name} rank {section.get('rank')}, recorded {ranks[name]}")
        eigs = np.linalg.eigvalsh(matrix)
        listed = np.array(section.get("eigenvalues", []))
        scale = max(1.0, float(np.abs(eigs).max()))
        if listed.shape != eigs.shape or np.abs(listed - eigs).max() > SPECTRUM_TOLERANCE * scale:
            errors.append(f"{name} spectrum.txt disagrees with {name}.csv")
    expected, diagonal = reference
    scale = max(1.0, float(np.abs(expected).max()))
    deviation = float(np.abs(qfim - expected).max()) / scale
    if deviation > QFIM_TOLERANCE:
        errors.append(f"QFIM deviates from the reference by {deviation:.2e} of its scale")
    scale = max(1.0, float(np.abs(diagonal).max()))
    deviation = float(np.abs(np.diag(hess) - diagonal).max()) / scale
    if deviation > HESSIAN_DIAGONAL_TOLERANCE:
        errors.append(f"Hessian diagonal deviates from the reference by {deviation:.2e}")
    return errors
