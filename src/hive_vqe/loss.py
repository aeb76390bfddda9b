"""Objective functions over circuit parameters, with evaluation accounting.

The energy objective is the expectation of the chain Hamiltonian in the
prepared trial state.  Both optimizers draw their starting points from
``PARAMETER_BOUNDS``, and the swarm keeps its foragers inside it.

Engines: ``vqe_energy_batch``, the swarm's call, and ``energy_and_gradient``,
Adam's, run on the momentum pair engine of ``freefermion`` for a closed
chain and on the statevector for an open one (``ansatz._on_pairs``).
``vqe_energy`` is one row of ``vqe_energy_batch``.  An operator on another
chain than the circuit's is refused.
"""

from __future__ import annotations

import numpy as np

from hive_vqe import freefermion
from hive_vqe.ansatz import (
    HvaCircuit,
    _check_theta,
    _on_pairs,
    check_parameter_rows,
    energy_and_gradient,
    prepare_amplitudes,
)
from hive_vqe.hamiltonian import PauliSum

PARAMETER_BOUNDS = (-np.pi, np.pi)


def vqe_energy(circuit: HvaCircuit, theta, hamiltonian: PauliSum) -> float:
    """Energy of the prepared trial state, one row of ``vqe_energy_batch``."""
    return float(vqe_energy_batch(circuit, _check_theta(circuit, theta)[None], hamiltonian)[0])


def vqe_energy_batch(circuit: HvaCircuit, thetas: np.ndarray, hamiltonian: PauliSum) -> np.ndarray:
    """Energies for a batch of parameter rows in one vectorized pass.

    The pass runs on pair states for a closed chain, else on the batched
    statevector.
    """
    if _on_pairs(circuit, hamiltonian):
        return freefermion.batch_energies(hamiltonian.spec, check_parameter_rows(circuit, thetas))
    return hamiltonian.expectation(prepare_amplitudes(circuit, thetas))


class Objective:
    """Objective with an optional reference optimum and call counting.

    ``value`` and ``batch_values`` count one evaluation per parameter row;
    ``value_and_grad`` counts two, for an energy and its gradient.
    Subclasses implement the underscore hooks.
    """

    def __init__(self, dim: int, reference: float | None = None):
        if dim < 1:
            raise ValueError(f"objective dimension must be positive, got {dim}")
        self.dim = int(dim)
        self.reference = None if reference is None else float(reference)
        self.evaluations = 0

    def value(self, theta) -> float:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.dim,):
            raise ValueError(f"expected shape ({self.dim},), got {theta.shape}")
        self.evaluations += 1
        return float(self._value(theta))

    def batch_values(self, thetas) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=np.float64)
        if thetas.ndim != 2 or thetas.shape[1] != self.dim:
            raise ValueError(f"expected shape (batch, {self.dim}), got {thetas.shape}")
        self.evaluations += thetas.shape[0]
        return np.asarray(self._batch_values(thetas), dtype=np.float64)

    def value_and_grad(self, theta) -> tuple[float, np.ndarray]:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.dim,):
            raise ValueError(f"expected shape ({self.dim},), got {theta.shape}")
        self.evaluations += 2
        val, grad = self._value_and_grad(theta)
        return float(val), np.asarray(grad, dtype=np.float64)

    def _value(self, theta: np.ndarray) -> float:
        raise NotImplementedError

    def _batch_values(self, thetas: np.ndarray) -> np.ndarray:
        return np.array([self._value(t) for t in thetas])

    def _value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        raise NotImplementedError("this objective does not provide gradients")


class VqeObjective(Objective):
    """Counted energy objective for one circuit and Hamiltonian."""

    def __init__(self, circuit: HvaCircuit, hamiltonian: PauliSum,
                 reference: float | None = None):
        _on_pairs(circuit, hamiltonian)  # refuses an operator on another chain
        super().__init__(circuit.n_params, reference=reference)
        self.circuit = circuit
        self.hamiltonian = hamiltonian

    def _value(self, theta: np.ndarray) -> float:
        return vqe_energy(self.circuit, theta, self.hamiltonian)

    def _batch_values(self, thetas: np.ndarray) -> np.ndarray:
        return vqe_energy_batch(self.circuit, thetas, self.hamiltonian)

    def _value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        return energy_and_gradient(self.circuit, theta, self.hamiltonian)
