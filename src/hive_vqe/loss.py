"""Objective functions over circuit parameters, with evaluation accounting.

The energy objective is the expectation of the chain Hamiltonian in the
prepared trial state.  The weighted training-set loss generalizes it to any
collection of input states, weights, and a shared measured observable; with
the uniform superposition, weight one, and the Hamiltonian as observable it
reduces to the energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hive_vqe.ansatz import (
    HvaCircuit,
    apply_circuit,
    energy_and_gradient,
    prepare_amplitudes,
    prepare_state,
)
from hive_vqe.hamiltonian import PauliSum
from hive_vqe.statevector import StateVector, expectation


def vqe_energy(circuit: HvaCircuit, theta, hamiltonian: PauliSum) -> float:
    """Energy of the prepared trial state."""
    return expectation(prepare_state(circuit, theta), hamiltonian)


def vqe_energy_batch(circuit: HvaCircuit, thetas: np.ndarray, hamiltonian: PauliSum) -> np.ndarray:
    """Energies for a batch of parameter rows in one vectorized pass."""
    if hamiltonian.n != circuit.n:
        raise ValueError(
            f"operator acts on {hamiltonian.n} qubits, circuit expects {circuit.n}"
        )
    amps = prepare_amplitudes(circuit, thetas)
    return hamiltonian.expectation(amps)


@dataclass(frozen=True)
class TrainingSet:
    """Weighted input states sharing one measured observable."""

    entries: tuple[tuple[StateVector, float], ...]
    observable: PauliSum

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("training set needs at least one entry")
        for state, weight in self.entries:
            if state.n != self.observable.n:
                raise ValueError(
                    f"entry acts on {state.n} qubits, observable on {self.observable.n}"
                )
            if not np.isfinite(weight):
                raise ValueError("entry weights must be finite")


def training_set_loss(circuit: HvaCircuit, theta, training_set: TrainingSet) -> float:
    """Weighted sum of evolved-state expectations over the training set."""
    if training_set.observable.n != circuit.n:
        raise ValueError(
            f"observable acts on {training_set.observable.n} qubits, circuit expects {circuit.n}"
        )
    total = 0.0
    for state, weight in training_set.entries:
        total += weight * expectation(apply_circuit(circuit, theta, state), training_set.observable)
    return float(total)


class Objective:
    """Objective with bounds, an optional reference optimum, and call counting.

    ``value`` and ``batch_values`` count one evaluation per parameter row;
    ``value_and_grad`` counts two, one forward pass plus one adjoint sweep.
    Subclasses implement the underscore hooks.
    """

    def __init__(self, dim: int, bounds: tuple[float, float] = (-np.pi, np.pi),
                 reference: float | None = None):
        if dim < 1:
            raise ValueError(f"objective dimension must be positive, got {dim}")
        low, high = float(bounds[0]), float(bounds[1])
        if not low < high:
            raise ValueError(f"invalid bounds ({low}, {high})")
        self.dim = int(dim)
        self.bounds = (low, high)
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
        if hamiltonian.n != circuit.n:
            raise ValueError(
                f"operator acts on {hamiltonian.n} qubits, circuit expects {circuit.n}"
            )
        super().__init__(circuit.n_params, reference=reference)
        self.circuit = circuit
        self.hamiltonian = hamiltonian

    def _value(self, theta: np.ndarray) -> float:
        return vqe_energy(self.circuit, theta, self.hamiltonian)

    def _batch_values(self, thetas: np.ndarray) -> np.ndarray:
        return vqe_energy_batch(self.circuit, thetas, self.hamiltonian)

    def _value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        return energy_and_gradient(self.circuit, theta, self.hamiltonian)
