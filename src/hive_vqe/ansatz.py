"""Layered alternating-exponential circuit over the chain generators.

One layer applies ``exp(-i a_l * sum Z_i Z_{i+1})`` followed by
``exp(-i b_l * sum X_i)``; the parameter vector interleaves the angles as
``(a_1, b_1, a_2, b_2, ...)`` so a depth-L circuit carries 2L parameters.
All angles at zero leave the uniform superposition untouched.

State derivatives are exact: differentiating the product inserts ``-i G``
right after the corresponding exponential factor, where ``G`` is that
factor's generator.  ``derivative_stack`` builds all P of them in one forward
sweep over a growing block of rows, each row branching off the running state
right after its factor.

Energy gradients use adjoint differentiation.  The forward pass keeps its
P + 1 intermediate states, (P + 1) * 2**n complex amplitudes (3.4 MB at
n = 12 and P = 52).  The backward pass then carries one vector, the
Hamiltonian image stepped back through the inverse factors, so a gradient
costs about two circuit applications instead of one per parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hive_vqe.hamiltonian import Boundary, PauliSum, check_qubit_count
from hive_vqe.statevector import (
    LayerBuffers,
    StateVector,
    apply_coupling_generator,
    apply_field_generator,
    apply_x_layer,
    apply_zz_layer,
    ensure_normalized,
    plus_state,
)


@dataclass(frozen=True)
class HvaCircuit:
    """Alternating coupling/field exponential circuit on an n-site chain."""

    n: int
    layers: int
    boundary: Boundary = Boundary.CLOSED

    def __post_init__(self) -> None:
        check_qubit_count(self.n)
        if self.layers < 1:
            raise ValueError(f"need at least one layer, got {self.layers}")

    @property
    def n_params(self) -> int:
        return 2 * self.layers


def _check_theta(circuit: HvaCircuit, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (circuit.n_params,):
        raise ValueError(
            f"parameter vector has shape {theta.shape}, expected ({circuit.n_params},)"
        )
    if not np.all(np.isfinite(theta)):
        raise ValueError("parameters must be finite")
    return theta


def _apply_factor(
    circuit: HvaCircuit, index: int, angle, amplitudes: np.ndarray, buffers: LayerBuffers
) -> np.ndarray:
    if index % 2 == 0:
        return apply_zz_layer(amplitudes, angle, circuit.n, circuit.boundary, buffers)
    return apply_x_layer(amplitudes, angle, circuit.n, buffers)


def _apply_generator(circuit: HvaCircuit, index: int, amplitudes: np.ndarray) -> np.ndarray:
    if index % 2 == 0:
        return apply_coupling_generator(amplitudes, circuit.n, circuit.boundary)
    return apply_field_generator(amplitudes, circuit.n)


def apply_circuit(circuit: HvaCircuit, theta, state: StateVector) -> StateVector:
    """Evolve an arbitrary input state through the full layer stack."""
    theta = _check_theta(circuit, theta)
    if state.n != circuit.n:
        raise ValueError(f"state has {state.n} qubits, circuit expects {circuit.n}")
    amps = np.array(state.amplitudes)
    buffers = LayerBuffers(amps.shape, (), circuit.n)
    for j in range(circuit.n_params):
        amps = _apply_factor(circuit, j, float(theta[j]), amps, buffers)
    return StateVector(circuit.n, ensure_normalized(amps))


def prepare_state(circuit: HvaCircuit, theta) -> StateVector:
    """Evolve the uniform superposition to the parameterized trial state."""
    return apply_circuit(circuit, theta, plus_state(circuit.n))


def prepare_amplitudes(circuit: HvaCircuit, thetas: np.ndarray) -> np.ndarray:
    """Batched trial-state amplitudes, one parameter row per output row.

    The layers update one freshly allocated batch in place, so the sweep
    allocates its batch-sized arrays once per call, not once per layer.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.ndim != 2 or thetas.shape[1] != circuit.n_params:
        raise ValueError(
            f"expected parameter rows of shape (batch, {circuit.n_params}), got {thetas.shape}"
        )
    if not np.all(np.isfinite(thetas)):
        raise ValueError("parameters must be finite")
    dim = 1 << circuit.n
    amps = np.full((thetas.shape[0], dim), 2.0 ** (-circuit.n / 2.0), dtype=np.complex128)
    buffers = LayerBuffers(amps.shape, amps.shape[:-1], circuit.n)
    for j in range(circuit.n_params):
        amps = _apply_factor(circuit, j, thetas[:, j], amps, buffers)
    return ensure_normalized(amps)


def state_derivative(
    circuit: HvaCircuit, theta, index: int, initial: StateVector | None = None
) -> StateVector:
    """Exact derivative of the prepared state for one parameter.

    The result is generally not unit norm.  ``initial`` defaults to the
    uniform superposition.
    """
    theta = _check_theta(circuit, theta)
    if not 0 <= index < circuit.n_params:
        raise ValueError(f"parameter index {index} out of range [0, {circuit.n_params})")
    start = plus_state(circuit.n) if initial is None else initial
    if start.n != circuit.n:
        raise ValueError(f"state has {start.n} qubits, circuit expects {circuit.n}")
    amps = np.array(start.amplitudes)
    buffers = LayerBuffers(amps.shape, (), circuit.n)
    for j in range(circuit.n_params):
        amps = _apply_factor(circuit, j, float(theta[j]), amps, buffers)
        if j == index:
            amps = -1j * _apply_generator(circuit, j, amps)
    return StateVector(circuit.n, amps)


def derivative_stack(
    circuit: HvaCircuit, theta, initial: StateVector | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Prepared amplitudes plus all parameter derivatives, stacked row-wise.

    One forward sweep over a ``(P + 1, 2**n)`` block.  Row 0 is the running
    state.  Factor ``j`` runs once on the leading ``j + 1`` rows with its
    shared angle, then row ``j + 1`` is set to ``-i G_j`` times row 0, so
    every row later meets the same factors as row 0.  That is P kernel calls
    on about P**2 / 2 rows in all, through one set of buffers, where the
    parameter-by-parameter form makes P**2 single-row calls.  ``initial``
    defaults to the uniform superposition.
    """
    theta = _check_theta(circuit, theta)
    start = plus_state(circuit.n) if initial is None else initial
    if start.n != circuit.n:
        raise ValueError(f"state has {start.n} qubits, circuit expects {circuit.n}")
    stack = np.empty((circuit.n_params + 1, 1 << circuit.n), dtype=np.complex128)
    stack[0] = start.amplitudes
    buffers = LayerBuffers(stack.shape, (), circuit.n)
    for j in range(circuit.n_params):
        _apply_factor(circuit, j, float(theta[j]), stack[: j + 1], buffers.leading(j + 1))
        stack[j + 1] = -1j * _apply_generator(circuit, j, stack[0])
    return ensure_normalized(stack[0]), stack[1:]


def energy_and_gradient(
    circuit: HvaCircuit, theta, hamiltonian: PauliSum
) -> tuple[float, np.ndarray]:
    """Energy and its exact parameter gradient in one adjoint sweep.

    The forward pass stores every intermediate state: ``states[j]`` is the
    state before factor ``j``, in one ``(P + 1, 2**n)`` array.  The backward
    pass carries a single vector ``lam``, which starts as ``H psi`` and is
    stepped back through the inverse factors.  Gradient entry ``j`` is
    ``2 Im <lam | G_j | states[j + 1]>``, equal to ``2 Re <d_j psi | H | psi>``,
    so no derivative state is formed and no forward state is recomputed.
    ``lam`` passes factor ``j`` only while an earlier entry still needs it.
    """
    theta = _check_theta(circuit, theta)
    if hamiltonian.n != circuit.n:
        raise ValueError(
            f"operator acts on {hamiltonian.n} qubits, circuit expects {circuit.n}"
        )
    states = np.empty((circuit.n_params + 1, 1 << circuit.n), dtype=np.complex128)
    states[0] = 2.0 ** (-circuit.n / 2.0)
    buffers = LayerBuffers(states.shape[1:], (), circuit.n)
    for j in range(circuit.n_params):
        states[j + 1] = states[j]
        _apply_factor(circuit, j, float(theta[j]), states[j + 1], buffers)
    psi = ensure_normalized(states[-1])
    lam = hamiltonian.apply(psi)
    energy = float(np.vdot(psi, lam).real)
    grad = np.empty(circuit.n_params, dtype=np.float64)
    for j in reversed(range(circuit.n_params)):
        grad[j] = 2.0 * float(np.vdot(lam, _apply_generator(circuit, j, states[j + 1])).imag)
        if j:
            lam = _apply_factor(circuit, j, -float(theta[j]), lam, buffers)
    return energy, grad


def energy_gradient(circuit: HvaCircuit, theta, hamiltonian: PauliSum) -> np.ndarray:
    """Exact energy gradient; see ``energy_and_gradient``."""
    return energy_and_gradient(circuit, theta, hamiltonian)[1]
