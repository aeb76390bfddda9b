"""Layered alternating-exponential circuit over the chain generators.

One layer applies ``exp(-i a_l * sum Z_i Z_{i+1})`` followed by
``exp(-i b_l * sum X_i)``; the parameter vector interleaves the angles as
``(a_1, b_1, a_2, b_2, ...)`` so a depth-L circuit carries 2L parameters.
All angles at zero leave the uniform superposition untouched.

Engines: ``_on_pairs`` is the one place that picks one, and it refuses an
operator on another chain than the circuit's.  A closed chain, which every
shipped config and benchmark workload uses, runs on the momentum pair states
of ``freefermion``: energies, the gradient and the information matrix come
from one forward scan with no backward pass, at O(L n) work per row.  An
open chain runs on the statevector, here.

The statevector derivatives are exact as well: differentiating the product
inserts ``-i G`` right after the corresponding exponential factor, where
``G`` is that factor's generator.  ``derivative_stack`` builds all P of them
in one forward sweep over a growing block of rows, each row branching off
the running state right after its factor; an open chain's information matrix
takes the stack.  An open chain's gradient uses adjoint differentiation.
The forward pass keeps its P + 1 intermediate states, (P + 1) * 2**n complex
amplitudes (3.4 MB at n = 12 and P = 52).  The backward pass then carries
one vector, the Hamiltonian image stepped back through the inverse factors,
so a gradient costs about two circuit applications instead of one per
parameter.  ``prepare_state``, ``prepare_amplitudes`` and
``derivative_stack`` are statevector only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hive_vqe import freefermion
from hive_vqe.hamiltonian import Boundary, PauliSum, check_qubit_count
from hive_vqe.statevector import (
    StateVector,
    apply_coupling_generator,
    apply_field_generator,
    apply_x_layer,
    apply_zz_layer,
    ensure_normalized,
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


def _apply_factor(circuit: HvaCircuit, index: int, angle, amplitudes: np.ndarray) -> np.ndarray:
    if index % 2 == 0:
        return apply_zz_layer(amplitudes, angle, circuit.n, circuit.boundary)
    return apply_x_layer(amplitudes, angle, circuit.n)


def _apply_generator(circuit: HvaCircuit, index: int, amplitudes: np.ndarray) -> np.ndarray:
    if index % 2 == 0:
        return apply_coupling_generator(amplitudes, circuit.n, circuit.boundary)
    return apply_field_generator(amplitudes, circuit.n)


def _on_pairs(circuit: HvaCircuit, hamiltonian: PauliSum | None = None) -> bool:
    """Whether the circuit runs on the momentum pairs of ``freefermion``.

    A closed chain does and an open chain runs on the statevector.  An
    operator on another chain than the circuit's is refused.
    """
    spec = None if hamiltonian is None else hamiltonian.spec
    if spec is not None and (spec.n, spec.boundary) != (circuit.n, circuit.boundary):
        raise ValueError(
            f"operator acts on the {spec.boundary.value} chain of {spec.n} sites, "
            f"circuit on the {circuit.boundary.value} chain of {circuit.n}"
        )
    return circuit.boundary is Boundary.CLOSED


def prepare_state(circuit: HvaCircuit, theta) -> StateVector:
    """Evolve the uniform superposition to the parameterized trial state."""
    return StateVector(circuit.n, prepare_amplitudes(circuit, _check_theta(circuit, theta)[None])[0])


def check_parameter_rows(circuit: HvaCircuit, thetas) -> np.ndarray:
    """Parameter rows as a finite float array of shape ``(batch, P)``."""
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.ndim != 2 or thetas.shape[1] != circuit.n_params:
        raise ValueError(
            f"expected parameter rows of shape (batch, {circuit.n_params}), got {thetas.shape}"
        )
    if not np.all(np.isfinite(thetas)):
        raise ValueError("parameters must be finite")
    return thetas


def prepare_amplitudes(circuit: HvaCircuit, thetas: np.ndarray) -> np.ndarray:
    """Batched trial-state amplitudes, one parameter row per output row."""
    thetas = check_parameter_rows(circuit, thetas)
    dim = 1 << circuit.n
    amps = np.full((thetas.shape[0], dim), 2.0 ** (-circuit.n / 2.0), dtype=np.complex128)
    for j in range(circuit.n_params):
        amps = _apply_factor(circuit, j, thetas[:, j], amps)
    return ensure_normalized(amps)


def derivative_stack(circuit: HvaCircuit, theta) -> tuple[np.ndarray, np.ndarray]:
    """Prepared amplitudes plus all parameter derivatives, stacked row-wise.

    One forward sweep over a ``(P + 1, 2**n)`` block.  Row 0 is the running
    state.  Factor ``j`` runs once on the leading ``j + 1`` rows with its
    shared angle, then row ``j + 1`` is set to ``-i G_j`` times row 0, so
    every row later meets the same factors as row 0.  That is P kernel calls
    on about P**2 / 2 rows in all, where the parameter-by-parameter form
    makes P**2 single-row calls.
    """
    theta = _check_theta(circuit, theta)
    stack = np.empty((circuit.n_params + 1, 1 << circuit.n), dtype=np.complex128)
    stack[0] = 2.0 ** (-circuit.n / 2.0)
    for j in range(circuit.n_params):
        stack[: j + 1] = _apply_factor(circuit, j, float(theta[j]), stack[: j + 1])
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
    if _on_pairs(circuit, hamiltonian):
        return freefermion.energy_and_gradient(hamiltonian.spec, theta)
    states = np.empty((circuit.n_params + 1, 1 << circuit.n), dtype=np.complex128)
    states[0] = 2.0 ** (-circuit.n / 2.0)
    for j in range(circuit.n_params):
        states[j + 1] = _apply_factor(circuit, j, float(theta[j]), states[j])
    psi = ensure_normalized(states[-1])
    lam = hamiltonian.apply(psi)
    energy = float(np.vdot(psi, lam).real)
    grad = np.empty(circuit.n_params, dtype=np.float64)
    for j in reversed(range(circuit.n_params)):
        grad[j] = 2.0 * float(np.vdot(lam, _apply_generator(circuit, j, states[j + 1])).imag)
        if j:
            lam = _apply_factor(circuit, j, -float(theta[j]), lam)
    return energy, grad


def energy_gradient(circuit: HvaCircuit, theta, hamiltonian: PauliSum) -> np.ndarray:
    """Exact energy gradient; see ``energy_and_gradient``."""
    return energy_and_gradient(circuit, theta, hamiltonian)[1]
