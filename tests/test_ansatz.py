"""Circuit preparation, factor ordering, derivatives, and the adjoint gradient."""

import numpy as np
import pytest

from hive_vqe.ansatz import (
    HvaCircuit,
    derivative_stack,
    energy_and_gradient,
    energy_gradient,
    prepare_amplitudes,
    prepare_state,
)
from hive_vqe.hamiltonian import Boundary, TfimSpec, build_tfim
from hive_vqe.statevector import apply_x_layer, apply_zz_layer

from _oracles import dense_unitary, plus_vec, state_derivative


def test_circuit_validation_and_param_count():
    circuit = HvaCircuit(n=4, layers=3, boundary=Boundary.CLOSED)
    assert circuit.n_params == 6
    with pytest.raises(ValueError):
        HvaCircuit(n=1, layers=1, boundary=Boundary.OPEN)
    with pytest.raises(ValueError):
        HvaCircuit(n=4, layers=0, boundary=Boundary.OPEN)
    with pytest.raises(ValueError):
        prepare_state(circuit, np.zeros(5))


def test_zero_parameters_fix_uniform_superposition():
    for boundary in (Boundary.OPEN, Boundary.CLOSED):
        circuit = HvaCircuit(n=5, layers=4, boundary=boundary)
        state = prepare_state(circuit, np.zeros(circuit.n_params))
        np.testing.assert_allclose(state.amplitudes, plus_vec(5), atol=1e-15)


def test_single_layer_order_coupling_then_field():
    circuit = HvaCircuit(n=3, layers=1, boundary=Boundary.OPEN)
    theta = np.array([0.37, -0.82])
    coupled = apply_zz_layer(plus_vec(3), 0.37, 3, Boundary.OPEN)
    manual = apply_x_layer(coupled, -0.82, 3)
    np.testing.assert_allclose(prepare_state(circuit, theta).amplitudes, manual, atol=1e-15)


def test_prepare_state_matches_dense_unitary():
    rng = np.random.default_rng(21)
    for boundary in (Boundary.OPEN, Boundary.CLOSED):
        for n, layers in ((2, 1), (3, 2), (4, 3), (5, 2)):
            circuit = HvaCircuit(n=n, layers=layers, boundary=boundary)
            for _ in range(3):
                theta = rng.uniform(-np.pi, np.pi, circuit.n_params)
                ours = prepare_state(circuit, theta).amplitudes
                ref = dense_unitary(n, layers, theta, boundary) @ plus_vec(n)
                assert np.max(np.abs(ours - ref)) < 1e-11


def test_prepare_amplitudes_batches_rows():
    rng = np.random.default_rng(23)
    for n, layers, boundary in ((4, 3, Boundary.CLOSED), (5, 2, Boundary.OPEN)):
        circuit = HvaCircuit(n=n, layers=layers, boundary=boundary)
        thetas = rng.uniform(-np.pi, np.pi, size=(6, circuit.n_params))
        kept = thetas.copy()
        rows = prepare_amplitudes(circuit, thetas)
        again = prepare_amplitudes(circuit, thetas)
        assert rows.shape == (6, 2**n)
        assert not np.shares_memory(rows, again)
        np.testing.assert_array_equal(rows, again)
        np.testing.assert_array_equal(thetas, kept)
        for k in range(6):
            np.testing.assert_allclose(
                rows[k], prepare_state(circuit, thetas[k]).amplitudes, atol=1e-13
            )


def fd_state_derivative(circuit, theta, index, step=1e-6):
    up = np.array(theta, dtype=float)
    down = np.array(theta, dtype=float)
    up[index] += step
    down[index] -= step
    return (
        prepare_state(circuit, up).amplitudes - prepare_state(circuit, down).amplitudes
    ) / (2 * step)


def test_state_derivative_matches_finite_difference():
    rng = np.random.default_rng(24)
    circuit = HvaCircuit(n=3, layers=2, boundary=Boundary.CLOSED)
    theta = rng.uniform(-1, 1, circuit.n_params)
    for index in range(circuit.n_params):
        analytic = state_derivative(circuit, theta, index)
        numeric = fd_state_derivative(circuit, theta, index)
        assert np.max(np.abs(analytic - numeric)) < 1e-8


def test_state_derivative_frozen_values_at_zero():
    for boundary, bonds in ((Boundary.OPEN, 3), (Boundary.CLOSED, 4)):
        circuit = HvaCircuit(n=4, layers=1, boundary=boundary)
        coupling_deriv = state_derivative(circuit, np.zeros(2), 0)
        assert np.vdot(coupling_deriv, coupling_deriv).real == pytest.approx(bonds, abs=1e-12)
        field_deriv = state_derivative(circuit, np.zeros(2), 1)
        np.testing.assert_allclose(field_deriv, -1j * 4 * plus_vec(4), atol=1e-14)


def test_derivative_stack_consistent():
    # The one-sweep stack against the dense parameter-by-parameter
    # derivatives; odd n has unequal halves.
    rng = np.random.default_rng(25)
    for n in (3, 4, 7):
        for boundary in (Boundary.OPEN, Boundary.CLOSED):
            circuit = HvaCircuit(n=n, layers=3, boundary=boundary)
            theta = rng.uniform(-1, 1, circuit.n_params)
            psi, stack = derivative_stack(circuit, theta)
            assert stack.shape == (6, 2**n)
            np.testing.assert_allclose(psi, prepare_state(circuit, theta).amplitudes, atol=1e-14)
            rows = [state_derivative(circuit, theta, index) for index in range(6)]
            np.testing.assert_allclose(stack, np.stack(rows), atol=1e-13)


def fd_gradient(circuit, theta, hamiltonian, step=1e-6):
    from hive_vqe.loss import vqe_energy

    grad = np.zeros_like(theta)
    for j in range(len(theta)):
        up = theta.copy()
        down = theta.copy()
        up[j] += step
        down[j] -= step
        grad[j] = (vqe_energy(circuit, up, hamiltonian) - vqe_energy(circuit, down, hamiltonian)) / (2 * step)
    return grad


def test_adjoint_gradient_matches_finite_difference():
    rng = np.random.default_rng(26)
    for boundary, n in ((Boundary.OPEN, 4), (Boundary.CLOSED, 4), (Boundary.CLOSED, 5)):
        circuit = HvaCircuit(n=n, layers=3, boundary=boundary)
        hamiltonian = build_tfim(TfimSpec(n=n, h=1.1, boundary=boundary))
        for _ in range(3):
            theta = rng.uniform(-np.pi, np.pi, circuit.n_params)
            energy, grad = energy_and_gradient(circuit, theta, hamiltonian)
            numeric = fd_gradient(circuit, theta, hamiltonian)
            scale = max(np.max(np.abs(numeric)), 1e-9)
            assert np.max(np.abs(grad - numeric)) / scale < 1e-7
            from hive_vqe.loss import vqe_energy

            assert energy == pytest.approx(vqe_energy(circuit, theta, hamiltonian), abs=1e-12)


def test_adjoint_gradient_matches_derivative_states():
    # Exact reference 2 Re <d_j psi | H | psi>.  n = 2 splits the register
    # into one-qubit halves and odd n into unequal ones.  L = 1 is the
    # shortest sweep: two factors, and the first is never inverted.
    rng = np.random.default_rng(27)
    for n in (2, 3, 6, 7):
        for boundary in (Boundary.OPEN, Boundary.CLOSED):
            hamiltonian = build_tfim(TfimSpec(n=n, h=1.1, boundary=boundary))
            dense = hamiltonian.to_dense()
            for layers in (1, 3):
                circuit = HvaCircuit(n=n, layers=layers, boundary=boundary)
                theta = rng.uniform(-np.pi, np.pi, circuit.n_params)
                psi = prepare_state(circuit, theta).amplitudes
                image = dense @ psi
                reference = np.array([
                    2.0 * np.vdot(state_derivative(circuit, theta, j), image).real
                    for j in range(circuit.n_params)
                ])
                energy, grad = energy_and_gradient(circuit, theta, hamiltonian)
                assert energy == pytest.approx(np.vdot(psi, image).real, abs=1e-12)
                assert np.max(np.abs(grad - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_gradient_exactly_zero_at_origin():
    circuit = HvaCircuit(n=4, layers=2, boundary=Boundary.CLOSED)
    hamiltonian = build_tfim(TfimSpec(n=4, h=1.1, boundary=Boundary.CLOSED))
    grad = energy_gradient(circuit, np.zeros(circuit.n_params), hamiltonian)
    np.testing.assert_allclose(grad, np.zeros_like(grad), atol=1e-13)
