"""Energy objective values, batching, and call counting."""

import numpy as np
import pytest

from hive_vqe.ansatz import HvaCircuit
from hive_vqe.hamiltonian import Boundary, TfimSpec, build_tfim, exact_ground_energy
from hive_vqe.loss import Objective, VqeObjective, vqe_energy, vqe_energy_batch


def setup_problem(n=4, layers=3, boundary=Boundary.CLOSED, h=1.1):
    spec = TfimSpec(n=n, h=h, boundary=boundary)
    return HvaCircuit(n=n, layers=layers, boundary=boundary), build_tfim(spec), spec


def test_energy_at_origin_is_minus_h_times_n():
    # The uniform superposition zeroes every coupling term and gives each
    # field term expectation one.
    for boundary in (Boundary.OPEN, Boundary.CLOSED):
        circuit, hamiltonian, _ = setup_problem(n=5, layers=2, boundary=boundary)
        value = vqe_energy(circuit, np.zeros(circuit.n_params), hamiltonian)
        assert value == pytest.approx(-1.1 * 5, abs=1e-12)


def test_batch_matches_scalar():
    rng = np.random.default_rng(31)
    circuit, hamiltonian, _ = setup_problem()
    thetas = rng.uniform(-np.pi, np.pi, size=(8, circuit.n_params))
    batch = vqe_energy_batch(circuit, thetas, hamiltonian)
    for k in range(8):
        assert batch[k] == pytest.approx(vqe_energy(circuit, thetas[k], hamiltonian), abs=1e-12)


def test_objective_counts_evaluations():
    circuit, hamiltonian, spec = setup_problem(n=3, layers=2)
    objective = VqeObjective(circuit, hamiltonian, reference=exact_ground_energy(spec))
    assert objective.evaluations == 0
    theta = np.zeros(circuit.n_params)
    objective.value(theta)
    assert objective.evaluations == 1
    objective.batch_values(np.zeros((7, circuit.n_params)))
    assert objective.evaluations == 8
    objective.value_and_grad(theta)
    assert objective.evaluations == 10


def test_objective_validation_and_bounds():
    circuit, hamiltonian, _ = setup_problem(n=3, layers=2)
    objective = VqeObjective(circuit, hamiltonian)
    assert objective.reference is None
    with pytest.raises(ValueError):
        objective.value(np.zeros(3))
    with pytest.raises(ValueError):
        objective.batch_values(np.zeros(4))
    with pytest.raises(ValueError):
        Objective(dim=0)


def test_value_and_grad_consistent():
    circuit, hamiltonian, spec = setup_problem(n=4, layers=2)
    objective = VqeObjective(circuit, hamiltonian, reference=exact_ground_energy(spec))
    rng = np.random.default_rng(34)
    theta = rng.uniform(-np.pi, np.pi, circuit.n_params)
    value, grad = objective.value_and_grad(theta)
    assert value == pytest.approx(objective.value(theta), abs=1e-12)
    assert grad.shape == (circuit.n_params,)


def test_variational_bound_smoke():
    circuit, hamiltonian, spec = setup_problem(n=4, layers=4)
    ground = exact_ground_energy(spec)
    rng = np.random.default_rng(35)
    thetas = rng.uniform(-np.pi, np.pi, size=(64, circuit.n_params))
    energies = vqe_energy_batch(circuit, thetas, hamiltonian)
    assert np.all(energies >= ground - 1e-10)
