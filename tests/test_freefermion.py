"""The momentum pseudo-spin engine against the statevector, and the engine seam."""

import hashlib

import numpy as np
import pytest

from hive_vqe import ansatz, diagnostics, freefermion, loss
from hive_vqe.ansatz import HvaCircuit, energy_and_gradient, prepare_amplitudes
from hive_vqe.hamiltonian import Boundary, TfimSpec, build_tfim, exact_ground_energy
from hive_vqe.loss import VqeObjective, vqe_energy, vqe_energy_batch
from hive_vqe.optimizers import AdamConfig, BoaConfig, Termination, run_optimization

RTOL = 1e-12


def statevector_energies(circuit, thetas, hamiltonian):
    return hamiltonian.expectation(prepare_amplitudes(circuit, thetas))


@pytest.mark.parametrize("layers", [1, 3, 8, 26])
@pytest.mark.parametrize("h", [0.0, 1.1, -0.7])
@pytest.mark.parametrize("n", range(2, 13))
def test_engine_matches_statevector(n, h, layers, monkeypatch):
    circuit = HvaCircuit(n=n, layers=layers)
    hamiltonian = build_tfim(TfimSpec(n=n, h=h, boundary=Boundary.CLOSED))
    assert ansatz._on_pairs(circuit, hamiltonian)
    rng = np.random.default_rng(10 * n + layers)
    thetas = rng.uniform(-np.pi, np.pi, size=(5, circuit.n_params))

    energies = vqe_energy_batch(circuit, thetas, hamiltonian)
    reference = statevector_energies(circuit, thetas, hamiltonian)
    np.testing.assert_allclose(energies, reference, rtol=RTOL, atol=RTOL * n)
    gradients = [energy_and_gradient(circuit, theta, hamiltonian) for theta in thetas[:2]]
    monkeypatch.setattr(ansatz, "_on_pairs", lambda circuit, hamiltonian=None: False)
    for theta, (energy, grad) in zip(thetas, gradients):
        ref_energy, ref_grad = energy_and_gradient(circuit, theta, hamiltonian)
        assert energy == pytest.approx(ref_energy, rel=RTOL, abs=RTOL * n)
        scale = max(1.0, float(np.abs(ref_grad).max()))
        assert float(np.abs(grad - ref_grad).max()) <= RTOL * scale


def test_engine_skips_the_statevector(monkeypatch):
    def refuse(*args):
        raise AssertionError("statevector sweep on the closed chain")

    monkeypatch.setattr(loss, "prepare_amplitudes", refuse)
    circuit = HvaCircuit(n=6, layers=2)
    hamiltonian = build_tfim(TfimSpec(n=6, h=1.1))
    energies = vqe_energy_batch(circuit, np.zeros((3, 4)), hamiltonian)
    np.testing.assert_allclose(energies, -6.6, rtol=RTOL)
    assert vqe_energy(circuit, np.zeros(4), hamiltonian) == pytest.approx(-6.6, rel=RTOL)
    objective = VqeObjective(circuit, hamiltonian)
    assert objective.value(np.zeros(4)) == pytest.approx(-6.6, rel=RTOL)


@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("h", [0.0, 1.1, -0.7])
@pytest.mark.parametrize("n", [2, 3, 6])
def test_tfim_recognition(n, h, boundary):
    """The operator carries its spec; the seam picks the pairs exactly for a closed chain."""
    spec = TfimSpec(n=n, h=h, boundary=boundary)
    hamiltonian = build_tfim(spec)
    assert hamiltonian.spec == spec
    for circuit_boundary in Boundary:
        circuit = HvaCircuit(n=n, layers=2, boundary=circuit_boundary)
        if circuit_boundary is boundary:
            assert ansatz._on_pairs(circuit, hamiltonian) is (boundary is Boundary.CLOSED)
            assert ansatz._on_pairs(circuit) is (boundary is Boundary.CLOSED)
        else:
            with pytest.raises(ValueError, match="operator acts on"):
                ansatz._on_pairs(circuit, hamiltonian)


@pytest.mark.parametrize(
    "circuit_boundary, spec",
    [
        (Boundary.CLOSED, TfimSpec(n=5, h=1.1, boundary=Boundary.CLOSED)),
        (Boundary.CLOSED, TfimSpec(n=4, h=1.1, boundary=Boundary.OPEN)),
        (Boundary.OPEN, TfimSpec(n=4, h=1.1, boundary=Boundary.CLOSED)),
        (Boundary.OPEN, TfimSpec(n=3, h=1.1, boundary=Boundary.OPEN)),
    ],
)
def test_a_mismatched_operator_is_refused(circuit_boundary, spec):
    """Every entry that pairs a circuit with an operator refuses another chain, in one message."""
    circuit = HvaCircuit(n=4, layers=3, boundary=circuit_boundary)
    hamiltonian = build_tfim(spec)
    message = (
        f"operator acts on the {spec.boundary.value} chain of {spec.n} sites, "
        f"circuit on the {circuit_boundary.value} chain of 4"
    )
    theta = np.zeros(circuit.n_params)
    calls = [
        lambda: vqe_energy(circuit, theta, hamiltonian),
        lambda: vqe_energy_batch(circuit, theta[None], hamiltonian),
        lambda: energy_and_gradient(circuit, theta, hamiltonian),
        lambda: VqeObjective(circuit, hamiltonian),
        lambda: diagnostics.hessian(circuit, theta, hamiltonian),
    ]
    for call in calls:
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == message


@pytest.mark.parametrize(
    "thetas",
    [np.zeros((3, 5)), np.zeros(6), np.array([[0.0] * 5 + [np.nan]]), np.full((2, 6), np.inf)],
)
def test_engine_keeps_the_input_checks(thetas):
    circuit = HvaCircuit(n=4, layers=3)
    hamiltonian = build_tfim(TfimSpec(n=4, h=1.1))
    with pytest.raises(ValueError) as expected:
        prepare_amplitudes(circuit, thetas)
    with pytest.raises(ValueError) as raised:
        vqe_energy_batch(circuit, thetas, hamiltonian)
    assert str(raised.value) == str(expected.value)


def test_gradient_keeps_the_input_checks():
    circuit = HvaCircuit(n=4, layers=3)
    hamiltonian = build_tfim(TfimSpec(n=4, h=1.1))
    with pytest.raises(ValueError, match="shape"):
        energy_and_gradient(circuit, np.zeros(5), hamiltonian)
    with pytest.raises(ValueError, match="finite"):
        energy_and_gradient(circuit, np.full(6, np.nan), hamiltonian)


def test_chain_constants_are_shared_and_read_only():
    spec = TfimSpec(n=6, h=1.1)
    constants = [
        *freefermion._momenta(6),
        freefermion._hamiltonian(spec),
    ]
    assert freefermion._hamiltonian(TfimSpec(n=6, h=1.1)) is constants[2]
    for array in constants:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_pair_engine_swarm_run_is_pinned():
    """6x10 closed chain, h = 1.1, seed 1: the swarm's whole run, bit for bit."""
    spec = TfimSpec(n=6, h=1.1, boundary=Boundary.CLOSED)
    objective = VqeObjective(
        HvaCircuit(n=6, layers=10), build_tfim(spec), reference=exact_ground_energy(spec)
    )
    trace = run_optimization(objective, BoaConfig(), seed=1, max_iterations=300, target=1e-6)
    assert trace.reached_target
    assert (trace.iterations, trace.records[-1].evaluations) == (66, 3970)
    assert trace.records[-1].best_energy == -8.13450463915409
    digest = hashlib.sha256(trace.best_parameters.tobytes()).hexdigest()
    assert digest == "0a953aa3aa16c89041652b98d9f6a8140f4632c7e4635b90f6ee32132ded9b0a"


def test_pair_engine_adam_run_is_pinned():
    """6x10 closed chain, h = 1.1, seed 1: Adam's whole run on the pair gradients."""
    spec = TfimSpec(n=6, h=1.1, boundary=Boundary.CLOSED)
    objective = VqeObjective(
        HvaCircuit(n=6, layers=10), build_tfim(spec), reference=exact_ground_energy(spec)
    )
    trace = run_optimization(objective, AdamConfig(), seed=1, max_iterations=300, target=1e-6)
    assert trace.terminated_by is Termination.TARGET_REACHED
    assert (trace.iterations, trace.records[-1].evaluations) == (154, 308)
    assert trace.records[-1].best_energy == pytest.approx(-8.13450472132746, rel=RTOL, abs=0)


@pytest.mark.parametrize(
    "method, evaluations, energy",
    [(BoaConfig(), 18010, -5.08761308783809), (AdamConfig(), 600, -5.08642119381044)],
)
def test_open_chain_run_is_pinned(method, evaluations, energy):
    """4x4 open chain, h = 1.1, seed 1: a whole run on the statevector engine."""
    spec = TfimSpec(n=4, h=1.1, boundary=Boundary.OPEN)
    objective = VqeObjective(
        HvaCircuit(n=4, layers=4, boundary=Boundary.OPEN), build_tfim(spec),
        reference=exact_ground_energy(spec),
    )
    trace = run_optimization(objective, method, seed=1, max_iterations=300, target=1e-6)
    assert trace.terminated_by is Termination.MAX_ITERATIONS
    assert (trace.iterations, trace.records[-1].evaluations) == (300, evaluations)
    assert trace.records[-1].best_energy == pytest.approx(energy, rel=RTOL, abs=0)
