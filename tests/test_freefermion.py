"""The momentum pseudo-spin engine against the statevector, and its dispatch."""

import numpy as np
import pytest

from hive_vqe import freefermion, loss
from hive_vqe.ansatz import HvaCircuit, energy_and_gradient, prepare_amplitudes
from hive_vqe.freefermion import closed_chain_spec
from hive_vqe.hamiltonian import Boundary, PauliString, PauliSum, TfimSpec, build_tfim
from hive_vqe.loss import vqe_energy_batch

RTOL = 1e-12


def statevector_energies(circuit, thetas, hamiltonian):
    return hamiltonian.expectation(prepare_amplitudes(circuit, thetas))


def reordered(hamiltonian):
    """The same operator with its terms reversed."""
    return PauliSum(hamiltonian.n, hamiltonian.terms[::-1])


@pytest.mark.parametrize("layers", [1, 3])
@pytest.mark.parametrize("h", [0.0, 1.1, -0.7])
@pytest.mark.parametrize("n", range(2, 13))
def test_engine_matches_statevector(n, h, layers, monkeypatch):
    spec = TfimSpec(n=n, h=h, boundary=Boundary.CLOSED)
    circuit = HvaCircuit(n=n, layers=layers)
    hamiltonian = build_tfim(spec)
    assert closed_chain_spec(circuit, hamiltonian) == spec
    rng = np.random.default_rng(10 * n + layers)
    thetas = rng.uniform(-np.pi, np.pi, size=(5, circuit.n_params))

    energies = vqe_energy_batch(circuit, thetas, hamiltonian)
    gradients = [energy_and_gradient(circuit, theta, hamiltonian) for theta in thetas[:2]]

    monkeypatch.setattr(freefermion, "closed_chain_spec", lambda circuit, hamiltonian: None)
    reference = vqe_energy_batch(circuit, thetas, hamiltonian)
    np.testing.assert_array_equal(reference, statevector_energies(circuit, thetas, hamiltonian))
    np.testing.assert_allclose(energies, reference, rtol=RTOL, atol=RTOL * n)
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


@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("h", [0.0, 1.1, -0.7])
@pytest.mark.parametrize("n", [2, 3, 6])
def test_tfim_recognition(n, h, boundary):
    spec = TfimSpec(n=n, h=h, boundary=boundary)
    hamiltonian = build_tfim(spec)
    assert hamiltonian.tfim_spec == spec
    extra = PauliString(0.5, "Y" + "I" * (n - 1))
    assert PauliSum(n, hamiltonian.terms + (extra,)).tfim_spec is None


@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("h", [0.0, 1.1])
def test_reordered_terms_are_not_recognized(h, boundary):
    hamiltonian = build_tfim(TfimSpec(n=4, h=h, boundary=boundary))
    assert reordered(hamiltonian).tfim_spec is None


def test_recognition_rejects_other_weights():
    terms = build_tfim(TfimSpec(n=4, h=1.1)).terms
    scaled = (PauliString(-2.0, terms[0].letters),) + terms[1:]
    assert PauliSum(4, scaled).tfim_spec is None
    mixed = terms[:-1] + (PauliString(-0.3, terms[-1].letters),)
    assert PauliSum(4, mixed).tfim_spec is None
    assert PauliSum(1, (PauliString(-1.0, "X"),)).tfim_spec is None


@pytest.mark.parametrize(
    "circuit_boundary, hamiltonian",
    [
        (Boundary.OPEN, build_tfim(TfimSpec(n=5, h=1.1, boundary=Boundary.OPEN))),
        (Boundary.OPEN, build_tfim(TfimSpec(n=5, h=1.1, boundary=Boundary.CLOSED))),
        (Boundary.CLOSED, build_tfim(TfimSpec(n=5, h=1.1, boundary=Boundary.OPEN))),
        (Boundary.CLOSED, reordered(build_tfim(TfimSpec(n=5, h=1.1)))),
        (Boundary.CLOSED, PauliSum(5, (PauliString(0.7, "XYZIX"), PauliString(-1.0, "ZZIII")))),
    ],
)
def test_other_problems_keep_the_statevector(circuit_boundary, hamiltonian):
    circuit = HvaCircuit(n=5, layers=3, boundary=circuit_boundary)
    assert closed_chain_spec(circuit, hamiltonian) is None
    thetas = np.random.default_rng(5).uniform(-np.pi, np.pi, size=(4, circuit.n_params))
    energies = vqe_energy_batch(circuit, thetas, hamiltonian)
    assert np.array_equal(energies, statevector_energies(circuit, thetas, hamiltonian))


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
