"""Geometry and curvature: information matrix, distances, Hessians, spectra."""

import numpy as np
import pytest

from hive_vqe import diagnostics
from hive_vqe.ansatz import HvaCircuit, prepare_state
from hive_vqe.diagnostics import (
    HessianMatrix,
    QfimMatrix,
    fubini_study_distance,
    hessian,
    hessian_from_gradient,
    qfim,
    spectrum_report,
)
from hive_vqe.hamiltonian import Boundary, TfimSpec, build_tfim
from hive_vqe.loss import vqe_energy
from hive_vqe.statevector import StateVector

from _oracles import plus_vec, stack_qfim


def fd_state_derivatives(circuit, theta, step=1e-5):
    rows = []
    for j in range(circuit.n_params):
        up = np.array(theta, dtype=float)
        down = np.array(theta, dtype=float)
        up[j] += step
        down[j] -= step
        rows.append(
            (prepare_state(circuit, up).amplitudes - prepare_state(circuit, down).amplitudes)
            / (2 * step)
        )
    return np.stack(rows)


def fd_qfim(circuit, theta, step=1e-5):
    """Finite-difference information matrix, independent of the analytic stack."""
    psi = prepare_state(circuit, theta).amplitudes
    derivs = fd_state_derivatives(circuit, theta, step)
    m = circuit.n_params
    gram = np.empty((m, m), dtype=np.complex128)
    for i in range(m):
        for j in range(m):
            gram[i, j] = np.vdot(derivs[i], derivs[j])
    overlaps = np.array([np.vdot(psi, derivs[j]) for j in range(m)])
    return 4.0 * (gram - np.outer(np.conj(overlaps), overlaps)).real


def test_distance_frozen_endpoints():
    a = StateVector(3, plus_vec(3))
    assert fubini_study_distance(a, a) == pytest.approx(0.0, abs=1e-15)
    e0 = np.zeros(8, dtype=np.complex128)
    e0[0] = 1.0
    e1 = np.zeros(8, dtype=np.complex128)
    e1[1] = 1.0
    assert fubini_study_distance(StateVector(3, e0), StateVector(3, e1)) == pytest.approx(2.0)
    # Phase never matters.
    assert fubini_study_distance(a, StateVector(3, np.exp(0.7j) * a.amplitudes)) == pytest.approx(
        0.0, abs=1e-12
    )
    with pytest.raises(ValueError, match="different qubit counts"):
        fubini_study_distance(a, StateVector(2, plus_vec(2)))


def test_qfim_matches_finite_difference_oracle():
    rng = np.random.default_rng(51)
    circuit = HvaCircuit(n=3, layers=2, boundary=Boundary.CLOSED)
    for _ in range(3):
        theta = rng.uniform(-np.pi, np.pi, circuit.n_params)
        analytic = qfim(circuit, theta).entries
        numeric = fd_qfim(circuit, theta)
        assert np.max(np.abs(analytic - numeric)) < 1e-6


def test_qfim_frozen_values_at_origin_single_layer():
    for boundary, bonds in ((Boundary.OPEN, 3), (Boundary.CLOSED, 4)):
        circuit = HvaCircuit(n=4, layers=1, boundary=boundary)
        matrix = qfim(circuit, np.zeros(2)).entries
        np.testing.assert_allclose(matrix, np.diag([4.0 * bonds, 0.0]), atol=1e-12)


def test_qfim_contract_symmetry_and_floor():
    rng = np.random.default_rng(52)
    circuit = HvaCircuit(n=4, layers=4, boundary=Boundary.CLOSED)
    theta = rng.uniform(-np.pi, np.pi, circuit.n_params)
    info = qfim(circuit, theta)
    assert np.max(np.abs(info.entries - info.entries.T)) <= 1e-9
    assert float(np.min(info.eigenvalues)) >= -1e-8


def test_distance_quadratic_consistency():
    rng = np.random.default_rng(53)
    circuit = HvaCircuit(n=3, layers=2, boundary=Boundary.CLOSED)
    theta = rng.uniform(-np.pi, np.pi, circuit.n_params)
    info = qfim(circuit, theta).entries
    base = prepare_state(circuit, theta)
    for _ in range(5):
        direction = rng.normal(size=circuit.n_params)
        delta = 1e-3 * direction / np.linalg.norm(direction)
        moved = prepare_state(circuit, theta + delta)
        distance = fubini_study_distance(base, moved)
        quadratic = 0.5 * float(delta @ info @ delta)
        assert abs(distance - quadratic) <= 1e-7


def test_qfim_matrix_validation():
    with pytest.raises(ValueError):
        QfimMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        QfimMatrix(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        QfimMatrix(np.zeros((2, 3)))


def test_planted_quadratic_recovered():
    rng = np.random.default_rng(54)
    raw = rng.normal(size=(5, 5))
    planted = raw + raw.T
    recovered = hessian_from_gradient(lambda t: 2.0 * planted @ t, np.zeros(5), fd_step=1e-4)
    np.testing.assert_allclose(recovered, 2.0 * planted, atol=1e-6)


def test_energy_hessian_matches_double_finite_difference():
    rng = np.random.default_rng(55)
    circuit = HvaCircuit(n=3, layers=2, boundary=Boundary.CLOSED)
    hamiltonian = build_tfim(TfimSpec(n=3, h=1.1, boundary=Boundary.CLOSED))
    theta = rng.uniform(-np.pi, np.pi, circuit.n_params)
    result = hessian(circuit, theta, hamiltonian)

    # Step balances truncation (grows as step^2) against roundoff in the
    # fourth-order difference (shrinks as 1/step^2).
    step = 3e-4
    m = circuit.n_params
    double_fd = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            pp = theta.copy(); pp[i] += step; pp[j] += step
            pm = theta.copy(); pm[i] += step; pm[j] -= step
            mp = theta.copy(); mp[i] -= step; mp[j] += step
            mm = theta.copy(); mm[i] -= step; mm[j] -= step
            double_fd[i, j] = (
                vqe_energy(circuit, pp, hamiltonian)
                - vqe_energy(circuit, pm, hamiltonian)
                - vqe_energy(circuit, mp, hamiltonian)
                + vqe_energy(circuit, mm, hamiltonian)
            ) / (4 * step**2)
    assert np.max(np.abs(result.entries - double_fd)) < 1e-4


def test_hessian_raw_rows_nearly_symmetric():
    rng = np.random.default_rng(56)
    circuit = HvaCircuit(n=3, layers=3, boundary=Boundary.OPEN)
    hamiltonian = build_tfim(TfimSpec(n=3, h=1.1, boundary=Boundary.OPEN))
    theta = rng.uniform(-np.pi, np.pi, circuit.n_params)

    from hive_vqe.ansatz import energy_gradient

    raw = hessian_from_gradient(
        lambda t: energy_gradient(circuit, t, hamiltonian), theta, fd_step=1e-4
    )
    assert np.max(np.abs(raw - raw.T)) <= 1e-5
    wrapped = hessian(circuit, theta, hamiltonian)
    np.testing.assert_allclose(wrapped.entries, wrapped.entries.T, atol=1e-15)


def test_hessian_matrix_validation():
    with pytest.raises(ValueError):
        HessianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_spectrum_report_and_rank():
    report = spectrum_report(QfimMatrix(np.diag([16.0, 0.0])))
    assert report.rank == 1
    assert report.zero_count == 1
    assert list(report.eigenvalues) == [0.0, 16.0]

    zero = spectrum_report(QfimMatrix(np.zeros((3, 3))))
    assert zero.rank == 0
    assert zero.zero_count == 3

    rng = np.random.default_rng(57)
    circuit = HvaCircuit(n=3, layers=1, boundary=Boundary.CLOSED)
    info = qfim(circuit, rng.uniform(-1, 1, 2))
    wrapped = spectrum_report(info)
    assert wrapped.rank + wrapped.zero_count == 2


@pytest.mark.parametrize("layers", [1, 3, 8, 26])
@pytest.mark.parametrize("n", range(2, 13))
def test_pair_qfim_matches_statevector(n, layers):
    circuit = HvaCircuit(n=n, layers=layers, boundary=Boundary.CLOSED)
    rng = np.random.default_rng(100 * n + layers)
    for theta in (np.zeros(circuit.n_params), rng.uniform(-np.pi, np.pi, circuit.n_params)):
        pairs = qfim(circuit, theta).entries
        reference = stack_qfim(circuit, theta)
        assert np.abs(pairs - reference).max() <= 1e-12 * np.abs(reference).max()


def test_qfim_dispatch(monkeypatch):
    rng = np.random.default_rng(58)
    circuit = HvaCircuit(n=5, layers=3, boundary=Boundary.OPEN)
    theta = rng.uniform(-np.pi, np.pi, circuit.n_params)
    np.testing.assert_array_equal(qfim(circuit, theta).entries, stack_qfim(circuit, theta))

    def refuse(*args, **kwargs):
        raise AssertionError("derivative stack on the closed chain")

    monkeypatch.setattr(diagnostics, "derivative_stack", refuse)
    for n in (2, 7, 12):
        circuit = HvaCircuit(n=n, layers=4, boundary=Boundary.CLOSED)
        assert spectrum_report(qfim(circuit, rng.uniform(-1, 1, 8))).rank <= 2 * (n // 2)


def test_qfim_input_errors_match_on_both_engines():
    for theta, message in (
        (np.zeros(3), r"shape \(3,\), expected \(4,\)"),
        (np.zeros((1, 4)), r"shape \(1, 4\), expected \(4,\)"),
        ([0.1, np.nan, 0.0, 0.2], "must be finite"),
        ([0.1, 0.0, np.inf, 0.2], "must be finite"),
    ):
        for boundary in Boundary:
            with pytest.raises(ValueError, match=message):
                qfim(HvaCircuit(n=4, layers=2, boundary=boundary), theta)


@pytest.mark.parametrize("n", range(2, 9))
def test_qfim_rank_law(n):
    """At depth 3n the rank saturates at 2 (n // 2) closed, n**2 // 2 open."""
    rng = np.random.default_rng(60 + n)
    for boundary, law in ((Boundary.CLOSED, 2 * (n // 2)), (Boundary.OPEN, n * n // 2)):
        circuit = HvaCircuit(n=n, layers=3 * n, boundary=boundary)
        theta = rng.uniform(-np.pi, np.pi, circuit.n_params)
        for entries in (qfim(circuit, theta).entries, stack_qfim(circuit, theta)):
            assert spectrum_report(QfimMatrix(entries)).rank == law
