"""Operator construction, matrix-free application, and exact ground energies."""

import time

import numpy as np
import pytest

from hive_vqe import hamiltonian
from hive_vqe.hamiltonian import (
    MAX_QUBITS,
    Boundary,
    TfimSpec,
    build_tfim,
    exact_ground_energy,
    walsh_hadamard,
)

from _oracles import (
    dense_coupling_sum,
    dense_field_sum,
    dense_tfim,
    sylvester_hadamard,
)


def test_boundary_parse_and_coupling_count():
    assert Boundary.parse("open") is Boundary.OPEN
    assert Boundary.parse(" Closed ") is Boundary.CLOSED
    # All spins up: every bond contributes -1 to the zero-field operator.
    for boundary, bonds in ((Boundary.OPEN, 4), (Boundary.CLOSED, 5)):
        dense = build_tfim(TfimSpec(n=5, h=0.0, boundary=boundary)).to_dense()
        assert dense[0, 0] == -bonds
    with pytest.raises(ValueError, match="boundary"):
        Boundary.parse("ring")


def test_pauli_sum_drops_zero_terms_and_validates(monkeypatch):
    # At h = 0 the field part is skipped: no Hadamard transform runs.
    spec = TfimSpec(n=3, h=0.0, boundary=Boundary.OPEN)
    op = build_tfim(spec)
    assert op.spec == spec and op.n == 3

    def refuse(amplitudes):
        raise AssertionError("field part evaluated at h = 0")

    monkeypatch.setattr(hamiltonian, "walsh_hadamard", refuse)
    vec = np.arange(8.0) + 1j
    np.testing.assert_array_equal(op.apply(vec), np.diag(op.to_dense()) * vec)
    assert op.expectation(vec) == pytest.approx((vec.conj() @ op.to_dense() @ vec).real, rel=1e-14)
    # The operator is validated through its spec.
    with pytest.raises(ValueError):
        build_tfim(TfimSpec(n=1, h=1.0, boundary=Boundary.OPEN))


def test_apply_matches_dense_matvec():
    rng = np.random.default_rng(11)
    for n in (2, 3, 5):
        for boundary in Boundary:
            op = build_tfim(TfimSpec(n=n, h=float(rng.normal()), boundary=boundary))
            dense = op.to_dense()
            for _ in range(4):
                vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
                np.testing.assert_allclose(op.apply(vec), dense @ vec, atol=1e-12)
                assert op.expectation(vec) == pytest.approx(
                    (vec.conj() @ dense @ vec).real, abs=1e-11
                )


def test_apply_batched_rows():
    rng = np.random.default_rng(3)
    op = build_tfim(TfimSpec(n=3, h=1.1, boundary=Boundary.CLOSED))
    batch = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
    out = op.apply(batch)
    for row_in, row_out in zip(batch, out):
        np.testing.assert_allclose(op.apply(row_in), row_out, atol=1e-13)


def test_build_tfim_term_counts_and_coefficients():
    # Bonds weigh -1 on the diagonal; each field term puts -h on the entries
    # that flip one spin, and nothing else is off the diagonal.
    flips = np.array([[bin(b ^ c).count("1") == 1 for c in range(16)] for b in range(16)])
    for boundary, bonds in ((Boundary.OPEN, 3), (Boundary.CLOSED, 4)):
        for h in (1.1, 0.0):
            op = build_tfim(TfimSpec(n=4, h=h, boundary=boundary))
            dense = op.to_dense()
            assert dense[0, 0] == dense[15, 15] == -bonds
            off_diagonal = dense - np.diag(np.diag(dense))
            np.testing.assert_array_equal(off_diagonal, np.where(flips, -h, 0.0))


def test_build_tfim_matches_dense_reference():
    # n = 2 closed counts its one bond twice (ZZ coefficient -2); h = 0 leaves
    # no field strings, so nothing is diagonal in the Hadamard basis.
    rng = np.random.default_rng(14)
    for boundary in (Boundary.OPEN, Boundary.CLOSED):
        for n in (2, 3, 4, 5):
            for h in (1.1, 0.0, -0.7):
                op = build_tfim(TfimSpec(n=n, h=h, boundary=boundary))
                ref = dense_tfim(n, h, boundary)
                np.testing.assert_allclose(op.to_dense(), ref, atol=1e-14)
                batch = rng.normal(size=(3, 2**n)) + 1j * rng.normal(size=(3, 2**n))
                np.testing.assert_allclose(op.apply(batch), batch @ ref.T, atol=1e-12)
                np.testing.assert_allclose(
                    op.expectation(batch),
                    np.einsum("bi,ij,bj->b", batch.conj(), ref, batch).real,
                    atol=1e-12,
                )


def test_walsh_hadamard_matches_kronecker_product():
    rng = np.random.default_rng(15)
    for n in (1, 2, 3, 4, 5, 7):
        ref = sylvester_hadamard(n)
        batch = rng.normal(size=(2, 3, 2**n)) + 1j * rng.normal(size=(2, 3, 2**n))
        np.testing.assert_allclose(walsh_hadamard(batch), batch @ ref, atol=1e-12)
        np.testing.assert_allclose(walsh_hadamard(batch[0, 0]), ref @ batch[0, 0], atol=1e-12)
    with pytest.raises(ValueError, match="2\\*\\*n"):
        walsh_hadamard(np.ones(6))


def test_ground_energy_two_site_closed_form():
    # Single bond plus two fields diagonalizes to -sqrt(1 + 4 h^2).
    start = time.perf_counter()
    value = exact_ground_energy(TfimSpec(n=2, h=1.1, boundary=Boundary.OPEN))
    assert abs(value - (-np.sqrt(5.84))) < 1e-12
    assert time.perf_counter() - start < 1.0


def test_ground_energy_zero_field_is_bond_count():
    for n in range(2, 7):
        open_value = exact_ground_energy(TfimSpec(n=n, h=0.0, boundary=Boundary.OPEN))
        assert open_value == pytest.approx(-(n - 1), abs=1e-12)
    closed_value = exact_ground_energy(TfimSpec(n=4, h=0.0, boundary=Boundary.CLOSED))
    assert closed_value == pytest.approx(-4.0, abs=1e-12)


def test_ground_energy_matches_dense_eigensolver():
    # The free-fermion closed form against diagonalizing the dense matrix,
    # across the critical point h = 1, a negative field and zero field.
    # The matrix is real, so its real part is diagonalized.
    for n in range(2, 11):
        field = dense_field_sum(n).real
        for boundary in (Boundary.OPEN, Boundary.CLOSED):
            coupling = dense_coupling_sum(n, boundary).real
            for h in (0.0, 0.3, 1.0, 1.1, -0.7, 2.5):
                value = exact_ground_energy(TfimSpec(n=n, h=h, boundary=boundary))
                ref = np.linalg.eigvalsh(-coupling - h * field)[0]
                assert value == pytest.approx(float(ref), abs=1e-12), (n, h, boundary)


@pytest.mark.parametrize(
    "n, h, boundary, dense_value",
    [
        # Smallest eigenvalues of the dense matrices from numpy's eigvalsh.
        (11, 1.1, Boundary.CLOSED, -14.803602963599271),
        (12, 1.1, Boundary.CLOSED, -16.142048984858974),
        (11, 1.1, Boundary.OPEN, -14.484399831280719),
        (12, 1.1, Boundary.OPEN, -15.827165077269324),
        (11, -0.7, Boundary.CLOSED, -12.39772919796425),
        (12, -0.7, Boundary.CLOSED, -13.523686903200282),
        (11, -0.7, Boundary.OPEN, -11.668652308236664),
        (12, -0.7, Boundary.OPEN, -12.7926160298358),
    ],
)
def test_ground_energy_matches_recorded_dense_values(n, h, boundary, dense_value):
    value = exact_ground_energy(TfimSpec(n=n, h=h, boundary=boundary))
    assert value == pytest.approx(dense_value, abs=1e-12)


def test_ground_energy_qubit_cap():
    with pytest.raises(ValueError, match="12 qubits"):
        exact_ground_energy(TfimSpec(n=MAX_QUBITS + 1, h=1.0, boundary=Boundary.CLOSED))


def test_dense_size_guard():
    op = build_tfim(TfimSpec(n=MAX_QUBITS + 1, h=1.0, boundary=Boundary.OPEN))
    with pytest.raises(ValueError, match="12 qubits"):
        op.to_dense()


def test_spec_validation():
    with pytest.raises(ValueError):
        TfimSpec(n=1, h=1.0, boundary=Boundary.OPEN)
    with pytest.raises(ValueError):
        TfimSpec(n=4, h=float("inf"), boundary=Boundary.OPEN)
