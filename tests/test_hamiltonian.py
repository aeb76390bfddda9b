"""Operator construction, matrix-free application, and exact ground energies."""

import time

import numpy as np
import pytest

from hive_vqe.hamiltonian import (
    MAX_QUBITS,
    Boundary,
    PauliString,
    PauliSum,
    TfimSpec,
    build_tfim,
    exact_ground_energy,
    walsh_hadamard,
)

from _oracles import (
    dense_coupling_sum,
    dense_field_sum,
    dense_tfim,
    gather_apply,
    sylvester_hadamard,
)


def test_boundary_parse_and_coupling_count():
    assert Boundary.parse("open") is Boundary.OPEN
    assert Boundary.parse(" Closed ") is Boundary.CLOSED
    assert Boundary.OPEN.coupling_count(5) == 4
    assert Boundary.CLOSED.coupling_count(5) == 5
    with pytest.raises(ValueError, match="boundary"):
        Boundary.parse("ring")


def test_pauli_string_validation():
    with pytest.raises(ValueError):
        PauliString(1.0, "XQ")
    with pytest.raises(ValueError):
        PauliString(float("nan"), "XX")
    s = PauliString(-2.0, "ZIZ")
    assert s.matrix().shape == (8, 8)


def test_pauli_string_matrix_frozen_values():
    # Z on qubit 0 of two: diag(1, 1, -1, -1) with the leftmost-factor convention.
    z0 = PauliString(1.0, "ZI").matrix()
    assert np.array_equal(np.diag(z0), np.array([1, 1, -1, -1], dtype=np.complex128))
    x1 = PauliString(1.0, "IX").matrix()
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[1, 0] = expected[2, 3] = expected[3, 2] = 1.0
    assert np.array_equal(x1, expected.astype(np.complex128))


def test_pauli_sum_drops_zero_terms_and_validates():
    op = PauliSum(2, (PauliString(0.0, "XX"), PauliString(1.5, "ZZ")))
    assert len(op.terms) == 1
    with pytest.raises(ValueError):
        PauliSum(2, (PauliString(1.0, "XXX"),))


def test_apply_matches_dense_matvec():
    rng = np.random.default_rng(11)
    letters = "IXYZ"
    for n in (2, 3, 5):
        terms = []
        for _ in range(6):
            word = "".join(rng.choice(list(letters)) for _ in range(n))
            terms.append(PauliString(float(rng.normal()), word))
        op = PauliSum(n, tuple(terms))
        dense = op.to_dense()
        for _ in range(4):
            vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            np.testing.assert_allclose(op.apply(vec), dense @ vec, atol=1e-12)
            np.testing.assert_allclose(op.apply(vec), gather_apply(op, vec), atol=1e-12)
            assert op.expectation(vec) == pytest.approx((vec.conj() @ dense @ vec).real, abs=1e-11)


def test_apply_batched_rows():
    rng = np.random.default_rng(3)
    op = build_tfim(TfimSpec(n=3, h=1.1, boundary=Boundary.CLOSED))
    batch = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
    out = op.apply(batch)
    for row_in, row_out in zip(batch, out):
        np.testing.assert_allclose(op.apply(row_in), row_out, atol=1e-13)


def test_build_tfim_term_counts_and_coefficients():
    open_op = build_tfim(TfimSpec(n=4, h=1.1, boundary=Boundary.OPEN))
    closed_op = build_tfim(TfimSpec(n=4, h=1.1, boundary=Boundary.CLOSED))
    assert len(open_op.terms) == 3 + 4
    assert len(closed_op.terms) == 4 + 4
    for term in open_op.terms:
        assert term.coefficient in (-1.0, -1.1)
    zero_field = build_tfim(TfimSpec(n=4, h=0.0, boundary=Boundary.OPEN))
    assert len(zero_field.terms) == 3


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
