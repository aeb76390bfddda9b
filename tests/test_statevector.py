"""Layer kernels against dense exponentials, plus state-container contracts."""

import numpy as np
import pytest
from scipy.linalg import expm

from hive_vqe.hamiltonian import Boundary, TfimSpec, build_tfim
from hive_vqe.statevector import (
    StateVector,
    apply_coupling_generator,
    apply_field_generator,
    apply_x_layer,
    apply_zz_layer,
    ensure_normalized,
    renormalization_count,
)

from _oracles import butterfly_x_layer, dense_coupling_sum, dense_field_sum, plus_vec


def random_state(rng, n):
    vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return vec / np.linalg.norm(vec)


def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector(2, np.zeros(3, dtype=np.complex128))
    with pytest.raises(ValueError):
        StateVector(2, np.array([np.nan, 0, 0, 0], dtype=np.complex128))
    state = StateVector(2, plus_vec(2))
    with pytest.raises(ValueError):
        StateVector(1, np.ones(2, dtype=np.complex128))
    assert not state.amplitudes.flags.writeable


def test_zz_layer_matches_dense_exponential():
    rng = np.random.default_rng(7)
    for boundary in (Boundary.OPEN, Boundary.CLOSED):
        for n in (2, 3, 5):
            generator = dense_coupling_sum(n, boundary)
            for _ in range(3):
                angle = float(rng.uniform(-np.pi, np.pi))
                vec = random_state(rng, n)
                ours = apply_zz_layer(vec, angle, n, boundary)
                ref = expm(-1j * angle * generator) @ vec
                np.testing.assert_allclose(ours, ref, atol=1e-12)


def test_x_layer_matches_dense_exponential():
    # Odd n splits the register into halves of unequal size.
    rng = np.random.default_rng(8)
    for n in (2, 3, 4, 5, 7):
        generator = dense_field_sum(n)
        for _ in range(3):
            angle = float(rng.uniform(-np.pi, np.pi))
            vec = random_state(rng, n)
            ours = apply_x_layer(vec, angle, n)
            ref = expm(-1j * angle * generator) @ vec
            np.testing.assert_allclose(ours, ref, atol=1e-12)


def test_layers_broadcast_over_batches():
    rng = np.random.default_rng(9)
    n = 4
    angles = rng.uniform(-1, 1, size=5)
    batch = np.stack([random_state(rng, n) for _ in range(5)])
    zz_rows = apply_zz_layer(batch, angles, n, Boundary.CLOSED)
    x_rows = apply_x_layer(batch, angles, n)
    # One angle shared by every row, and the generator, broadcast too.
    shared_rows = apply_x_layer(batch, 0.7, n)
    field_rows = apply_field_generator(batch, n)
    for k in range(5):
        np.testing.assert_allclose(
            zz_rows[k], apply_zz_layer(batch[k], float(angles[k]), n, Boundary.CLOSED),
            atol=1e-13,
        )
        np.testing.assert_allclose(
            x_rows[k], apply_x_layer(batch[k], float(angles[k]), n), atol=1e-13
        )
        np.testing.assert_allclose(shared_rows[k], apply_x_layer(batch[k], 0.7, n), atol=1e-13)
        np.testing.assert_allclose(field_rows[k], dense_field_sum(n) @ batch[k], atol=1e-13)
    # Strided and Fortran-ordered inputs are left as they were, and give
    # the same rows as a C-contiguous copy.
    wide = np.stack([random_state(rng, n) for _ in range(6)])
    angles = rng.uniform(-1, 1, size=3)
    reference = apply_x_layer(
        apply_zz_layer(wide[::2].copy(), angles, n, Boundary.CLOSED), angles, n
    )
    for source in (wide[::2], np.asfortranarray(wide[::2])):
        before = source.copy()
        out = apply_x_layer(apply_zz_layer(source, angles, n, Boundary.CLOSED), angles, n)
        np.testing.assert_array_equal(out, reference)
        np.testing.assert_array_equal(source, before)
    # Beyond the reach of expm, against the per-qubit rotation reference.
    for n in (9, 10, 11, 12):
        angles = rng.uniform(-np.pi, np.pi, size=3)
        batch = np.stack([random_state(rng, n) for _ in range(3)])
        np.testing.assert_allclose(
            apply_x_layer(batch, angles, n), butterfly_x_layer(batch, angles, n), atol=1e-13
        )


def test_layers_preserve_norm():
    rng = np.random.default_rng(10)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        vec = random_state(rng, n)
        vec = apply_zz_layer(vec, float(rng.uniform(-3, 3)), n, Boundary.CLOSED)
        vec = apply_x_layer(vec, float(rng.uniform(-3, 3)), n)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12


def test_generator_actions_match_dense():
    rng = np.random.default_rng(12)
    for n in (3, 4, 5, 7):
        vec = random_state(rng, n)
        for boundary in (Boundary.OPEN, Boundary.CLOSED):
            ref = dense_coupling_sum(n, boundary) @ vec
            np.testing.assert_allclose(apply_coupling_generator(vec, n, boundary), ref, atol=1e-13)
        np.testing.assert_allclose(
            apply_field_generator(vec, n), dense_field_sum(n) @ vec, atol=1e-13
        )


def test_ensure_normalized_counts_repairs():
    before = renormalization_count()
    clean = plus_vec(3)
    np.testing.assert_array_equal(ensure_normalized(clean), clean)
    assert renormalization_count() == before
    drifted = clean * (1.0 + 1e-4)
    repaired = ensure_normalized(drifted)
    assert abs(np.linalg.norm(repaired) - 1.0) < 1e-14
    assert renormalization_count() == before + 1
    # Row by row over a strided batch: only the drifted row is repaired.
    rows = ensure_normalized(np.stack([clean, clean, drifted, clean])[::2])
    np.testing.assert_array_equal(rows[0], clean)
    np.testing.assert_allclose(rows[1], repaired, atol=1e-16)
    assert renormalization_count() == before + 2


def test_expectation_and_inner_product():
    rng = np.random.default_rng(13)
    spec = TfimSpec(n=3, h=1.1, boundary=Boundary.CLOSED)
    op = build_tfim(spec)
    vec = random_state(rng, 3)
    ref = float((vec.conj() @ (op.to_dense() @ vec)).real)
    assert op.expectation(StateVector(3, vec).amplitudes) == pytest.approx(ref, abs=1e-12)


def test_basis_convention_qubit0_most_significant():
    # Index 2 = binary 10 on two qubits: qubit 0 reads 1, qubit 1 reads 0.
    vec = np.zeros(4, dtype=np.complex128)
    vec[2] = 1.0
    coupled = apply_coupling_generator(vec, 2, Boundary.OPEN)
    np.testing.assert_array_equal(coupled, -vec)
