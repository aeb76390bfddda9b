"""Independent dense references for the test suite.

Everything here except ``stack_qfim`` is built from explicit Kronecker
products and scipy's expm, sharing no kernel code with the package, so
agreement between the two is a real check.  ``stack_qfim`` applies the
information-matrix formula to the package's statevector derivative stack,
the reference the pair engine's QFIM is held to.  Qubit 0 is the leftmost
tensor factor throughout.
"""

from __future__ import annotations

from functools import reduce

import numpy as np
from scipy.linalg import expm

from hive_vqe.ansatz import derivative_stack
from hive_vqe.hamiltonian import Boundary

I2 = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def kron_all(ops: list[np.ndarray]) -> np.ndarray:
    return reduce(np.kron, ops)


def site_op(n: int, q: int, op: np.ndarray) -> np.ndarray:
    return kron_all([op if k == q else I2 for k in range(n)])


def dense_coupling_sum(n: int, boundary: Boundary) -> np.ndarray:
    """Sum of neighboring ZZ products, with the wraparound bond when closed."""
    total = np.zeros((2**n, 2**n), dtype=np.complex128)
    bonds = [(i, i + 1) for i in range(n - 1)]
    if boundary is Boundary.CLOSED:
        bonds.append((n - 1, 0))
    for pair in bonds:
        total += kron_all([PAULI_Z if q in pair else I2 for q in range(n)])
    return total


def dense_field_sum(n: int) -> np.ndarray:
    total = np.zeros((2**n, 2**n), dtype=np.complex128)
    for q in range(n):
        total += site_op(n, q, PAULI_X)
    return total


def dense_tfim(n: int, h: float, boundary: Boundary) -> np.ndarray:
    return -dense_coupling_sum(n, boundary) - h * dense_field_sum(n)


def dense_unitary(n: int, layers: int, theta: np.ndarray, boundary: Boundary) -> np.ndarray:
    """Full circuit unitary: per layer, the coupling exponential then the field one."""
    zz = dense_coupling_sum(n, boundary)
    x = dense_field_sum(n)
    unitary = np.eye(2**n, dtype=np.complex128)
    for layer in range(layers):
        unitary = expm(-1j * theta[2 * layer] * zz) @ unitary
        unitary = expm(-1j * theta[2 * layer + 1] * x) @ unitary
    return unitary


def plus_vec(n: int) -> np.ndarray:
    return np.full(2**n, 2.0 ** (-n / 2), dtype=np.complex128)


def butterfly_x_layer(amplitudes: np.ndarray, angle, n: int) -> np.ndarray:
    """exp(-i * angle * sum_i X_i) as one 2x2 rotation per qubit, batched.

    The field layer's former in-place kernel, kept as a reference that needs
    no dense matrix, so it reaches n = 12.
    """
    out = np.array(amplitudes, dtype=np.complex128, copy=True)
    lead = out.shape[:-1]
    c = np.asarray(np.cos(angle), dtype=np.complex128)[..., None, None]
    s = 1j * np.asarray(np.sin(angle), dtype=np.complex128)[..., None, None]
    for q in range(n):
        view = out.reshape(lead + (1 << q, 2, 1 << (n - 1 - q)))
        upper = view[..., 0, :].copy()
        view[..., 0, :] = c * upper - s * view[..., 1, :]
        view[..., 1, :] = c * view[..., 1, :] - s * upper
    return out


def sylvester_hadamard(n: int) -> np.ndarray:
    """Unnormalized H^{(x)n} as an explicit Kronecker product."""
    return kron_all([np.array([[1.0, 1.0], [1.0, -1.0]])] * n)


def state_derivative(circuit, theta, index: int) -> np.ndarray:
    """Exact derivative of the prepared amplitudes for one parameter.

    ``-i G_j`` is inserted right after factor ``j``.  The coupling sum is
    diagonal and the field exponential is one rotation per qubit, so every
    factor is exact without a matrix exponential.
    """
    n = circuit.n
    coupling = np.diag(dense_coupling_sum(n, circuit.boundary))
    field = dense_field_sum(n)
    amplitudes = plus_vec(n)
    for j, angle in enumerate(theta):
        if j % 2 == 0:
            amplitudes = np.exp(-1j * angle * coupling) * amplitudes
        else:
            rotation = np.cos(angle) * I2 - 1j * np.sin(angle) * PAULI_X
            amplitudes = kron_all([rotation] * n) @ amplitudes
        if j == index:
            amplitudes = -1j * (coupling * amplitudes if j % 2 == 0 else field @ amplitudes)
    return amplitudes


def stack_qfim(circuit, theta) -> np.ndarray:
    """``4 Re[<d_i psi|d_j psi> - <d_i psi|psi><psi|d_j psi>]`` on the derivative stack."""
    psi, derivatives = derivative_stack(circuit, theta)
    gram = derivatives.conj() @ derivatives.T
    overlaps = derivatives.conj() @ psi
    entries = 4.0 * (gram - np.outer(overlaps, overlaps.conj())).real
    return 0.5 * (entries + entries.T)
