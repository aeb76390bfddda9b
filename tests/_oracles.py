"""Independent dense references for the test suite.

Everything here is built from explicit Kronecker products and scipy's expm,
sharing no kernel code with the package, so agreement between the two is a
real check.  Qubit 0 is the leftmost tensor factor throughout.
"""

from __future__ import annotations

from functools import reduce

import numpy as np
from scipy.linalg import expm

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
    bonds = boundary.coupling_count(n)
    for i in range(bonds):
        pair = (i, (i + 1) % n)
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


def gather_apply(op, amplitudes: np.ndarray) -> np.ndarray:
    """Pauli sum times amplitudes, one gather and one multiply per string.

    String ``P`` maps basis state ``b`` to ``phase(b) * |b ^ flip>``; this is
    the operator's former matrix-free kernel.
    """
    n = op.n
    idx = np.arange(1 << n)
    out = np.zeros(np.shape(amplitudes), dtype=np.complex128)
    for term in op.terms:
        flip = sign_mask = 0
        for i, letter in enumerate(term.letters):
            bit = 1 << (n - 1 - i)
            if letter in "XY":
                flip |= bit
            if letter in "ZY":
                sign_mask |= bit
        src = idx ^ flip
        parity = np.array([bin(v).count("1") % 2 for v in src & sign_mask])
        phase = term.coefficient * (1j ** term.letters.count("Y")) * (1.0 - 2.0 * parity)
        out += phase * np.asarray(amplitudes)[..., src]
    return out


def sylvester_hadamard(n: int) -> np.ndarray:
    """Unnormalized H^{(x)n} as an explicit Kronecker product."""
    return kron_all([np.array([[1.0, 1.0], [1.0, -1.0]])] * n)
