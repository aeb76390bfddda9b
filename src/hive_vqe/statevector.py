"""Dense complex statevector engine for chains of 2 to 12 qubits.

Each circuit generator is diagonal in a known basis, so no matrix
exponential is ever formed.  The coupling sum ``sum Z_i Z_{i+1}`` is diagonal
in the computational basis: its layer multiplies each amplitude by a phase
drawn from a precomputed integer table of summed bond eigenvalues.  The field
sum ``sum X_i`` is diagonal in the Hadamard basis, and both that basis and
the diagonal split over the first ``k = n // 2`` qubits and the rest.  So the
transform, phase and transform of the field layer fold into one small matrix
per half, ``exp(-i a sum X) = R^(x)k (x) R^(x)(n-k)`` with
``R = exp(-i a X)``, and the layer is two complex matrix products on a
``(2**k, 2**(n-k))`` view of the amplitudes.  An entry of ``R^(x)k`` depends
only on the Hamming distance of its indices, so the ``k + 1`` distinct
values are computed and gathered.  Every kernel accepts leading batch axes
(one parameter row per batch row), which is what makes population-based
optimization cheap.  Given ``LayerBuffers``, the two layer kernels update
the amplitudes in place and allocate nothing of the batch's size, so a
sweep over many layers reuses the same few arrays; without them, a kernel
updates a fresh copy and leaves its input as it was.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass

import numpy as np

from hive_vqe.hamiltonian import Boundary, PauliSum, check_qubit_count

NORM_DRIFT_TOLERANCE = 1e-8

_renormalizations = 0


@dataclass(frozen=True)
class StateVector:
    """Amplitudes of an n-qubit state in the fixed basis ordering.

    Instances are treated as immutable; operations return fresh vectors.
    Derivative vectors are represented by the same type and are deliberately
    not forced to unit norm.
    """

    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        check_qubit_count(self.n)
        amps = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        if amps.shape != (1 << self.n,):
            raise ValueError(
                f"expected {1 << self.n} amplitudes for n={self.n}, got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


def plus_state(n: int) -> StateVector:
    """Uniform superposition, the shared circuit input."""
    check_qubit_count(n)
    return StateVector(n, np.full(1 << n, 2.0 ** (-n / 2.0), dtype=np.complex128))


@functools.lru_cache(maxsize=None)
def _zz_structure(n: int, boundary: Boundary) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer table of summed bond eigenvalues, plus gather helpers.

    Returns ``(table, gather_index, k_values)`` where ``table[b]`` is the sum
    of ``z_i z_{i+1}`` over all bonds for basis state ``b`` and
    ``k_values[gather_index] == table``.
    """
    check_qubit_count(n)
    idx = np.arange(1 << n)
    bits = (idx[:, None] >> np.arange(n - 1, -1, -1)) & 1
    z = 1 - 2 * bits
    pairs = [(i, i + 1) for i in range(n - 1)]
    if boundary is Boundary.CLOSED:
        pairs.append((n - 1, 0))
    table = np.zeros(1 << n, dtype=np.int64)
    for a, b in pairs:
        table += z[:, a] * z[:, b]
    k_values = np.arange(table.min(), table.max() + 1)
    table.flags.writeable = False
    return table, table - table.min(), k_values


class LayerBuffers:
    """Arrays that let the layer kernels update a batch of amplitudes in place.

    ``shape`` is that of the amplitudes and ``angle_shape`` that of the layer
    angle: the batch shape for one angle per row, or ``()`` for one angle
    shared by every row.  ``scratch`` holds the field layer's intermediate
    product, and its leading rows receive the coupling layer's gathered
    phases (``phases``, one row per angle).  ``left`` and ``right`` hold the
    rotation powers of the two register halves, one per angle; they are one
    array when the halves are equal.
    """

    def __init__(self, shape: tuple[int, ...], angle_shape: tuple[int, ...], n: int) -> None:
        k, m = _half_sizes(n)
        self.scratch = np.empty(shape, dtype=np.complex128)
        self.phases = self.scratch[(0,) * (len(shape) - 1 - len(angle_shape))]
        self.left = np.empty(angle_shape + (1 << k, 1 << k), dtype=np.complex128)
        self.right = (
            self.left if m == k else np.empty(angle_shape + (1 << m, 1 << m), dtype=np.complex128)
        )

    def leading(self, rows: int) -> LayerBuffers:
        """These buffers of one shared angle, cut to the first ``rows`` rows.

        The cut shares this memory, so a sweep over a growing block of rows
        allocates nothing per step.
        """
        view = copy.copy(self)
        view.scratch = self.scratch[:rows]
        return view


def _layer_target(
    amplitudes: np.ndarray, angle, n: int, buffers: LayerBuffers | None
) -> tuple[np.ndarray, LayerBuffers]:
    """The array a layer kernel overwrites, and the buffers it uses.

    Without ``buffers`` that is a fresh C-ordered copy with buffers of its
    own.  With them it is ``amplitudes`` itself, which must then be a
    writeable C-contiguous complex128 array of the buffers' shape: anything
    else would make the kernel write into a copy and drop the layer.
    """
    if buffers is None:
        amplitudes = np.array(amplitudes, dtype=np.complex128, order="C")
        return amplitudes, LayerBuffers(amplitudes.shape, np.shape(angle), n)
    if not (
        isinstance(amplitudes, np.ndarray)
        and amplitudes.dtype == np.complex128
        and amplitudes.flags.c_contiguous
        and amplitudes.flags.writeable
        and amplitudes.shape == buffers.scratch.shape
    ):
        raise ValueError(
            "in-place layers need a writeable C-contiguous complex128 array of shape "
            f"{buffers.scratch.shape}"
        )
    return amplitudes, buffers


def apply_zz_layer(
    amplitudes: np.ndarray, angle, n: int, boundary: Boundary, buffers: LayerBuffers | None = None
) -> np.ndarray:
    """Phase kernel exp(-i * angle * sum_bonds Z Z) on the last axis.

    ``angle`` may be a scalar or carry the batch shape of the leading axes.
    With ``buffers`` the result overwrites ``amplitudes``, which is returned.
    """
    amplitudes, buffers = _layer_target(amplitudes, angle, n, buffers)
    _, gather, k_values = _zz_structure(n, boundary)
    phases = np.exp(-1j * np.multiply.outer(np.asarray(angle, dtype=np.float64), k_values))
    np.take(phases, gather, axis=-1, out=buffers.phases, mode="clip")
    return np.multiply(amplitudes, buffers.phases, out=amplitudes)


@functools.lru_cache(maxsize=None)
def _hamming(k: int) -> np.ndarray:
    """Hamming distance ``popcount(r ^ c)`` of every pair of k-bit indices."""
    idx = np.arange(1 << k)
    flips = idx[:, None] ^ idx[None, :]
    distance = np.zeros_like(flips)
    for q in range(k):
        distance += (flips >> q) & 1
    distance.flags.writeable = False
    return distance


def _half_sizes(n: int) -> tuple[int, int]:
    check_qubit_count(n)
    return n // 2, n - n // 2


def _rotation_power(angle, k: int, out: np.ndarray) -> np.ndarray:
    """``exp(-i * angle * sum X_i)`` on k qubits, with the leading axes of ``angle``.

    Entry ``[r, c]`` is ``cos**(k - d) * (-i sin)**d`` for ``d = popcount(r ^ c)``.
    The matrices are written into ``out``.
    """
    angle = np.asarray(angle, dtype=np.float64)[..., None]
    factors = np.empty(angle.shape[:-1] + (2, k + 1), dtype=np.complex128)
    factors[..., 0, :] = np.cos(angle)
    factors[..., 1, :] = -1j * np.sin(angle)
    factors[..., 0] = 1.0
    powers = np.cumprod(factors, axis=-1)  # cos**d and (-i sin)**d for d = 0..k
    values = powers[..., 0, ::-1] * powers[..., 1, :]
    return np.take(values, _hamming(k), axis=-1, out=out, mode="clip")


def apply_x_layer(
    amplitudes: np.ndarray, angle, n: int, buffers: LayerBuffers | None = None
) -> np.ndarray:
    """Rotation kernel exp(-i * angle * sum_i X_i) on the last axis.

    ``angle`` may be a scalar or carry the batch shape of the leading axes.
    With ``buffers`` the result overwrites ``amplitudes``, which is returned.
    """
    amplitudes, buffers = _layer_target(amplitudes, angle, n, buffers)
    k, m = _half_sizes(n)
    grid = amplitudes.reshape(amplitudes.shape[:-1] + (1 << k, 1 << m))
    left = _rotation_power(angle, k, out=buffers.left)
    right = left if m == k else _rotation_power(angle, m, out=buffers.right)
    half = buffers.scratch.reshape(grid.shape)
    np.matmul(left, grid, out=half)
    np.matmul(half, right, out=grid)
    return amplitudes


@functools.lru_cache(maxsize=None)
def _field_sum(k: int) -> np.ndarray:
    """``sum X_i`` on k qubits: ones where the indices differ in exactly one bit."""
    matrix = (_hamming(k) == 1).astype(np.complex128)
    matrix.flags.writeable = False
    return matrix


def apply_coupling_generator(amplitudes: np.ndarray, n: int, boundary: Boundary) -> np.ndarray:
    """Action of the bond sum ``sum Z_i Z_{i+1}`` (diagonal integer table)."""
    table, _, _ = _zz_structure(n, boundary)
    return np.asarray(amplitudes, dtype=np.complex128) * table


def apply_field_generator(amplitudes: np.ndarray, n: int) -> np.ndarray:
    """Action of the field sum ``sum X_i``, split as ``S_k (x) 1 + 1 (x) S_(n-k)``.

    ``S_k`` is the field sum on the k qubits of one half of the register.
    """
    amplitudes = np.asarray(amplitudes, dtype=np.complex128)
    k, m = _half_sizes(n)
    grid = amplitudes.reshape(amplitudes.shape[:-1] + (1 << k, 1 << m))
    out = _field_sum(k) @ grid
    out += grid @ _field_sum(m)
    return out.reshape(amplitudes.shape)


def ensure_normalized(amplitudes: np.ndarray) -> np.ndarray:
    """Renormalize rows whose accumulated norm drift exceeds the tolerance.

    The layer kernels are exactly norm preserving up to roundoff, so this is
    a guard rail; every triggered repair is counted for diagnostics.  Each
    squared norm is one dot product of the row's interleaved real and
    imaginary parts with themselves, so a contiguous batch is checked
    without batch-sized temporaries.
    """
    global _renormalizations
    planes = np.ascontiguousarray(amplitudes, dtype=np.complex128).view(np.float64)
    norms = (planes[..., None, :] @ planes[..., :, None])[..., 0, 0]
    drifted = np.abs(norms - 1.0) > NORM_DRIFT_TOLERANCE
    if np.any(drifted):
        _renormalizations += int(np.count_nonzero(drifted))
        amplitudes = amplitudes / np.sqrt(norms)[..., None]
    return amplitudes


def renormalization_count() -> int:
    """Total norm repairs since import, for drift diagnostics."""
    return _renormalizations


def expectation(state: StateVector, op: PauliSum) -> float:
    """Real expectation value of a Hermitian Pauli sum."""
    if op.n != state.n:
        raise ValueError(f"operator acts on {op.n} qubits, state has {state.n}")
    return float(op.expectation(state.amplitudes))
