"""Dense complex statevector engine for chains of 2 to 12 qubits.

This is the reference engine: it serves the open chain, always from the
uniform superposition, and cross-checks the pair engine of ``freefermion``,
which ``ansatz._on_pairs`` picks for every closed chain.
Each circuit generator is diagonal in a known basis, so no matrix
exponential is ever formed.  The coupling sum ``sum Z_i Z_{i+1}`` is
diagonal in the computational basis, with eigenvalue ``sum_bonds z_i z_j``
on basis state ``b``.  The field sum ``sum X_i`` is diagonal in the Hadamard
basis, with eigenvalue ``n - 2 * popcount(b)``, so its layer is a phase
between two ``hamiltonian.walsh_hadamard`` transforms.  Both eigenvalue
tables are small integers, cached once per generator by
``hamiltonian._spectrum`` and shared with the Hamiltonian, so a layer
exponentiates only the distinct values and gathers.  Every kernel accepts
leading batch axes (one parameter row per batch row), returns a new array
and leaves its input as it was.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hive_vqe.hamiltonian import Boundary, _spectrum, check_qubit_count, walsh_hadamard

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


def _phases(angle, n: int, boundary: Boundary | None, scale: float = 1.0) -> np.ndarray:
    """``scale * exp(-i * angle * table)``, with the leading axes of ``angle``."""
    _, gather, values = _spectrum(n, boundary)
    phases = np.exp(-1j * np.multiply.outer(np.asarray(angle, dtype=np.float64), values))
    return np.take(phases * scale, gather, axis=-1)


def apply_zz_layer(amplitudes: np.ndarray, angle, n: int, boundary: Boundary) -> np.ndarray:
    """Phase kernel exp(-i * angle * sum_bonds Z Z) on the last axis.

    ``angle`` may be a scalar or carry the batch shape of the leading axes.
    """
    return np.asarray(amplitudes, dtype=np.complex128) * _phases(angle, n, boundary)


def apply_x_layer(amplitudes: np.ndarray, angle, n: int) -> np.ndarray:
    """Rotation kernel exp(-i * angle * sum_i X_i) on the last axis.

    ``angle`` may be a scalar or carry the batch shape of the leading axes.
    The ``2**-n`` of the two unnormalized transforms is folded into the phases.
    """
    return walsh_hadamard(_phases(angle, n, None, 2.0**-n) * walsh_hadamard(amplitudes))


def apply_coupling_generator(amplitudes: np.ndarray, n: int, boundary: Boundary) -> np.ndarray:
    """Action of the bond sum ``sum Z_i Z_{i+1}`` (diagonal integer table)."""
    table, _, _ = _spectrum(n, boundary)
    return np.asarray(amplitudes, dtype=np.complex128) * table


def apply_field_generator(amplitudes: np.ndarray, n: int) -> np.ndarray:
    """Action of the field sum ``sum X_i``: its table between two transforms."""
    table, _, _ = _spectrum(n, None)
    return walsh_hadamard(table * 2.0**-n * walsh_hadamard(amplitudes))


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

