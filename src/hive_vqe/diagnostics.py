"""Curvature and information-geometry diagnostics of the loss landscape.

The information matrix is assembled from exact state derivatives,
``F_ij = 4 Re[<d_i psi|d_j psi> - <d_i psi|psi><psi|d_j psi>]``, and its rank
counts the locally independent state-space directions.  Every circuit starts
from the uniform superposition.  A closed chain is then a product of n // 2
pair states, so its rank is at most 2 (n // 2) and ``freefermion`` computes
it; an open chain takes the statevector derivative stack.  ``ansatz._on_pairs``
makes that choice.  The loss Hessian is a central finite difference of the
exact gradient, on the same engine as the energy, then symmetrized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from hive_vqe import freefermion
from hive_vqe.ansatz import HvaCircuit, _check_theta, _on_pairs, derivative_stack, energy_gradient
from hive_vqe.hamiltonian import PauliSum
from hive_vqe.statevector import StateVector

QFIM_SYMMETRY_TOLERANCE = 1e-9
QFIM_EIGENVALUE_FLOOR = -1e-8
RANK_TOLERANCE = 1e-10
FD_STEP = 1e-4


@dataclass(frozen=True)
class QfimMatrix:
    """Quantum Fisher information matrix at one parameter point.

    Construction verifies symmetry and positive semidefiniteness up to
    numerical floors; eigenvalues are cached for rank queries.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=np.float64)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {entries.shape}")
        asym = float(np.abs(entries - entries.T).max()) if entries.size else 0.0
        if asym > QFIM_SYMMETRY_TOLERANCE:
            raise ValueError(f"information matrix asymmetry {asym:.3e} exceeds tolerance")
        object.__setattr__(self, "entries", entries)
        low = float(self.eigenvalues[0]) if entries.size else 0.0
        if low < QFIM_EIGENVALUE_FLOOR:
            raise ValueError(
                f"information matrix has eigenvalue {low:.3e} below the PSD floor"
            )

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.entries)


@dataclass(frozen=True)
class HessianMatrix:
    """Symmetrized finite-difference Hessian of the energy."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=np.float64)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {entries.shape}")
        if not np.allclose(entries, entries.T, rtol=0.0, atol=1e-6 * max(1.0, float(np.abs(entries).max()))):
            raise ValueError("Hessian entries are not symmetric")
        object.__setattr__(self, "entries", entries)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.entries)


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted eigenvalues with the rank split at a relative threshold."""

    eigenvalues: np.ndarray
    rank: int
    zero_count: int
    threshold: float


def fubini_study_distance(a: StateVector, b: StateVector) -> float:
    """Squared projective distance between unit states, phase invariant.

    Normalized as ``D = 2 (1 - |<a|b>|^2)`` so that for nearby parameter
    points the leading term equals half the information-matrix quadratic
    form: ``D = (1/2) delta^T F delta + O(|delta|^3)``.  Identical states
    give 0, orthogonal states 2.
    """
    if a.n != b.n:
        raise ValueError(f"states act on different qubit counts: {a.n} vs {b.n}")
    overlap_sq = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
    return float(2.0 * max(0.0, 1.0 - overlap_sq))


def qfim(circuit: HvaCircuit, theta) -> QfimMatrix:
    """Information matrix of the prepared state at one parameter point."""
    theta = _check_theta(circuit, theta)
    if _on_pairs(circuit):
        entries = freefermion.qfim(circuit.n, theta)
    else:
        psi, derivatives = derivative_stack(circuit, theta)
        gram = derivatives.conj() @ derivatives.T
        overlaps = derivatives.conj() @ psi
        entries = 4.0 * (gram - np.outer(overlaps, overlaps.conj())).real
    return QfimMatrix(0.5 * (entries + entries.T))


def hessian_from_gradient(grad_fn, theta: np.ndarray, fd_step: float) -> np.ndarray:
    """Central finite difference of a gradient map, one parameter per row.

    The raw result is returned without symmetrization so callers can inspect
    the finite-difference asymmetry.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if not fd_step > 0:
        raise ValueError(f"fd_step must be positive, got {fd_step}")
    dim = theta.shape[0]
    rows = np.empty((dim, dim), dtype=np.float64)
    for i in range(dim):
        shifted = theta.copy()
        shifted[i] = theta[i] + fd_step
        forward = np.asarray(grad_fn(shifted), dtype=np.float64)
        shifted[i] = theta[i] - fd_step
        backward = np.asarray(grad_fn(shifted), dtype=np.float64)
        rows[i] = (forward - backward) / (2.0 * fd_step)
    return rows


def hessian(circuit: HvaCircuit, theta, hamiltonian: PauliSum) -> HessianMatrix:
    """Energy Hessian as a symmetrized finite difference of the exact gradient."""
    theta = np.asarray(theta, dtype=np.float64)
    raw = hessian_from_gradient(
        lambda point: energy_gradient(circuit, point, hamiltonian), theta, FD_STEP
    )
    if not np.all(np.isfinite(raw)):
        raise ValueError("non-finite Hessian entries")
    return HessianMatrix(0.5 * (raw + raw.T))


def spectrum_report(matrix: QfimMatrix | HessianMatrix) -> SpectrumReport:
    """Eigenvalues ascending, rank above the relative threshold, and the rest.

    Rank counts eigenvalues of magnitude above ``RANK_TOLERANCE`` times the
    largest magnitude, so indefinite matrices report negative directions as
    nonzero.
    """
    eigs = matrix.eigenvalues
    scale = float(np.abs(eigs).max()) if eigs.size else 0.0
    threshold = RANK_TOLERANCE * scale
    rank = int(np.count_nonzero(np.abs(eigs) > threshold)) if scale > 0.0 else 0
    return SpectrumReport(
        eigenvalues=np.sort(eigs),
        rank=rank,
        zero_count=int(eigs.size - rank),
        threshold=threshold,
    )
