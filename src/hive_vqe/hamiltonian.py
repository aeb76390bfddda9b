"""The transverse-field Ising chain: its spec, its operator, its ground energy.

Basis convention used across the package: qubit 0 is the leftmost tensor
factor and therefore the most significant bit of a basis-state index.  Basis
state ``b`` assigns qubit ``i`` the bit ``(b >> (n - 1 - i)) & 1``, and the Z
eigenvalue is ``+1`` for bit 0, ``-1`` for bit 1.  Any self-consistent
ordering gives the same spectra; this one is pinned so dense matrices, phase
tables, and tests agree entry for entry.

In this ordering the n-qubit Hadamard transform is the Sylvester matrix
``W[b, c] = (-1)**popcount(b & c)`` up to a factor ``2**(-n/2)``, and it maps
``X_i`` to ``Z_i``.  So the chain's two generators are both diagonal: the
bond sum ``sum Z_i Z_{i+1}`` in the computational basis, and the field sum
``sum_i X_i`` after ``walsh_hadamard``, with eigenvalue
``n - 2 * popcount(b)``.  ``_spectrum`` caches one integer table per
generator; the circuit layers of ``statevector`` and the Hamiltonian
``PauliSum`` both read it, and nothing else builds an operator.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

# Chain lengths the package simulates: the statevector engine, the dense
# materializations and the ground-energy oracle share this range.
MIN_QUBITS = 2
MAX_QUBITS = 12


def check_qubit_count(n: int) -> None:
    """Reject a chain length outside ``MIN_QUBITS..MAX_QUBITS``."""
    if not MIN_QUBITS <= n <= MAX_QUBITS:
        raise ValueError(f"chains are limited to {MIN_QUBITS}..{MAX_QUBITS} qubits, got n={n}")


@functools.lru_cache(maxsize=None)
def _sylvester(k: int) -> np.ndarray:
    """Unnormalized Hadamard matrix of order ``2**k``, entries +-1, read-only."""
    w = np.ones((1, 1))
    for _ in range(k):
        w = np.block([[w, w], [w, -w]])
    w.flags.writeable = False
    return w


def walsh_hadamard(amplitudes: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform ``W`` on the last axis.

    Entry ``b`` of the result is ``sum_c (-1)**popcount(b & c) * a[c]``, so
    applying it twice multiplies by ``2**n``.  ``W = W_k (x) W_{n-k}`` acts on
    an ``(..., 2**k, 2**(n-k))`` view as two real matrix products on the
    stacked real and imaginary planes.
    """
    amplitudes = np.asarray(amplitudes, dtype=np.complex128)
    n = amplitudes.shape[-1].bit_length() - 1
    if n < 1 or amplitudes.shape[-1] != 1 << n:
        raise ValueError(f"last axis must have length 2**n, n >= 1, got {amplitudes.shape[-1]}")
    k = n // 2
    planes = np.empty((2,) + amplitudes.shape)
    planes[0] = amplitudes.real
    planes[1] = amplitudes.imag
    planes = planes.reshape(-1, 1 << (n - k)) @ _sylvester(n - k)
    planes = np.matmul(_sylvester(k), planes.reshape(-1, 1 << k, 1 << (n - k)))
    planes = planes.reshape((2,) + amplitudes.shape)
    out = np.empty(amplitudes.shape, dtype=np.complex128)
    out.real = planes[0]
    out.imag = planes[1]
    return out


class Boundary(enum.Enum):
    """Chain topology: open ends, or closed with a wraparound bond."""

    OPEN = "open"
    CLOSED = "closed"

    @classmethod
    def parse(cls, text: str) -> "Boundary":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown boundary {text!r}; expected 'open' or 'closed'"
            ) from None


@dataclass(frozen=True)
class TfimSpec:
    """Ising chain in a transverse field: ``-sum_i Z_i Z_{i+1} - h sum_i X_i``."""

    n: int
    h: float
    boundary: Boundary = Boundary.CLOSED

    def __post_init__(self) -> None:
        if self.n < MIN_QUBITS:
            raise ValueError(f"chain needs at least {MIN_QUBITS} sites, got n={self.n}")
        if not np.isfinite(self.h):
            raise ValueError("transverse field strength must be finite")


@functools.lru_cache(maxsize=None)
def _spectrum(n: int, boundary: Boundary | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer eigenvalues of one generator on every basis state, plus gather helpers.

    ``boundary`` selects the bond sum ``sum z_i z_{i+1}`` in the computational
    basis, with the wraparound bond when closed; ``None`` selects the field
    sum ``sum z_i = n - 2 * popcount(b)`` in the Hadamard basis.  Returns
    read-only ``(table, gather, values)`` with ``values[gather] == table`` and
    ``values`` the range of eigenvalues.
    """
    check_qubit_count(n)
    bits = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    z = 1 - 2 * bits
    if boundary is None:
        table = z.sum(axis=1)
    else:
        bonds = n if boundary is Boundary.CLOSED else n - 1
        table = sum(z[:, i] * z[:, (i + 1) % n] for i in range(bonds))
    arrays = table, table - table.min(), np.arange(table.min(), table.max() + 1)
    for array in arrays:
        array.flags.writeable = False
    return arrays


@dataclass(frozen=True)
class PauliSum:
    """The Hamiltonian of one chain, ``-(bond sum) - h (field sum)``.

    The bond sum is diagonal in the computational basis and the field sum in
    the Hadamard basis, each with its ``_spectrum`` table, so the spec is the
    whole operator.  ``apply`` and ``expectation`` act on the last axis of an
    amplitude array and keep the leading axes.
    """

    spec: TfimSpec

    @property
    def n(self) -> int:
        return self.spec.n

    def _field_diagonal(self) -> np.ndarray:
        """``-h`` times the field table, with the ``2**-n`` of two transforms."""
        field, _, _ = _spectrum(self.n, None)
        return (-self.spec.h * 2.0**-self.n) * field

    def to_dense(self) -> np.ndarray:
        """Dense matrix, for chains up to ``MAX_QUBITS``."""
        check_qubit_count(self.n)
        bonds, _, _ = _spectrum(self.n, self.spec.boundary)
        field, _, _ = _spectrum(self.n, None)
        sylvester = _sylvester(self.n)
        field_sum = (sylvester * field) @ sylvester * 2.0**-self.n
        return (-np.diag(bonds) - self.spec.h * field_sum).astype(np.complex128)

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        """Matrix-free operator product.

        The field part, a diagonal between two ``walsh_hadamard`` calls, is
        skipped when ``h = 0``.
        """
        amplitudes = np.asarray(amplitudes, dtype=np.complex128)
        bonds, _, _ = _spectrum(self.n, self.spec.boundary)
        out = -bonds * amplitudes
        if self.spec.h != 0.0:
            out += walsh_hadamard(self._field_diagonal() * walsh_hadamard(amplitudes))
        return out

    def expectation(self, amplitudes: np.ndarray) -> np.ndarray:
        """Real expectation ``<a|H|a>`` of every row.

        The two diagonals reduce against ``|a|**2`` and ``|W a|**2``, so no
        operator image is formed.
        """
        amplitudes = np.asarray(amplitudes, dtype=np.complex128)
        bonds, _, _ = _spectrum(self.n, self.spec.boundary)
        value = -(_abs_squared(amplitudes) @ bonds)
        if self.spec.h != 0.0:
            value += _abs_squared(walsh_hadamard(amplitudes)) @ self._field_diagonal()
        return value


def _abs_squared(amplitudes: np.ndarray) -> np.ndarray:
    return amplitudes.real**2 + amplitudes.imag**2


def build_tfim(spec: TfimSpec) -> PauliSum:
    """The chain Hamiltonian of ``spec``; its ``spec`` attribute is ``spec``."""
    return PauliSum(spec)


@functools.lru_cache(maxsize=None)
def exact_ground_energy(spec: TfimSpec) -> float:
    """Exact ground energy of the chain from its free-fermion solution.

    A Jordan-Wigner transformation maps the chain to free fermions (Pfeuty,
    Ann. Phys. 57, 79 (1970)), and the ground energy is minus half the sum
    of the single-particle energies.  The sign of ``h`` is a basis change,
    so only ``|h|`` enters.  Closed chain: the ground state lies in the
    even-parity sector, whose momenta are ``k = (2m + 1) pi / n``, giving
    ``-sum_m sqrt(1 + h**2 - 2 |h| cos k)``.  Open chain: the single-particle
    energies are twice the singular values of the n x n bidiagonal matrix
    with ``|h|`` on the diagonal and 1 above it.  The cost is O(n) closed and
    O(n**3) open, against O(8**n) for diagonalizing the dense matrix, which
    the tests keep as the cross-check.
    """
    check_qubit_count(spec.n)
    field = abs(spec.h)
    if spec.boundary is Boundary.CLOSED:
        momenta = (2 * np.arange(spec.n) + 1) * np.pi / spec.n
        return -float(np.sum(np.sqrt(1.0 + field**2 - 2.0 * field * np.cos(momenta))))
    bidiagonal = np.diag(np.full(spec.n, field)) + np.diag(np.ones(spec.n - 1), 1)
    return -float(np.sum(np.linalg.svd(bidiagonal, compute_uv=False)))
