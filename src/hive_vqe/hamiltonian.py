"""Pauli-string operators and the transverse-field Ising chain.

Basis convention used across the package: qubit 0 is the leftmost tensor
factor and therefore the most significant bit of a basis-state index.  Basis
state ``b`` assigns qubit ``i`` the bit ``(b >> (n - 1 - i)) & 1``, and the Z
eigenvalue is ``+1`` for bit 0, ``-1`` for bit 1.  Any self-consistent
ordering gives the same spectra; this one is pinned so dense matrices, phase
tables, and tests agree entry for entry.

In this ordering the n-qubit Hadamard transform is the Sylvester matrix
``W[b, c] = (-1)**popcount(b & c)`` up to a factor ``2**(-n/2)``, and it maps
``X_i`` to ``Z_i``.  So a string of only ``I`` and ``X`` is diagonal after
``walsh_hadamard``, just as a string of only ``I`` and ``Z`` is diagonal
before it; ``sum_i X_i`` has eigenvalue ``n - 2 * popcount(b)`` there.
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

_PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
}


def check_qubit_count(n: int) -> None:
    """Reject a chain length outside ``MIN_QUBITS..MAX_QUBITS``."""
    if not MIN_QUBITS <= n <= MAX_QUBITS:
        raise ValueError(f"chains are limited to {MIN_QUBITS}..{MAX_QUBITS} qubits, got n={n}")


def _check_dense_size(n: int) -> None:
    if n > MAX_QUBITS:
        raise ValueError(f"dense materialization is limited to {MAX_QUBITS} qubits, got n={n}")


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

    def coupling_count(self, n: int) -> int:
        """Number of nearest-neighbour bonds on an n-site chain."""
        return n - 1 if self is Boundary.OPEN else n

    @classmethod
    def parse(cls, text: str) -> "Boundary":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown boundary {text!r}; expected 'open' or 'closed'"
            ) from None


@dataclass(frozen=True)
class PauliString:
    """One real-weighted tensor product of single-qubit Pauli operators.

    ``letters`` holds one character of ``IXYZ`` per qubit, leftmost character
    acting on qubit 0.
    """

    coefficient: float
    letters: str

    def __post_init__(self) -> None:
        if not self.letters or set(self.letters) - set("IXYZ"):
            raise ValueError(
                f"letters must be a nonempty string over IXYZ, got {self.letters!r}"
            )
        if not np.isfinite(self.coefficient):
            raise ValueError("coefficient must be finite")

    @property
    def n(self) -> int:
        return len(self.letters)

    def matrix(self) -> np.ndarray:
        """Dense matrix, including the coefficient."""
        _check_dense_size(self.n)
        out = np.array([[self.coefficient]], dtype=np.complex128)
        for letter in self.letters:
            out = np.kron(out, _PAULI[letter])
        return out


@dataclass(frozen=True)
class PauliSum:
    """Real-weighted sum of Pauli strings on a fixed qubit count.

    Zero-coefficient terms are dropped at construction, so the empty sum is a
    valid representation of the zero operator.
    """

    n: int
    terms: tuple[PauliString, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one qubit, got n={self.n}")
        kept = tuple(t for t in self.terms if t.coefficient != 0.0)
        for term in kept:
            if term.n != self.n:
                raise ValueError(
                    f"term {term.letters!r} acts on {term.n} qubits, expected {self.n}"
                )
        object.__setattr__(self, "terms", kept)

    @functools.cached_property
    def tfim_spec(self) -> TfimSpec | None:
        """The chain whose ``build_tfim`` output this sum is, term for term.

        The field is read from the first X term (zero without one), then the
        terms are compared, order included, with both boundaries' chains.
        Any other sum, reordered or extended, gives None.
        """
        if self.n < 2:
            return None
        field = next((-t.coefficient for t in self.terms if "X" in t.letters), 0.0)
        for boundary in Boundary:
            spec = TfimSpec(self.n, field, boundary)
            if build_tfim(spec).terms == self.terms:
                return spec
        return None

    def to_dense(self) -> np.ndarray:
        _check_dense_size(self.n)
        dim = 1 << self.n
        out = np.zeros((dim, dim), dtype=np.complex128)
        for term in self.terms:
            out += term.matrix()
        return out

    @functools.cached_property
    def _action(self) -> tuple[np.ndarray, np.ndarray | None, list[tuple[np.ndarray, np.ndarray]]]:
        """The operator split by basis, for matrix-free application.

        Returns ``(z_diagonal, x_diagonal, gathers)``.  Strings of only ``I``
        and ``Z`` sum to ``z_diagonal``, diagonal in the computational basis.
        Strings of only ``I`` and ``X`` sum to ``x_diagonal``, diagonal in the
        Hadamard basis, with the ``2**-n`` of the two unnormalized transforms
        folded in; it is ``None`` when there is no such string.  Every other
        string maps basis state ``b`` to ``phase(b) * |b ^ flip>`` and keeps
        one ``(gather indices, phases)`` pair.
        """
        dim = 1 << self.n
        idx = np.arange(dim)
        z_diagonal = np.zeros(dim)
        x_diagonal = np.zeros(dim)
        has_x = False
        gathers = []
        for term in self.terms:
            flip = 0
            sign_mask = 0
            y_count = 0
            for i, letter in enumerate(term.letters):
                bit = 1 << (self.n - 1 - i)
                if letter in "XY":
                    flip |= bit
                if letter in "ZY":
                    sign_mask |= bit
                if letter == "Y":
                    y_count += 1
            if flip == 0:
                z_diagonal += term.coefficient * (1.0 - 2.0 * _bit_parity(idx & sign_mask, self.n))
            elif sign_mask == 0:
                x_diagonal += term.coefficient * (1.0 - 2.0 * _bit_parity(idx & flip, self.n))
                has_x = True
            else:
                src = idx ^ flip
                parity = _bit_parity(src & sign_mask, self.n)
                phase = term.coefficient * (1j**y_count) * (1.0 - 2.0 * parity)
                gathers.append((src, phase.astype(np.complex128)))
        return z_diagonal, (x_diagonal / dim if has_x else None), gathers

    def _check_amplitudes(self, amplitudes: np.ndarray) -> np.ndarray:
        amplitudes = np.asarray(amplitudes, dtype=np.complex128)
        dim = 1 << self.n
        if amplitudes.shape[-1] != dim:
            raise ValueError(
                f"amplitude axis has length {amplitudes.shape[-1]}, expected {dim}"
            )
        return amplitudes

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        """Matrix-free operator product, acting on the last axis."""
        amplitudes = self._check_amplitudes(amplitudes)
        z_diagonal, x_diagonal, gathers = self._action
        out = z_diagonal * amplitudes
        if x_diagonal is not None:
            out += walsh_hadamard(x_diagonal * walsh_hadamard(amplitudes))
        for src, phase in gathers:
            out += phase * amplitudes[..., src]
        return out

    def expectation(self, amplitudes: np.ndarray) -> np.ndarray:
        """Real expectation ``<a|op|a>`` of every row, reducing the last axis.

        The diagonal parts reduce against ``|a|**2`` and ``|W a|**2``; only
        strings holding a Y, or both an X and a Z, need the operator image.
        """
        amplitudes = self._check_amplitudes(amplitudes)
        z_diagonal, x_diagonal, gathers = self._action
        value = _abs_squared(amplitudes) @ z_diagonal
        if x_diagonal is not None:
            value += _abs_squared(walsh_hadamard(amplitudes)) @ x_diagonal
        for src, phase in gathers:
            image = phase * amplitudes[..., src]
            value += np.sum(amplitudes.conj() * image, axis=-1).real
        return value


def _abs_squared(amplitudes: np.ndarray) -> np.ndarray:
    return amplitudes.real**2 + amplitudes.imag**2


def _bit_parity(values: np.ndarray, nbits: int) -> np.ndarray:
    bits = (values[:, None] >> np.arange(nbits)) & 1
    return bits.sum(axis=1) % 2


@dataclass(frozen=True)
class TfimSpec:
    """Ising chain in a transverse field: ``-sum_i Z_i Z_{i+1} - h sum_i X_i``."""

    n: int
    h: float
    boundary: Boundary = Boundary.CLOSED

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"chain needs at least 2 sites, got n={self.n}")
        if not np.isfinite(self.h):
            raise ValueError("transverse field strength must be finite")


def build_tfim(spec: TfimSpec) -> PauliSum:
    """Assemble the chain Hamiltonian as a Pauli sum.

    Coupling terms carry coefficient -1, field terms -h; at h = 0 the field
    terms vanish and are dropped.
    """
    terms = []
    for i in range(spec.boundary.coupling_count(spec.n)):
        letters = ["I"] * spec.n
        letters[i] = "Z"
        letters[(i + 1) % spec.n] = "Z"
        terms.append(PauliString(-1.0, "".join(letters)))
    for i in range(spec.n):
        letters = ["I"] * spec.n
        letters[i] = "X"
        terms.append(PauliString(-float(spec.h), "".join(letters)))
    return PauliSum(spec.n, tuple(terms))


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
