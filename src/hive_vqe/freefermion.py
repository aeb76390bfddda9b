"""Momentum pseudo-spin engine for the closed transverse-field Ising chain.

A Jordan-Wigner transformation makes both circuit generators quadratic in
fermions, so on a closed chain the circuit acts on each momentum pair
``(k, -k)`` on its own (Mbeng, Fazio & Santoro, arXiv:1906.08948).  In the
frame rotated by a Hadamard on every qubit the uniform superposition is the
fermion vacuum, which has even parity, so the momenta are
``k = (2m + 1) pi / n`` for ``m < n // 2``.  Each pair is a two-level system,
``|0>`` empty and ``|1>`` doubly occupied, that starts in ``|0>``.  There

- the coupling factor ``exp(-i a sum Z Z)`` is ``exp(-i a A_k)`` with
  ``A_k = 2 cos k (1 - sz) + 2 sin k sx``;
- the field factor ``exp(-i b sum X)`` is ``diag(exp(-2ib), exp(2ib))``;
- the Hamiltonian ``-sum Z Z - h sum X`` is ``sum_k (-A_k - 2 h sz)``, less
  ``h`` for odd n, whose unpaired ``k = pi`` mode stays empty.

A coupling factor is kept without its phase ``exp(-2ia cos k)``, which is
global to its pair, so every factor has the form ``[[u, v], [-v*, u*]]``.
So does the product ``U_j`` of the first j + 1 factors, which is therefore
fixed by its ``(u_j, v_j)``: the pair state after factor j is
``U_j |0> = (u_j, -v_j*)`` and ``U_j |1> = (v_j, u_j*)``.  Derivative j of a
pair's final state inserts the generator ``G_j`` after factor j, which makes
it ``-i W (m_j, w_j)`` for the whole circuit ``W``, with the real
``m_j = <0| U_j^dag G_j U_j |0>`` and ``w_j = <1| U_j^dag G_j U_j |0>``.
Constant parts of the generators and the dropped phases reach only ``m_j``,
and ``m_j`` drops out of both derivative quantities:

- the gradient is ``g_j = 2 Im sum_k w_jk c_k`` with
  ``c_k = <psi_k| H_k |psi'_k>`` on the final pair states ``psi = (a, b)``
  and ``psi' = (-b*, a*)``; the ``m_j`` term is ``m_j`` times the real
  energy, so it adds nothing;
- the information matrix is the sum of the pairs' own, ``F = 4 Re(w* w^T)``:
  the Gram matrix's ``m m^T`` cancels the subtracted ``m m^T`` of the
  state's own direction.

Both are closed forms: ``w_j`` is ``4 u_j v_j*`` for a field factor and
``2 sin k (u_j^2 - v_j*^2) - 4 cos k u_j v_j*`` for a coupling factor, and
``c = a* b* (h11 - h00) + h01 (a*^2 - b*^2)`` for ``H_k = [[h00, h01],
[h01, h11]]``.  So the ``(u_j, v_j)`` after every factor give both, with no
backward pass.  They come from one inclusive prefix scan (Hillis & Steele,
CACM 29, 1170 (1986)) over the factors' ``(u, v)``: the product of two such
matrices has the same form, so a pair of ``(P, K)`` arrays carries every
partial product, and ``ceil(log2 P)`` levels of elementwise products replace
P - 1 sequential 2x2 products.  A batch of B rows at depth L costs O(B L n)
work against O(B L n 2**n) on the statevector.
Each pair adds a term of rank at most 2 to the information matrix, so its
rank is at most 2 (n // 2) (Larocca et al., arXiv:2105.14377).

``ansatz._on_pairs`` sends every closed circuit here and has checked that
the operator is on the same chain, so the entry points take its spec.
"""

from __future__ import annotations

import functools

import numpy as np

from hive_vqe.hamiltonian import TfimSpec
from hive_vqe.statevector import ensure_normalized


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


# The per-chain constants below are built once per chain and shared, read-only.
@functools.lru_cache(maxsize=32)
def _momenta(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``cos k`` and ``sin k`` of every pair."""
    k = (2 * np.arange(n // 2) + 1) * np.pi / n
    return _read_only(np.cos(k)), _read_only(np.sin(k))


@functools.lru_cache(maxsize=64)
def _hamiltonian(spec: TfimSpec) -> np.ndarray:
    """``-A_k - 2 h sz`` for every pair, shape ``(n // 2, 2, 2)``."""
    cos, sin = _momenta(spec.n)
    out = np.empty((cos.size, 2, 2))
    out[:, 0, 0] = -2.0 * spec.h
    out[:, 0, 1] = out[:, 1, 0] = -2.0 * sin
    out[:, 1, 1] = 2.0 * spec.h - 4.0 * cos
    return _read_only(out)


def _coupling(n: int, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(u, v)`` of the coupling factors, with a trailing pair axis.

    ``exp(-i a A_k)`` is ``cos 2a - i sin 2a (sin k sx - cos k sz)`` times
    the dropped phase.
    """
    cos_k, sin_k = _momenta(n)
    doubled = 2.0 * angles[..., None]
    sin = np.sin(doubled)
    return np.cos(doubled) + 1j * (sin * cos_k), -1j * (sin * sin_k)


def _energy(spec: TfimSpec, pairs: np.ndarray) -> np.ndarray:
    """Energy of pair states of shape ``(..., K, 2)``."""
    image = np.matmul(_hamiltonian(spec), pairs[..., None])[..., 0]
    value = (pairs.conj() * image).real.sum(axis=(-2, -1))
    return value - spec.h if spec.n % 2 else value


def batch_energies(spec: TfimSpec, thetas: np.ndarray) -> np.ndarray:
    """Energies of checked ``(batch, 2L)`` parameter rows.

    Each layer's field phase is folded into its coupling factor up front,
    so the sweep is a few products on ``(batch, K)`` arrays per layer.
    """
    u, v = _coupling(spec.n, thetas[:, 0::2].T)
    field = np.exp(-2j * thetas[:, 1::2].T)[..., None]
    u, v = field * u, field * v
    u_bar, v_bar = u.conj(), -v.conj()
    alpha, beta = u[0], v_bar[0]
    for layer in range(1, u.shape[0]):
        alpha, beta = (
            u[layer] * alpha + v[layer] * beta,
            v_bar[layer] * alpha + u_bar[layer] * beta,
        )
    return _energy(spec, ensure_normalized(np.stack((alpha, beta), axis=-1)))


def _sweep(n: int, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(u, v)`` of the prefix products after each factor, each ``(P, K)``.

    Every factor and every product of factors is ``[[u, v], [-v*, u*]]``,
    so its ``(u, v)`` fixes it.  Row j of ``(u, v)`` starts as factor j and
    ends as the prefix product ``U_j``, whose pair state is ``(u_j, -v_j*)``.
    Before the level at span 1, 2, 4, ... < P, row j holds the product of
    the last ``span`` factors up to j, or of all of them if there are fewer.
    The level multiplies every row j >= span on the right by row j - span,
    which holds the factors before those: ``(a, b)(c, d)`` is
    ``(a c - b d*, a d + b c*)``.  That takes ``ceil(log2 P)`` levels against
    P - 1 sequential products.
    """
    params, modes = theta.shape[0], n // 2
    u = np.empty((params, modes), dtype=np.complex128)
    v = np.zeros_like(u)
    u[0::2], v[0::2] = _coupling(n, theta[0::2])
    u[1::2] = np.exp(-2j * theta[1::2])[:, None]
    span = 1
    while span < params:
        a, b, c, d = u[span:], v[span:], u[:-span], v[:-span]
        u[span:], v[span:] = a * c - b * d.conj(), a * d + b * c.conj()
        span *= 2
    return u, v


def _tangents(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``w_j = <1| U_j^dag G_j U_j |0>`` of every factor and pair, shape ``(P, K)``.

    The generator is ``diag(2, -2)`` for a field factor, which gives
    ``4 u v*``, and ``A_k`` for a coupling factor, which gives
    ``2 sin k (u^2 - v*^2) - 4 cos k u v*``.
    """
    cos_k, sin_k = _momenta(n)
    w = 4.0 * u * v.conj()
    u, v_bar = u[0::2], v[0::2].conj()
    w[0::2] = 2.0 * sin_k * (u * u - v_bar * v_bar) - cos_k * w[0::2]
    return w


def energy_and_gradient(spec: TfimSpec, theta: np.ndarray) -> tuple[float, np.ndarray]:
    """Energy and exact gradient of one checked parameter vector.

    Entry ``j`` is ``2 Im sum_k w_jk c_k`` with ``c_k = <psi_k| H_k |psi'_k>``
    on the normalized final pair states ``psi = (a, b)``.
    """
    u, v = _sweep(spec.n, theta)
    psi = ensure_normalized(np.stack((u[-1], -v[-1].conj()), axis=-1))
    a_bar, b_bar = psi[:, 0].conj(), psi[:, 1].conj()
    h = _hamiltonian(spec)
    c = a_bar * b_bar * (h[:, 1, 1] - h[:, 0, 0]) + h[:, 0, 1] * (a_bar * a_bar - b_bar * b_bar)
    return float(_energy(spec, psi)), 2.0 * (_tangents(spec.n, u, v) @ c).imag


def qfim(n: int, theta: np.ndarray) -> np.ndarray:
    """Information matrix ``4 Re(w* w^T)`` of the closed chain at one checked vector."""
    w = _tangents(n, *_sweep(n, theta))
    return 4.0 * (w.conj() @ w.T).real
