"""Exact matrix product operator for the chain Hamiltonian.

The uniform infinite-range XX coupling is encoded exactly with a pair of
"open channel" rows that forward S+/S- with weight 1 to every later site, so
the MPO bond dimension stays at 7 (5 when J = 0, the standard XXZ layout)
independent of N, and the representation error is exactly zero.

An MPO is the plain list of its site tensors, with the index convention
W[left bond, phys out, phys in, right bond].
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidParams
from ..model import ID2, OPEN, SM, SP, SZ, ModelParams, amplitudes
from .mps import MatrixProductState


def build_mpo(p: ModelParams, pin_strength: float = 0.0) -> list[np.ndarray]:
    """MPO of H, optionally with a -pin_strength * sz field on site 0.

    The pinning term breaks the exact spin-flip degeneracy of the
    ferromagnetic doublet so DMRG converges to a product state instead of an
    entangled cat; at 1e-8 it is invisible at any non-degenerate point.
    """
    if p.boundary != OPEN:
        raise InvalidParams("the MPO encodes the open-boundary Hamiltonian")
    n = p.n_sites
    zz, flip, collective = amplitudes(p)
    long_range = p.j_lr != 0.0
    dim = 7 if long_range else 5
    last = dim - 1

    w = np.zeros((dim, 2, 2, dim))
    w[0, :, :, 0] = ID2
    w[last, :, :, last] = ID2
    # nearest-neighbor channels
    w[0, :, :, 1] = SP
    w[0, :, :, 2] = SM
    w[0, :, :, 3] = SZ
    w[1, :, :, last] = flip * SM
    w[2, :, :, last] = flip * SP
    w[3, :, :, last] = zz * SZ
    if long_range:
        # uniform channels: forward with identity, terminate on any later site
        w[0, :, :, 4] = SP
        w[0, :, :, 5] = SM
        w[4, :, :, 4] = ID2
        w[5, :, :, 5] = ID2
        w[4, :, :, last] = collective * SM
        w[5, :, :, last] = collective * SP

    first = w[0:1].copy()
    if pin_strength != 0.0:
        first[0, :, :, last] += -pin_strength * SZ
    return [first] + [w.copy() for _ in range(n - 2)] + [w[:, :, :, last:].copy()]


def mpo_to_dense(mpo: list[np.ndarray]) -> np.ndarray:
    """Contract the MPO to a dense 2^N matrix in bitmask ordering (site 0 = LSB)."""
    block = mpo[0][0]  # (2, 2, w)
    for w in mpo[1:]:
        # new site's physical index becomes the most significant bit so far
        block = np.einsum("abw,wstv->satbv", block, w)
        da = block.shape[1] * 2
        block = block.reshape(da, da, -1)
    return block[:, :, 0]


def expectation(mps: MatrixProductState, mpo: list[np.ndarray]) -> float:
    """<psi|O|psi> by a left-to-right sandwich contraction (any gauge)."""
    env = np.ones((1, 1, 1))
    for a, w in zip(mps.tensors, mpo):
        env = _advance(env, a, w)
    return float(env[0, 0, 0])


def _advance(env: np.ndarray, a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Grow a (bra, mpo, ket) environment by one site."""
    t = np.tensordot(env, a, ([2], [0]))        # (bra, w, s_ket, ket')
    t = np.tensordot(t, w, ([1, 2], [0, 2]))    # (bra, ket', s_out, w')
    t = np.tensordot(a, t, ([0, 1], [0, 2]))    # (bra', ket', w')
    # stored C-ordered so the local matvec reads it as a matrix without a copy
    return np.ascontiguousarray(t.transpose(0, 2, 1))


def _advance_right(env: np.ndarray, a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Grow a right environment (bra, mpo, ket) by one site leftwards."""
    t = np.tensordot(a, env, ([2], [2]))        # (ket_l, s_ket, bra, w)
    t = np.tensordot(w, t, ([2, 3], [1, 3]))    # (w_l, s_out, ket_l, bra)
    t = np.tensordot(a, t, ([1, 2], [1, 3]))    # (bra_l, w_l, ket_l)
    return t
