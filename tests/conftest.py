"""Shared oracles for the test suite.

The Kronecker-product Hamiltonian below is an independent construction
(explicit Pauli matrices, no bit twiddling) used to validate the production
builders.  Local basis order matches the package convention: index 0 = down,
1 = up, site 0 = least significant factor.
"""

import numpy as np

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
SZ = np.diag([-1.0, 1.0]).astype(complex)
SP = (SX + 1j * SY) / 2.0  # raises down -> up
SM = (SX - 1j * SY) / 2.0


def site_op(op, site, n):
    return np.kron(np.kron(np.eye(1 << (n - 1 - site)), op), np.eye(1 << site))


def kron_hamiltonian(alpha, j_lr, n, boundary="open"):
    """Reference H from explicit Pauli kron products (real symmetric)."""
    dim = 1 << n
    h = np.zeros((dim, dim), dtype=complex)
    bonds = [(i, i + 1) for i in range(n - 1)]
    if boundary == "periodic":
        bonds.append((0, n - 1))
    for i, j in bonds:
        h -= 0.25 * (site_op(SZ, i, n) @ site_op(SZ, j, n))
        h -= 0.25 * alpha * (site_op(SX, i, n) @ site_op(SX, j, n)
                             + site_op(SY, i, n) @ site_op(SY, j, n))
    for i in range(n):
        for j in range(i + 1, n):
            h -= (j_lr / (4.0 * n)) * (site_op(SX, i, n) @ site_op(SX, j, n)
                                       + site_op(SY, i, n) @ site_op(SY, j, n))
    assert np.abs(h.imag).max() < 1e-14
    return h.real


def mps_to_dense(mps):
    """Contract an MPS to a dense state vector in bitmask ordering."""
    block = mps.tensors[0][0]  # (2, right)
    for t in mps.tensors[1:]:
        block = np.einsum("aw,wsv->sav", block, t)
        block = block.reshape(block.shape[0] * block.shape[1], -1)
    return block[:, 0]
