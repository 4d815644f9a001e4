"""References built apart from the program, for the benchmark's checks.

Nothing here imports cavityxxz.  The chain Hamiltonian is assembled from
explicit Pauli Kronecker products and diagonalized on the full 2^N space with
ARPACK; the cavity master equations are written out as Liouvillian matrices
and propagated exactly with a matrix exponential.  Conventions follow the
package documentation: local basis index 0 = down, 1 = up, site 0 is the
least significant tensor factor, and every rate is in units of J_z.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

# Local basis (down, up): sz = diag(-1, +1), sigma+ = |up><down|.
PX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PY = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
PZ = np.diag([-1.0, 1.0]).astype(complex)
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
SIGMA_MINUS = SIGMA_PLUS.T.copy()


def _sparse_site(op, site: int, n: int):
    return sp.kron(sp.kron(sp.identity(1 << (n - 1 - site), format="csr"), sp.csr_matrix(op)),
                   sp.identity(1 << site, format="csr"), format="csr")


def chain_ground_energy(alpha: float, j_lr: float, n: int) -> float:
    """Lowest eigenvalue of the open chain on the whole 2^n space.

    H = -(1/4) sum_bonds [Z Z + alpha (X X + Y Y)] - (J / 4n) sum_{i<j} (X X + Y Y),
    with every term a product of single-site Kronecker products and
    X X + Y Y = 2 (s+ s- + s- s+) keeping the arithmetic real.
    """
    dim = 1 << n
    zs = [_sparse_site(PZ.real, i, n) for i in range(n)]
    sps = [_sparse_site(SIGMA_PLUS.real, i, n) for i in range(n)]
    diag = np.zeros(dim)
    for i in range(n - 1):
        diag -= 0.25 * (zs[i] @ zs[i + 1]).diagonal()
    rows, cols, vals = [np.arange(dim, dtype=np.int32)], [np.arange(dim, dtype=np.int32)], [diag]
    for i in range(n):
        for j in range(i + 1, n):
            coef = -j_lr / (4.0 * n) - (alpha / 4.0 if j == i + 1 else 0.0)
            if coef == 0.0:
                continue
            flip = (sps[i] @ sps[j].T + sps[i].T @ sps[j]).tocoo()
            rows.append(flip.row.astype(np.int32))
            cols.append(flip.col.astype(np.int32))
            vals.append(2.0 * coef * flip.data)
    h = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(dim, dim)).tocsr()
    del rows, cols, vals
    v0 = np.random.default_rng(0).standard_normal(dim)
    energy = scipy.sparse.linalg.eigsh(h, k=1, which="SA", v0=v0, return_eigenvectors=False)
    return float(energy[0])


def _dense_site(op, site: int, n: int) -> np.ndarray:
    return np.kron(np.kron(np.eye(1 << (n - 1 - site)), op), np.eye(1 << site))


def _xxz(alpha: float, n: int) -> np.ndarray:
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    for i in range(n - 1):
        for op, coef in ((PZ, 0.25), (PX, 0.25 * alpha), (PY, 0.25 * alpha)):
            h -= coef * (_dense_site(op, i, n) @ _dense_site(op, i + 1, n))
    return h


def _liouvillian(h: np.ndarray, jumps) -> np.ndarray:
    """Column-stacked generator of drho/dt = -i[H, rho] + sum rate (L rho L+ - {L+L, rho}/2)."""
    eye = np.eye(h.shape[0])
    gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for rate, op in jumps:
        ldl = op.conj().T @ op
        gen += rate * (np.kron(op.conj(), op) - 0.5 * np.kron(eye, ldl) - 0.5 * np.kron(ldl.T, eye))
    return gen


def _propagate_sz(h, jumps, psi0, sz_ops, t: float) -> np.ndarray:
    rho0 = np.outer(psi0, psi0.conj())
    dim = h.shape[0]
    rho = (scipy.linalg.expm(_liouvillian(h, jumps) * t) @ rho0.reshape(-1, order="F"))
    rho = rho.reshape(dim, dim, order="F")
    return np.array([np.trace(rho @ op).real for op in sz_ops])


def _neel_index(n: int) -> int:
    """Even sites up, odd sites down."""
    return sum(1 << i for i in range(0, n, 2))


def cavity_full_sz(g, delta_c, kappa, j_xx, j_z, n, n_max, t) -> np.ndarray:
    """<sz_i>(t) of the spin + photon master equation from the Neel state, photon vacuum.

    H = H_XXZ(j_xx / j_z) + (delta_c / j_z) a+a + (g / j_z) sum_i (a+ s-_i + a s+_i),
    one jump a at rate kappa / j_z; photon space truncated at n_max quanta.
    """
    nph = n_max + 1
    a = np.diag(np.sqrt(np.arange(1, nph)), 1).astype(complex)
    spin_eye, ph_eye = np.eye(1 << n), np.eye(nph)
    h = np.kron(_xxz(j_xx / j_z, n), ph_eye) + (delta_c / j_z) * np.kron(spin_eye, a.conj().T @ a)
    for i in range(n):
        sm = _dense_site(SIGMA_MINUS, i, n)
        h += (g / j_z) * (np.kron(sm, a.conj().T) + np.kron(sm.conj().T, a))
    psi0 = np.zeros((1 << n) * nph, dtype=complex)
    psi0[_neel_index(n) * nph] = 1.0
    sz_ops = [np.kron(_dense_site(PZ, i, n), ph_eye) for i in range(n)]
    jumps = [(kappa / j_z, np.kron(spin_eye, a))] if kappa > 0 else []
    return _propagate_sz(h, jumps, psi0, sz_ops, t)


def cavity_effective_sz(g, delta_c, kappa, j_xx, j_z, n, t) -> np.ndarray:
    """<sz_i>(t) of the spin-only master equation after eliminating the cavity.

    Exchange (P / j_z) sum_{i != j} s+_i s-_j with P = 4 g^2 delta_c / (4 delta_c^2 + kappa^2),
    and one collective jump S- = sum_i s-_i at rate 2 gamma / j_z with
    gamma = 2 g^2 kappa / (4 delta_c^2 + kappa^2).
    """
    denom = 4.0 * delta_c**2 + kappa**2
    exchange = 4.0 * g**2 * delta_c / denom
    gamma = 2.0 * g**2 * kappa / denom
    h = _xxz(j_xx / j_z, n)
    sps = [_dense_site(SIGMA_PLUS, i, n) for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                h += (exchange / j_z) * (sps[i] @ sps[j].conj().T)
    s_minus = sum(s.conj().T for s in sps)
    psi0 = np.zeros(1 << n, dtype=complex)
    psi0[_neel_index(n)] = 1.0
    jumps = [(2.0 * gamma / j_z, s_minus)] if gamma > 0 else []
    return _propagate_sz(h, jumps, psi0, [_dense_site(PZ, i, n) for i in range(n)], t)
