"""Open-boundary matrix product states over spin-1/2 sites.

Site tensors have shape (left bond, physical, right bond) with physical
index 0 = down, 1 = up (matching the bitmask convention of the exact
solvers).  A mixed-canonical gauge is tracked through ``center``: tensors
left of it satisfy the left-isometry condition, tensors right of it the
right-isometry condition, and the state norm lives on the center tensor.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidBond, InvalidParams
from ..exactdiag import entropy_from_weights
from ..model import SM, SP, SZ

_MAGIC = b"CXMPS"
_VERSION = 1


class MatrixProductState:
    def __init__(self, tensors, center=None, seed=0):
        if tensors[0].shape[0] != 1 or tensors[-1].shape[2] != 1:
            raise InvalidParams("boundary bonds must have dimension 1")
        for a, b in zip(tensors[:-1], tensors[1:]):
            if a.shape[2] != b.shape[0]:
                raise InvalidParams("mismatched bond dimensions between neighboring tensors")
        self.tensors = list(tensors)
        self.center = center
        self.seed = seed

    @property
    def n_sites(self) -> int:
        return len(self.tensors)

    @property
    def bond_dims(self) -> list[int]:
        """Interior bond dimensions, bonds 1..N-1."""
        return [t.shape[2] for t in self.tensors[:-1]]

    def norm(self) -> float:
        if self.center is not None:
            return float(np.linalg.norm(self.tensors[self.center]))
        e = np.ones((1, 1))
        for t in self.tensors:
            e = np.tensordot(np.tensordot(e, t, ([1], [0])), t, ([0, 1], [0, 1]))
        return float(np.sqrt(e[0, 0]))


def random_mps(n_sites: int, bond_dim: int, seed: int = 0) -> MatrixProductState:
    """Normalized right-canonical MPS with gaussian entries; deterministic in seed."""
    if bond_dim < 1:
        raise InvalidParams("bond_dim must be >= 1")
    rng = np.random.default_rng(seed)
    dims = [min(bond_dim, 2**i, 2 ** (n_sites - i)) for i in range(n_sites + 1)]
    tensors = [rng.standard_normal((dims[i], 2, dims[i + 1])) for i in range(n_sites)]
    mps = MatrixProductState(tensors, center=None, seed=seed)
    _right_canonicalize(mps)
    return mps


def _right_canonicalize(mps: MatrixProductState):
    for i in range(mps.n_sites - 1, 0, -1):
        _move_center_left(mps, i)
    a0 = mps.tensors[0]
    nrm = np.linalg.norm(a0)
    if nrm == 0.0:
        raise InvalidParams("cannot normalize a zero state")
    mps.tensors[0] = a0 / nrm
    mps.center = 0


def _move_center_right(mps: MatrixProductState, i: int):
    dl, d, dr = mps.tensors[i].shape
    q, r = np.linalg.qr(mps.tensors[i].reshape(dl * d, dr))
    mps.tensors[i] = q.reshape(dl, d, -1)
    mps.tensors[i + 1] = np.tensordot(r, mps.tensors[i + 1], ([1], [0]))
    mps.center = i + 1


def _move_center_left(mps: MatrixProductState, i: int):
    dl, d, dr = mps.tensors[i].shape
    qt, rt = np.linalg.qr(mps.tensors[i].reshape(dl, d * dr).T)
    mps.tensors[i] = qt.T.reshape(-1, d, dr)
    mps.tensors[i - 1] = np.tensordot(mps.tensors[i - 1], rt.T, ([2], [0]))
    mps.center = i - 1


def center_to(mps: MatrixProductState, site: int):
    """Move the canonical center to ``site`` (canonicalizing first if unset)."""
    if mps.center is None:
        _right_canonicalize(mps)
    while mps.center < site:
        _move_center_right(mps, mps.center)
    while mps.center > site:
        _move_center_left(mps, mps.center)


def bond_spectrum(mps: MatrixProductState, bond: int) -> np.ndarray:
    """Schmidt weights (descending) across ``bond`` (between sites bond-1, bond)."""
    if not 1 <= bond <= mps.n_sites - 1:
        raise InvalidBond(f"bond must lie in 1..{mps.n_sites - 1}, got {bond}")
    center_to(mps, bond - 1)
    dl, d, dr = mps.tensors[bond - 1].shape
    svals = np.linalg.svd(mps.tensors[bond - 1].reshape(dl * d, dr), compute_uv=False)
    w = svals**2
    total = w.sum()
    return w / total if total > 0 else w


def mps_entropy(mps: MatrixProductState, bond: int) -> float:
    """Von Neumann entropy -sum(w ln w) of the Schmidt weights at ``bond``."""
    return entropy_from_weights(bond_spectrum(mps, bond))


def entropy_profile(mps: MatrixProductState) -> list[float]:
    """Entropy at every bond 1..N-1 (single left-to-right pass)."""
    return [mps_entropy(mps, b) for b in range(1, mps.n_sites)]


def site_expectation(mps: MatrixProductState, op: np.ndarray, site: int) -> float:
    center_to(mps, site)
    a = mps.tensors[site]
    return float(np.einsum("asb,st,atb->", a, op, a))


def two_point(mps: MatrixProductState, op_i: np.ndarray, op_j: np.ndarray,
              i: int, j: int) -> float:
    """<op_i(i) op_j(j)> for i < j via a transfer contraction."""
    if not 0 <= i < j < mps.n_sites:
        raise InvalidParams(f"need 0 <= i < j < N, got ({i}, {j})")
    center_to(mps, i)
    a = mps.tensors[i]
    env = np.tensordot(a, _apply_site_op(op_i, a), ([0, 1], [0, 1]))   # (bra, ket)
    for m in range(i + 1, j):
        a = mps.tensors[m]
        # two chi^3 d products; a single 3-operand einsum would cost chi^4 d
        env = np.tensordot(np.tensordot(env, a, ([0], [0])), a, ([0, 1], [0, 1]))
    a = mps.tensors[j]
    return float(np.vdot(np.tensordot(env, a, ([0], [0])), _apply_site_op(op_j, a)))


def _apply_site_op(op: np.ndarray, a: np.ndarray) -> np.ndarray:
    """op acting on the physical index of a site tensor (left, phys, right)."""
    return np.einsum("st,atb->asb", op, a)


@dataclass(frozen=True, eq=False)
class MpsObservables:
    """sz profile plus two-point functions for the requested site pairs."""

    sz: np.ndarray
    czz: dict
    cpm: dict


def mps_observables(mps: MatrixProductState, pairs=None) -> MpsObservables:
    """<sz_i> for all sites and <sz sz>, <S+ S-> for the given (i, j) pairs.

    ``pairs=None`` computes every unordered pair (fine for small chains).
    cpm at i == j returns <S+ S->_i = (1 + <sz_i>)/2.
    """
    n = mps.n_sites
    sz = np.array([site_expectation(mps, SZ, i) for i in range(n)])
    if pairs is None:
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
    czz, cpm = {}, {}
    for i, j in pairs:
        a, b = min(i, j), max(i, j)
        if a == b:
            czz[(i, j)] = 1.0
            cpm[(i, j)] = (1.0 + sz[a]) / 2.0
        else:
            czz[(i, j)] = two_point(mps, SZ, SZ, a, b)
            cpm[(i, j)] = two_point(mps, SP, SM, a, b)
    return MpsObservables(sz=sz, czz=czz, cpm=cpm)


def save_mps(mps: MatrixProductState, path):
    """Versioned binary checkpoint: header (n_sites, seed, bond dims), then
    row-major float64 tensor payloads in site order."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIQ", _VERSION, mps.n_sites, mps.seed))
        dims = [t.shape[0] for t in mps.tensors] + [1]
        fh.write(struct.pack(f"<{len(dims)}I", *dims))
        for t in mps.tensors:
            fh.write(np.ascontiguousarray(t, dtype=np.float64).tobytes())


def load_mps(path) -> MatrixProductState:
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise InvalidParams(f"{path} is not an MPS checkpoint")
        version, n_sites, seed = struct.unpack("<IIQ", fh.read(16))
        if version != _VERSION:
            raise InvalidParams(f"unsupported checkpoint version {version}")
        dims = struct.unpack(f"<{n_sites + 1}I", fh.read(4 * (n_sites + 1)))
        tensors = []
        for i in range(n_sites):
            dl, dr = dims[i], dims[i + 1] if i + 1 < n_sites else 1
            count = dl * 2 * dr
            data = np.frombuffer(fh.read(8 * count), dtype=np.float64)
            tensors.append(data.reshape(dl, 2, dr).copy())
    return MatrixProductState(tensors, center=None, seed=seed)
