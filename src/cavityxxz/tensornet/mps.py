"""Open-boundary matrix product states over spin-1/2 sites.

Site tensors have shape (left bond, physical, right bond) with physical
index 0 = down, 1 = up (matching the bitmask convention of the exact
solvers).  At rest a state is right-canonical with its norm on site 0: every
tensor right of site 0 satisfies the right-isometry condition.  The
constructor establishes that form and DMRG ends every sweep in it.  Reads
never move the gauge: they carry the R factor of a left-to-right QR pass
(``_centers``), which gives each site's center tensor without writing to
``tensors``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from ..errors import InvalidBond, InvalidParams
from ..exactdiag import entropy_from_weights
from ..model import SM, SP, SZ


class MatrixProductState:
    def __init__(self, tensors):
        tensors = list(tensors)
        if tensors[0].shape[0] != 1 or tensors[-1].shape[2] != 1:
            raise InvalidParams("boundary bonds must have dimension 1")
        for a, b in zip(tensors[:-1], tensors[1:]):
            if a.shape[2] != b.shape[0]:
                raise InvalidParams("mismatched bond dimensions between neighboring tensors")
        # right-to-left QR sweep: right isometries on sites 1..N-1
        for i in range(len(tensors) - 1, 0, -1):
            dl, d, dr = tensors[i].shape
            qt, rt = np.linalg.qr(tensors[i].reshape(dl, d * dr).T)
            tensors[i] = qt.T.reshape(-1, d, dr)
            tensors[i - 1] = np.tensordot(tensors[i - 1], rt.T, ([2], [0]))
        nrm = np.linalg.norm(tensors[0])
        if nrm == 0.0:
            raise InvalidParams("cannot normalize a zero state")
        tensors[0] = tensors[0] / nrm
        self.tensors = tensors

    @property
    def n_sites(self) -> int:
        return len(self.tensors)

    @property
    def bond_dims(self) -> list[int]:
        """Interior bond dimensions, bonds 1..N-1."""
        return [t.shape[2] for t in self.tensors[:-1]]


def random_mps(n_sites: int, bond_dim: int, seed: int = 0) -> MatrixProductState:
    """Normalized right-canonical MPS with gaussian entries; deterministic in seed."""
    if bond_dim < 1:
        raise InvalidParams("bond_dim must be >= 1")
    rng = np.random.default_rng(seed)
    dims = [min(bond_dim, 2**i, 2 ** (n_sites - i)) for i in range(n_sites + 1)]
    return MatrixProductState([rng.standard_normal((dims[i], 2, dims[i + 1]))
                               for i in range(n_sites)])


def _centers(mps: MatrixProductState):
    """Yield the center tensor R_i A_i of each site i, left to right.

    R_i is the R factor of the QR of everything left of site i, so R_i A_i is
    the tensor at site i once the sites before it are made left isometries;
    those Q factors are never formed and ``mps.tensors`` is left as it is.
    """
    r = np.ones((1, 1))
    for a in mps.tensors:
        c = np.tensordot(r, a, ([1], [0]))
        yield c
        dl, d, dr = c.shape
        r = np.linalg.qr(c.reshape(dl * d, dr), mode="r")


def _bond_entropy(c: np.ndarray) -> float:
    """Entropy of the Schmidt weights across the right bond of center tensor c."""
    dl, d, dr = c.shape
    w = np.linalg.svd(c.reshape(dl * d, dr), compute_uv=False) ** 2
    total = w.sum()
    return entropy_from_weights(w / total if total > 0 else w)


def mps_entropy(mps: MatrixProductState, bond: int) -> float:
    """Von Neumann entropy -sum(w ln w) of the Schmidt weights at ``bond``
    (between sites bond-1 and bond)."""
    if not 1 <= bond <= mps.n_sites - 1:
        raise InvalidBond(f"bond must lie in 1..{mps.n_sites - 1}, got {bond}")
    return _bond_entropy(next(islice(_centers(mps), bond - 1, None)))


def entropy_profile(mps: MatrixProductState) -> list[float]:
    """Entropy at every bond 1..N-1 (single left-to-right pass)."""
    return [_bond_entropy(c) for c in islice(_centers(mps), mps.n_sites - 1)]


def two_point(mps: MatrixProductState, op_i: np.ndarray, op_j: np.ndarray,
              i: int, j: int) -> float:
    """<op_i(i) op_j(j)> for i < j via a transfer contraction."""
    if not 0 <= i < j < mps.n_sites:
        raise InvalidParams(f"need 0 <= i < j < N, got ({i}, {j})")
    a = next(islice(_centers(mps), i, None))
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
    sz = np.array([float(np.einsum("asb,st,atb->", c, SZ, c)) for c in _centers(mps)])
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
