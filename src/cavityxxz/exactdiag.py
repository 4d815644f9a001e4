"""Small-N exact diagonalization: the ground-truth oracle.

Sector-resolved dense and Lanczos solvers, ground-state observables, and the
cut entanglement entropy.  Everything here is used to validate the spin-wave
and DMRG backends at sizes where exactness is affordable.  The global scan
solves only n_up <= N/2 and takes the other sectors from the spin flip, and
every solve checks its size limit from C(N, n_up) before it builds anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidCut, NoConvergence, SizeExceeded
from .krylov import converged, lowest_eigenpair
from .model import (
    ModelParams,
    SectorBasis,
    lowering_map,
    make_sector_matvec,
    sector_basis,
    sector_dense_block,
    sector_dim,
)

DENSE_SECTOR_LIMIT = 4096
LANCZOS_SECTOR_LIMIT = 200_000
LANCZOS_TOL = 1e-10
LANCZOS_MAX_ITER = 500
DEGENERACY_TOL = 1e-9
RESIDUAL_TOL = 1e-8
METHODS = ("auto", "dense")


@dataclass(frozen=True, eq=False)
class SectorState:
    """Normalized ground state of one magnetization sector."""

    params: ModelParams
    n_up: int
    energy: float
    amplitudes: np.ndarray = field(repr=False)
    basis: SectorBasis = field(repr=False)


@dataclass(frozen=True, eq=False)
class Correlators:
    """One- and two-point functions of a sector state.

    sz : per-site <sz_i>
    czz: <sz_i sz_j> (diagonal 1)
    cpm: <S+_i S-_j> (diagonal (1 + <sz_i>)/2); real symmetric for the real
         ground states handled here, which is the Hermitian-symmetry condition
         cpm(i, j) = conj(cpm(j, i)).
    """

    sz: np.ndarray
    czz: np.ndarray
    cpm: np.ndarray


@dataclass(frozen=True, eq=False)
class GroundStateReport:
    """Global minimum over all magnetization sectors."""

    energy: float
    sector: int
    degenerate_sectors: list[int]
    sector_energies: dict[int, float]
    state: SectorState
    observables: Correlators


def lanczos_ground(matvec, dim: int, seed: int = 0):
    """Lowest eigenpair by Lanczos from a seeded random start.

    The seed makes the start vector, and so the result, deterministic.
    Raises NoConvergence if the residual is still above LANCZOS_TOL when the
    budget of LANCZOS_MAX_ITER matvecs runs out.
    """
    v0 = np.random.default_rng(seed).standard_normal(dim)
    energy, vec, iterations, residual = lowest_eigenpair(matvec, v0, LANCZOS_TOL,
                                                         LANCZOS_MAX_ITER)
    if not converged(residual, energy, LANCZOS_TOL):
        raise NoConvergence(iterations, residual)
    return energy, vec


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    """Make the first entry, in basis order, with |v| >= max |v| / 2 positive.

    Not the sign at argmax |v|: mirror-image basis states of a reflection-odd
    state tie for the largest |v|, so the argmax would follow round-off.
    """
    mag = np.abs(vec)
    k = int(np.argmax(mag >= 0.5 * mag.max()))
    return -vec if vec[k] < 0 else vec


def sector_ground_state(p: ModelParams, n_up: int, method: str = "auto",
                        seed: int = 0) -> SectorState:
    """Lowest eigenpair of one magnetization block.

    method 'auto' uses Lanczos at every dimension; 'dense' diagonalizes the
    block (up to DENSE_SECTOR_LIMIT) as the cross-check.  The method and the
    size limits are checked from C(N, n_up) before the basis is built.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    dim = sector_dim(p.n_sites, n_up)
    if method == "dense" and dim > DENSE_SECTOR_LIMIT:
        raise SizeExceeded(f"dense sector solver limited to {DENSE_SECTOR_LIMIT}, got {dim}")
    if method == "auto" and dim > LANCZOS_SECTOR_LIMIT:
        raise SizeExceeded(f"Lanczos sector solver limited to {LANCZOS_SECTOR_LIMIT}, got {dim}")

    basis = sector_basis(p.n_sites, n_up)
    matvec = make_sector_matvec(p, basis)
    if method == "dense":
        evals, evecs = np.linalg.eigh(sector_dense_block(p, basis))
        energy, vec = float(evals[0]), evecs[:, 0]
    else:
        energy, vec = lanczos_ground(matvec, dim, seed=seed)

    vec = _fix_sign(vec / np.linalg.norm(vec))
    resid = float(np.linalg.norm(matvec(vec) - energy * vec))
    if resid > RESIDUAL_TOL:
        raise NoConvergence(0, resid)
    return SectorState(p, n_up, energy, vec, basis)


def global_ground_state(p: ModelParams, method: str = "auto", seed: int = 0) -> GroundStateReport:
    """Scan the magnetization sectors and report the global minimum.

    With no field, the global spin flip maps sector n_up onto N - n_up with
    the same spectrum, so only n_up = 0..N//2 are solved and each energy is
    copied to its mirror.  ``sector_energies`` still lists all N + 1 sectors.
    Sectors within DEGENERACY_TOL of the minimum are listed as degenerate;
    the reported state comes from the lowest-n_up winner, which is always
    one of the solved sectors.
    """
    n = p.n_sites
    states = [sector_ground_state(p, n_up, method=method, seed=seed)
              for n_up in range(n // 2 + 1)]
    energies = {n_up: states[min(n_up, n - n_up)].energy for n_up in range(n + 1)}
    e0 = min(energies.values())
    degenerate = [n_up for n_up, e in energies.items() if e <= e0 + DEGENERACY_TOL]
    winner = states[degenerate[0]]
    return GroundStateReport(
        energy=e0,
        sector=winner.n_up,
        degenerate_sectors=degenerate,
        sector_energies=energies,
        state=winner,
        observables=correlators(winner),
    )


def bipartition_matrix(state: SectorState, cut: int) -> np.ndarray:
    """Amplitudes arranged as a (2^cut, 2^(N-cut)) matrix for the cut."""
    n = state.params.n_sites
    m = np.zeros((1 << cut, 1 << (n - cut)))
    left = state.basis.states & ((1 << cut) - 1)
    right = state.basis.states >> cut
    m[left, right] = state.amplitudes
    return m


def schmidt_coefficients(state: SectorState, cut: int) -> np.ndarray:
    """Schmidt weights (squared singular values) across the cut, descending."""
    n = state.params.n_sites
    if not 1 <= cut <= n - 1:
        raise InvalidCut(f"cut must lie in 1..{n - 1}, got {cut}")
    svals = np.linalg.svd(bipartition_matrix(state, cut), compute_uv=False)
    return svals**2


def entropy_from_weights(weights: np.ndarray) -> float:
    """-sum(w ln w) over the weights above 1e-16; ED cuts and MPS bonds share it."""
    w = weights[weights > 1e-16]
    s = float(-np.sum(w * np.log(w)))
    # +0.0, not the -0.0 that -sum gives for a product state
    return s if s > 0.0 else 0.0


def cut_entanglement_entropy(state: SectorState, cut: int) -> float:
    """Von Neumann entropy -sum(w ln w) of the bipartition at ``cut`` sites.

    Natural logarithm; bounded by min(cut, N-cut) * ln 2.
    """
    return entropy_from_weights(schmidt_coefficients(state, cut))


def correlators(state: SectorState) -> Correlators:
    """sz profile, <sz sz>, and <S+ S-> matrices of a sector state.

    <S+_i S-_j> = <S-_i psi | S-_j psi>, so cpm = M M^T with row i of M the
    state S-_i psi in the sector below.  Within a fixed-magnetization
    eigenstate <S+_j> itself vanishes exactly, so transverse (XY) order shows
    up only as a long-distance plateau of cpm.
    """
    n = state.params.n_sites
    amps = state.amplitudes
    prob = amps**2

    z = 2.0 * ((state.basis.states[:, None] >> np.arange(n)[None, :]) & 1) - 1.0
    sz = prob @ z
    czz = z.T @ (prob[:, None] * z)

    site, col, row, n_below = lowering_map(state.basis)
    lowered = np.zeros((n, n_below))
    lowered[site, row] = amps[col]
    return Correlators(sz=sz, czz=czz, cpm=lowered @ lowered.T)
