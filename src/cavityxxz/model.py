"""Spin-1/2 XXZ chain with a uniform infinite-range XX coupling.

The Hamiltonian on N sites is

    H = -(1/4) sum_bonds [ sz_i sz_{i+1} + alpha (sx_i sx_{i+1} + sy_i sy_{i+1}) ]
        - (J / 4N) sum_{i<j} (sx_i sx_j + sy_i sy_j)

with Pauli matrices ``s``.  The nearest-neighbor ZZ coupling sets the energy
unit.  The all-to-all XX term runs over every unordered pair (adjacent pairs
included) and carries the extensive 1/N normalization; with this sign a
positive J rewards uniform transverse alignment and drives the XY-ordered
phase, while J < 0 penalizes it.

Basis conventions: site 0 is the least-significant bit of a basis bitmask,
bit value 1 means spin-up, and sz|up> = +|up>, so popcount(state) equals the
number of up spins.  H commutes with the total sz, and all solvers work in
fixed-magnetization sectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .errors import InvalidParams, SizeExceeded

OPEN = "open"
PERIODIC = "periodic"

# Memory guard for the full 2^N dense matrix.
DENSE_FULL_LIMIT = 14

# Single-site operators of every backend, local basis 0 = down, 1 = up.
ID2 = np.eye(2)
SZ = np.diag([-1.0, 1.0])
SP = np.array([[0.0, 0.0], [1.0, 0.0]])  # raises down -> up
SM = SP.T


@dataclass(frozen=True)
class ModelParams:
    """Couplings and geometry of one Hamiltonian instance.

    alpha   : transverse/longitudinal anisotropy of the nearest-neighbor term
    j_lr    : strength of the uniform infinite-range XX coupling
    n_sites : chain length N >= 2
    boundary: 'open' (default; used by ED and DMRG) or 'periodic' (used by
              the spin-wave formulas)
    """

    alpha: float
    j_lr: float
    n_sites: int
    boundary: str = OPEN

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and np.isfinite(self.j_lr)):
            raise InvalidParams(f"alpha and j_lr must be finite, got {self.alpha}, {self.j_lr}")
        if self.n_sites < 2:
            raise InvalidParams(f"n_sites must be >= 2, got {self.n_sites}")
        if self.boundary not in (OPEN, PERIODIC):
            raise InvalidParams(f"boundary must be 'open' or 'periodic', got {self.boundary!r}")


@dataclass(frozen=True, eq=False)
class SectorBasis:
    """Ordered basis of the fixed-magnetization block with n_up up spins.

    A state's index is its rank in the ascending ``states``, found by binary
    search (``_rank``), so the basis holds O(dim) memory.
    """

    n_sites: int
    n_up: int
    states: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.states.shape[0]


def _rank(states: np.ndarray, targets):
    """Indices of ``targets`` in the sorted ``states``; KeyError if any is absent."""
    idx = np.minimum(np.searchsorted(states, targets), states.shape[0] - 1)
    if not np.array_equal(states[idx], targets):
        raise KeyError(f"states {np.setdiff1d(targets, states)} not in the sector")
    return idx


def amplitudes(p: ModelParams) -> tuple[float, float, float]:
    """(zz, flip, collective), the one place H's coefficients are written.

    zz multiplies sz_i sz_j and flip sigma+_i sigma-_j + h.c. on each bond;
    collective multiplies sigma+_i sigma-_j + h.c. on each pair i < j.
    """
    return -0.25, -p.alpha / 2.0, -p.j_lr / (2.0 * p.n_sites)


def sector_dim(n_sites: int, n_up: int) -> int:
    """Dimension C(N, n_up) of a magnetization sector, without building it."""
    if not 0 <= n_up <= n_sites:
        raise InvalidParams(f"n_up must lie in 0..{n_sites}, got {n_up}")
    return comb(n_sites, n_up)


def sector_basis(n_sites: int, n_up: int) -> SectorBasis:
    """Build the sorted basis of all bitmasks with popcount n_up.

    Enumerated one site at a time, never as the 2^N range: ``levels[k]`` holds,
    ascending, every mask of the sites seen so far with k bits set.  Adding
    site s maps it to levels[k] followed by levels[k - 1] | 1 << s, still
    ascending since every mask of the first part is below 1 << s.  Only the k
    from which n_up is still reachable are kept, so the peak is about twice
    the result.
    """
    dim = sector_dim(n_sites, n_up)
    empty = np.zeros(0, dtype=np.int64)
    levels = [np.zeros(1, dtype=np.int64)] + [empty] * n_up
    for site in range(n_sites):
        lowest = max(0, n_up - (n_sites - 1 - site))
        # descending, so that levels[k - 1] is still the one without this site;
        # level 0, the empty mask, never changes
        for k in range(min(n_up, site + 1), max(lowest, 1) - 1, -1):
            kept, raised = levels[k], levels[k - 1]
            out = np.empty(kept.shape[0] + raised.shape[0], dtype=np.int64)
            out[:kept.shape[0]] = kept
            np.bitwise_or(raised, 1 << site, out=out[kept.shape[0]:])
            levels[k] = out
        levels[:lowest] = [empty] * lowest
    states = levels[n_up]
    assert states.shape[0] == dim
    return SectorBasis(n_sites, n_up, states)


def magnetization_sectors(n_sites: int) -> list[SectorBasis]:
    """All magnetization sectors, n_up = 0..N; together they cover 2^N states."""
    return [sector_basis(n_sites, n_up) for n_up in range(n_sites + 1)]


def _bonds(p: ModelParams) -> list[tuple[int, int]]:
    bonds = [(i, i + 1) for i in range(p.n_sites - 1)]
    if p.boundary == PERIODIC:
        bonds.append((0, p.n_sites - 1))
    return bonds


def _sector_bonds(p: ModelParams, sector: SectorBasis):
    """(diag, rows, cols) of H's bond terms in one sector: the ZZ diagonal minus
    lr * n_up, and the (row, col) of every nearest-neighbor flip-flop, each of
    amplitude ``flip``.  A periodic 2-site chain lists its one bond twice, so
    the two add up."""
    states = sector.states
    zz, _, lr = amplitudes(p)

    # sz_i sz_j = -1 on an anti-aligned bond, and only there does the flip-flop act
    diag = np.zeros(sector.size)
    rows, cols = [], []
    for i, j in _bonds(p):
        anti = ((states >> i) ^ (states >> j)) & 1
        diag += zz * (1 - 2 * anti)
        col = np.flatnonzero(anti)
        rows.append(_rank(states, states[col] ^ ((1 << i) | (1 << j))))
        cols.append(col)
    diag -= lr * sector.n_up
    return diag, np.concatenate(rows), np.concatenate(cols)


def lowering_map(sector: SectorBasis):
    """Every single flip sigma-_site |states[col]> = |row>, row in the sector below.

    Returns (site, col, row, n_below): one entry per up spin of every basis
    state, with row indexing the n_below states of the sector with one fewer
    up spin in ascending order.
    """
    states = sector.states
    site, col = np.nonzero((states[None, :] >> np.arange(sector.n_sites)[:, None]) & 1)
    below = sector_basis(sector.n_sites, sector.n_up - 1).states if sector.n_up else states[:0]
    return site, col, _rank(below, states[col] ^ (1 << site)), below.shape[0]


def build_dense_hamiltonian(p: ModelParams) -> np.ndarray:
    """Dense 2^N x 2^N matrix of H in bitmask ordering.

    Real symmetric; commutes with total sz, so it is assembled from the
    magnetization-sector blocks and is block diagonal once the basis is
    permuted into sector order.
    """
    if p.n_sites > DENSE_FULL_LIMIT:
        raise SizeExceeded(
            f"dense Hamiltonian limited to n_sites <= {DENSE_FULL_LIMIT}, got {p.n_sites}"
        )
    dim = 1 << p.n_sites
    h = np.zeros((dim, dim))
    for sector in magnetization_sectors(p.n_sites):
        h[np.ix_(sector.states, sector.states)] = sector_dense_block(p, sector)
    return h


def sector_dense_block(p: ModelParams, sector: SectorBasis) -> np.ndarray:
    """Dense block of H restricted to one magnetization sector.

    Assembled from the terms of ``make_sector_matvec``: the flip-flop bonds, the
    diagonal, and the infinite-range term as lr * S+_tot S-_tot (its -lr * n_up
    part sits in the diagonal).  S+_tot S-_tot is n_up on the diagonal and 1
    between two states that lower to a common state below: two distinct states
    share at most one, and every state below is reached from N - n_up + 1
    states here.
    """
    _, flip, lr = amplitudes(p)
    diag, rows, cols = _sector_bonds(p, sector)
    h = np.zeros((sector.size, sector.size))
    np.add.at(h, (rows, cols), flip)
    h[np.diag_indices_from(h)] += diag
    if lr != 0.0 and sector.n_up > 0:
        _, col, row, n_below = lowering_map(sector)
        above = col[np.argsort(row)].reshape(n_below, -1)
        first, second = np.broadcast_arrays(above[:, :, None], above[:, None, :])
        distinct = first != second
        h[first[distinct], second[distinct]] += lr
        h[np.diag_indices_from(h)] += lr * sector.n_up
    return h


def make_sector_matvec(p: ModelParams, sector: SectorBasis):
    """Closure applying the sector block of H; use for repeated matvecs (Lanczos).

    The all-to-all term is a collective-spin operator: with sigma+- the
    single-site raising and lowering operators, sum_{i<j} (sx_i sx_j + sy_i sy_j)
    = 2 sum_{i<j} (sigma+_i sigma-_j + h.c.) = 2 (S+_tot S-_tot - n_up), where
    S+-_tot = sum_i sigma+-_i.  So the sector block is

        diag + hop + lr * lower^T lower,      lr = collective amplitude,

    with ``diag`` the ZZ diagonal minus lr * n_up, ``hop`` the nearest-neighbor
    flip-flop bonds (the flip amplitude each), ``lower`` the map S-_tot into
    the sector with one fewer up spin (built only when n_up > 0 and J != 0)
    and ``lower_t`` its transpose, S+_tot back.  The rows of ``lower`` index
    the lower sector's states in ascending order; only lower^T lower is used,
    so that order is free.  Each call costs one sparse product with ``hop``
    and two single-flip maps through the sector below, in place of
    N(N-1)/2 pair flips.
    """
    # CSR only for the matvec, imported on first use so that the rest of the
    # package loads no scipy: at N = 16, dim 12870, one matvec took 387 us in
    # CSR against 1230 us with np.bincount and 1400 us with np.add.at.
    from scipy import sparse

    dim = sector.size
    _, flip, lr = amplitudes(p)
    diag, rows, cols = _sector_bonds(p, sector)
    hop = sparse.csr_matrix((np.full(rows.shape[0], flip), (rows, cols)), shape=(dim, dim))

    if lr == 0.0 or sector.n_up == 0:
        def matvec(v: np.ndarray) -> np.ndarray:
            return diag * v + hop @ v
        return matvec

    _, col, row, n_below = lowering_map(sector)
    lower = sparse.csr_matrix((np.ones(row.shape[0]), (row, col)), shape=(n_below, dim))
    lower_t = lower.T.tocsr()

    def matvec(v: np.ndarray) -> np.ndarray:
        return diag * v + hop @ v + lr * (lower_t @ (lower @ v))

    return matvec


def polarized_phase_boundary(j_lr: float) -> float:
    """Largest alpha at which the z-polarized product state is the ground state.

    From the one-magnon energies of H (periodic, large N): the uniform magnon
    costs 1 - alpha - J/2 while finite-momentum magnons cost 1 - alpha cos(q),
    so the polarized state destabilizes at alpha = 1 - J/2 for J >= 0 and at
    alpha = 1 for J <= 0.  A closed-form reference only: no solver reads it,
    and every DMRG run applies the pinning field whatever the phase.
    """
    return 1.0 - j_lr / 2.0 if j_lr >= 0.0 else 1.0
