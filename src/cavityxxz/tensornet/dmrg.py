"""Two-site DMRG ground-state search.

Sweeps optimize a two-site tensor at every bond with an iterative extremal
eigensolver warm-started from the current state, then split it by SVD with a
discarded-weight cut.  The bond-dimension schedule grows per sweep;
convergence is declared when the energy change between two consecutive full
sweeps, both run at the last bond dimension of the schedule, drops below
``energy_tol``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidParams, NotConverged
from ..krylov import lowest_eigenpair
from .mpo import MatrixProductOperator, _advance, _advance_right, expectation
from .mps import MatrixProductState, entropy_profile, random_mps

DEFAULT_SCHEDULE = (16, 32, 64, 128)
_DENSE_LOCAL_DIM = 400
_LOCAL_MAX_ITER = 40


@dataclass(frozen=True)
class DmrgConfig:
    """Sweep schedule and tolerances.

    max_bond_dims is the per-sweep bond-dimension cap (last entry repeats);
    truncation_cut is the largest discarded Schmidt weight allowed at a
    split and may not exceed 1e-6.
    """

    max_bond_dims: tuple = DEFAULT_SCHEDULE
    truncation_cut: float = 1e-6
    energy_tol: float = 1e-9
    max_sweeps: int = 30
    seed: int = 0
    local_tol: float = 1e-11

    def __post_init__(self):
        if not self.max_bond_dims or min(self.max_bond_dims) < 1:
            raise InvalidParams("max_bond_dims must be a non-empty list of positive ints")
        if self.truncation_cut > 1e-6:
            raise InvalidParams("truncation_cut must be <= 1e-6")
        if self.max_sweeps < 1:
            raise InvalidParams("max_sweeps must be >= 1")


@dataclass(frozen=True, eq=False)
class DmrgReport:
    """Outcome of a DMRG run.

    status is 'truncation_exceeded' when the last sweep discarded more weight
    than ``truncation_cut``, else 'ok' or 'not_converged'.
    """

    energy: float
    energies_per_sweep: list[float]
    max_truncation_error: float
    converged: bool
    status: str
    entropy_profile: list[float] = field(repr=False)
    n_sweeps: int = 0
    seed: int = 0


def _mpo_matrix(w):
    """W[w, s', s, w'] as the (s' w', w s) matrix that acts on adjacent (w, s) axes."""
    return w.transpose(1, 3, 0, 2).reshape(w.shape[1] * w.shape[3], w.shape[0] * w.shape[2])


def _local_matvec(lenv, w1, w2, renv, theta):
    """H_eff theta in the order L.theta -> W1 -> W2 -> R.

    Every step is a (batched) matrix product on axes that are already
    adjacent, so no chi^2-sized intermediate is copied by a transpose; R is
    read in place as a transposed GEMM operand.
    """
    a, w, b = lenv.shape
    _, s1, s2, c = theta.shape
    d, x, _ = renv.shape
    v = w1.shape[3]
    t = lenv.reshape(a * w, b) @ theta.reshape(b, s1 * s2 * c)   # (bra, w, s1, s2, ket_r)
    t = _mpo_matrix(w1) @ t.reshape(a, w * s1, s2 * c)            # (bra, s1', v, s2, ket_r)
    t = _mpo_matrix(w2) @ t.reshape(-1, v * s2, c)                # (bra s1', s2', x, ket_r)
    t = t.reshape(-1, x * c) @ renv.reshape(d, x * c).T           # (bra s1' s2', bra_r)
    return t.reshape(a, w1.shape[1], w2.shape[1], d)


def _lanczos_warm(apply_h, v0, tol, max_iter=_LOCAL_MAX_ITER):
    """Lowest eigenpair by Lanczos warm-started from v0; never raises.

    Capped iteration count: an unconverged local solve still lowers the
    Rayleigh quotient, and the outer sweeps polish the rest.
    """
    return lowest_eigenpair(apply_h, v0, tol, max_iter)[:2]


def _dense_heff(lenv, w1, w2, renv):
    """The two-site effective Hamiltonian as a dense (dim, dim) matrix."""
    heff = np.einsum("awb,wstv,vuxz,czd->asucbtxd", lenv, w1, w2, renv, optimize=True)
    dim = lenv.shape[0] * w1.shape[1] * w2.shape[1] * renv.shape[0]
    return heff.reshape(dim, dim)


def _solve_local(lenv, w1, w2, renv, theta0, tol):
    """Lowest eigenpair of the two-site effective Hamiltonian."""
    shape = theta0.shape
    if theta0.size <= _DENSE_LOCAL_DIM:
        evals, evecs = np.linalg.eigh(_dense_heff(lenv, w1, w2, renv))
        return float(evals[0]), evecs[:, 0].reshape(shape)

    def apply_h(x):
        return _local_matvec(lenv, w1, w2, renv, x.reshape(shape)).ravel()

    theta, vec = _lanczos_warm(apply_h, theta0.ravel(), tol)
    return theta, vec.reshape(shape)


# Normalized Schmidt weights below this are numerical noise and always dropped.
_WEIGHT_FLOOR = 1e-14


def _split(theta, chi_max):
    """SVD split of a two-site tensor; returns U, s, Vh and discarded weight.

    Keeps every Schmidt state above the noise floor up to chi_max; weight is
    discarded only when the bond-dimension cap forces it.  The discarded
    weight is returned so the sweep can report it against the quality gate.
    """
    dl, d1, d2, dr = theta.shape
    u, s, vh = np.linalg.svd(theta.reshape(dl * d1, d2 * dr), full_matrices=False)
    weights = s**2
    total = weights.sum()
    rank = int(np.count_nonzero(weights > _WEIGHT_FLOOR * total))
    keep = max(1, min(chi_max, rank))
    discarded = max(float(weights[keep:].sum() / total), 0.0)
    s_kept = s[:keep] / np.sqrt(weights[:keep].sum())
    return (
        u[:, :keep].reshape(dl, d1, keep),
        s_kept,
        vh[:keep].reshape(keep, d2, dr),
        discarded,
    )


def dmrg_ground_state(mpo: MatrixProductOperator, config: DmrgConfig,
                      energy_mpo: MatrixProductOperator | None = None,
                      strict: bool = False):
    """Run two-site DMRG against ``mpo``; returns (mps, DmrgReport).

    ``energy_mpo`` (when given) is used for the reported final energy; sweeps
    still optimize against ``mpo``.  This lets callers sweep with a pinned
    Hamiltonian and report the unpinned energy.  ``strict=True`` raises
    NotConverged instead of returning a flagged report.
    """
    n = mpo.n_sites
    mps = random_mps(n, config.max_bond_dims[0], config.seed)

    rights = [None] * (n + 1)
    rights[n] = np.ones((1, 1, 1))
    for i in range(n - 1, 0, -1):
        rights[i] = _advance_right(rights[i + 1], mps.tensors[i], mpo.tensors[i])
    lefts = [None] * (n + 1)
    lefts[0] = np.ones((1, 1, 1))

    energies: list[float] = []
    converged = False
    max_disc_last_sweep = 0.0
    for sweep in range(config.max_sweeps):
        chi = config.max_bond_dims[min(sweep, len(config.max_bond_dims) - 1)]
        max_disc = 0.0

        for i in range(n - 1):  # left-to-right
            theta0 = np.tensordot(mps.tensors[i], mps.tensors[i + 1], ([2], [0]))
            _, theta = _solve_local(lefts[i], mpo.tensors[i], mpo.tensors[i + 1],
                                    rights[i + 2], theta0, config.local_tol)
            u, s, vh, disc = _split(theta, chi)
            max_disc = max(max_disc, disc)
            mps.tensors[i] = u
            mps.tensors[i + 1] = np.tensordot(np.diag(s), vh, ([1], [0]))
            mps.center = i + 1
            lefts[i + 1] = _advance(lefts[i], u, mpo.tensors[i])

        for i in range(n - 2, -1, -1):  # right-to-left
            theta0 = np.tensordot(mps.tensors[i], mps.tensors[i + 1], ([2], [0]))
            _, theta = _solve_local(lefts[i], mpo.tensors[i], mpo.tensors[i + 1],
                                    rights[i + 2], theta0, config.local_tol)
            u, s, vh, disc = _split(theta, chi)
            max_disc = max(max_disc, disc)
            mps.tensors[i] = np.tensordot(u, np.diag(s), ([2], [0]))
            mps.tensors[i + 1] = vh
            mps.center = i
            rights[i + 1] = _advance_right(rights[i + 2], vh, mpo.tensors[i + 1])

        energies.append(expectation(mps, mpo))
        max_disc_last_sweep = max_disc
        # both compared sweeps must have run at the final bond dimension
        if (sweep >= len(config.max_bond_dims)
                and abs(energies[-1] - energies[-2]) < config.energy_tol):
            converged = True
            break

    if strict and not converged:
        raise NotConverged(config.max_sweeps)

    if max_disc_last_sweep > config.truncation_cut:
        status = "truncation_exceeded"
    else:
        status = "ok" if converged else "not_converged"
    final_energy = expectation(mps, energy_mpo) if energy_mpo is not None else energies[-1]
    report = DmrgReport(
        energy=float(final_energy),
        energies_per_sweep=energies,
        max_truncation_error=max_disc_last_sweep,
        converged=converged,
        status=status,
        entropy_profile=entropy_profile(mps),
        n_sweeps=len(energies),
        seed=config.seed,
    )
    return mps, report


def energy_variance(mps: MatrixProductState, mpo: MatrixProductOperator) -> float:
    """<H^2> - <H>^2; near zero certifies an eigenstate."""
    e1 = expectation(mps, mpo)
    env = np.ones((1, 1, 1, 1))
    for a, w in zip(mps.tensors, mpo.tensors):
        t = np.tensordot(env, a, ([3], [0]))         # (bra, w1, w2, s, ket')
        t = np.tensordot(t, w, ([2, 3], [0, 2]))     # (bra, w1, ket', s', w2')
        t = np.tensordot(t, w, ([1, 3], [0, 2]))     # (bra, ket', w2', s'', w1')
        t = np.tensordot(a, t, ([0, 1], [0, 3]))     # (bra', ket', w2', w1')
        env = t.transpose(0, 3, 2, 1)
    return float(env[0, 0, 0, 0] - e1 * e1)
