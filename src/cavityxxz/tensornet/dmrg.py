"""Two-site DMRG ground-state search.

Sweeps optimize a two-site tensor at every bond with an iterative extremal
eigensolver warm-started from the current state, then split it by SVD with a
discarded-weight cut.  The local solve at a bond runs to the residual
tolerance ``max(_LOCAL_TOL, _TOL_PER_SQRT_WEIGHT * sqrt(w))``, where w is the
weight the last split of that bond discarded at the bond-dimension cap: the
split removes a component of norm sqrt(w) from the solved tensor, so resolving
it much more finely buys nothing.  Exact bonds (w = 0) keep _LOCAL_TOL, which
resolves the pin's splitting.  The bond dimension doubles per sweep up to
``chi_max``; convergence is declared when the energy change between two
consecutive full sweeps, both run at ``chi_max``, drops below ``energy_tol``.

The chain is swept with a PIN_STRENGTH sz field on site 0, which breaks exact
spin-flip ties the way the ED oracle resolves them, and the reported energy
is that of the unpinned H.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidParams
from ..krylov import lowest_eigenpair
from ..model import ModelParams
from .mpo import _advance, _advance_right, build_mpo, expectation
from .mps import entropy_profile, random_mps

PIN_STRENGTH = 1e-8
_DENSE_LOCAL_DIM = 400
_LOCAL_MAX_ITER = 40
_LOCAL_TOL = 1e-11
# Local residual tolerance per unit sqrt(discarded weight) of the bond.
_TOL_PER_SQRT_WEIGHT = 1e-2


def chi_schedule(chi_max: int) -> tuple:
    """Doubling schedule 16, 32, ... capped at chi_max."""
    chis = []
    chi = min(16, chi_max)
    while chi < chi_max:
        chis.append(chi)
        chi *= 2
    chis.append(chi_max)
    return tuple(chis)


@dataclass(frozen=True)
class DmrgConfig:
    """Bond-dimension cap and tolerances.

    chi_max caps the bond dimension, reached by ``chi_schedule``;
    truncation_cut is the largest discarded Schmidt weight allowed at a
    split and lies in [0, 1e-6]; energy_tol is finite and > 0.  The
    comparisons also reject NaN, which would switch the gates off.
    """

    chi_max: int = 128
    truncation_cut: float = 1e-6
    energy_tol: float = 1e-9
    max_sweeps: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.chi_max < 1:
            raise InvalidParams("chi_max must be >= 1")
        if not 0.0 <= self.truncation_cut <= 1e-6:
            raise InvalidParams(f"truncation_cut must lie in [0, 1e-6], got {self.truncation_cut}")
        if not 0.0 < self.energy_tol < np.inf:
            raise InvalidParams(f"energy_tol must be finite and > 0, got {self.energy_tol}")
        if self.max_sweeps < 1:
            raise InvalidParams("max_sweeps must be >= 1")


@dataclass(frozen=True, eq=False)
class DmrgReport:
    """Outcome of a DMRG run.

    status is 'truncation_exceeded' when the last sweep discarded more weight
    than ``truncation_cut``, else 'ok' or 'not_converged'.
    ``matvecs_per_sweep`` counts the Lanczos matvecs of each sweep's local
    solves (dense solves count none).
    """

    energy: float
    energies_per_sweep: list[float]
    max_truncation_error: float
    converged: bool
    status: str
    entropy_profile: list[float] = field(repr=False)
    n_sweeps: int = 0
    matvecs_per_sweep: list[int] = field(default_factory=list)


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


def _lanczos_warm(apply_h, v0, tol):
    """Lanczos warm-started from v0; returns (energy, vec, matvecs, residual).

    Capped at _LOCAL_MAX_ITER matvecs at residual tolerance ``tol``; never
    raises: an unconverged local solve still lowers the Rayleigh quotient, and
    the outer sweeps polish the rest.
    """
    return lowest_eigenpair(apply_h, v0, tol, _LOCAL_MAX_ITER)


def _dense_heff(lenv, w1, w2, renv):
    """The two-site effective Hamiltonian as a dense (dim, dim) matrix."""
    heff = np.einsum("awb,wstv,vuxz,czd->asucbtxd", lenv, w1, w2, renv, optimize=True)
    dim = lenv.shape[0] * w1.shape[1] * w2.shape[1] * renv.shape[0]
    return heff.reshape(dim, dim)


def _solve_local(lenv, w1, w2, renv, theta0, tol):
    """Lowest eigenpair of the two-site effective Hamiltonian; returns
    (energy, theta, matvecs).  Small problems are solved dense (0 matvecs),
    the rest by Lanczos to residual tolerance ``tol``."""
    shape = theta0.shape
    if theta0.size <= _DENSE_LOCAL_DIM:
        evals, evecs = np.linalg.eigh(_dense_heff(lenv, w1, w2, renv))
        return float(evals[0]), evecs[:, 0].reshape(shape), 0

    def apply_h(x):
        return _local_matvec(lenv, w1, w2, renv, x.reshape(shape)).ravel()

    energy, vec, matvecs, _ = _lanczos_warm(apply_h, theta0.ravel(), tol)
    return energy, vec.reshape(shape), matvecs


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
        # a copy: the state at rest holds Vh, and a view of it would keep
        # the whole SVD basis, up to twice the kept rows, alive
        vh[:keep].reshape(keep, d2, dr).copy(),
        discarded,
    )


def dmrg_ground_state(p: ModelParams, config: DmrgConfig = DmrgConfig()):
    """Run two-site DMRG on the pinned chain H; returns (mps, DmrgReport).

    The report's energy is that of the unpinned H; ``energies_per_sweep``
    are those of the swept, pinned one.  A run that hits ``max_sweeps`` first
    is flagged in the report, not raised.

    Bond i is solved to ``max(_LOCAL_TOL, _TOL_PER_SQRT_WEIGHT * sqrt(w_i))``,
    with w_i the weight discarded when bond i was last split in this run: 0
    before its first split, and 0 when that split kept fewer than chi states,
    since it then dropped only noise-floor weights.
    """
    mpo = build_mpo(p, pin_strength=PIN_STRENGTH)
    schedule = chi_schedule(config.chi_max)
    n = len(mpo)
    mps = random_mps(n, schedule[0], config.seed)

    rights = [None] * (n + 1)
    rights[n] = np.ones((1, 1, 1))
    for i in range(n - 1, 0, -1):
        rights[i] = _advance_right(rights[i + 1], mps.tensors[i], mpo[i])
    lefts = [None] * (n + 1)
    lefts[0] = np.ones((1, 1, 1))
    # one sweep: left-to-right over every bond, then back to bond 0, which
    # leaves the state right-canonical with its norm on site 0
    bonds = [(i, True) for i in range(n - 1)] + [(i, False) for i in range(n - 2, -1, -1)]

    energies: list[float] = []
    matvecs_per_sweep: list[int] = []
    discarded = [0.0] * (n - 1)  # per bond, at its last split
    converged = False
    max_disc_last_sweep = 0.0
    for sweep in range(config.max_sweeps):
        chi = schedule[min(sweep, len(schedule) - 1)]
        max_disc = 0.0
        matvecs = 0
        for i, rightward in bonds:
            theta0 = np.tensordot(mps.tensors[i], mps.tensors[i + 1], ([2], [0]))
            tol = max(_LOCAL_TOL, _TOL_PER_SQRT_WEIGHT * np.sqrt(discarded[i]))
            _, theta, used = _solve_local(lefts[i], mpo[i], mpo[i + 1],
                                          rights[i + 2], theta0, tol)
            matvecs += used
            u, s, vh, disc = _split(theta, chi)
            discarded[i] = disc if len(s) == chi else 0.0
            max_disc = max(max_disc, disc)
            if rightward:
                mps.tensors[i] = u
                mps.tensors[i + 1] = np.tensordot(np.diag(s), vh, ([1], [0]))
                lefts[i + 1] = _advance(lefts[i], u, mpo[i])
            else:
                mps.tensors[i] = np.tensordot(u, np.diag(s), ([2], [0]))
                mps.tensors[i + 1] = vh
                rights[i + 1] = _advance_right(rights[i + 2], vh, mpo[i + 1])

        energies.append(expectation(mps, mpo))
        matvecs_per_sweep.append(matvecs)
        max_disc_last_sweep = max_disc
        # both compared sweeps must have run at chi_max
        if sweep >= len(schedule) and abs(energies[-1] - energies[-2]) < config.energy_tol:
            converged = True
            break

    if max_disc_last_sweep > config.truncation_cut:
        status = "truncation_exceeded"
    else:
        status = "ok" if converged else "not_converged"
    report = DmrgReport(
        energy=float(expectation(mps, build_mpo(p))),
        energies_per_sweep=energies,
        max_truncation_error=max_disc_last_sweep,
        converged=converged,
        status=status,
        entropy_profile=entropy_profile(mps),
        n_sweeps=len(energies),
        matvecs_per_sweep=matvecs_per_sweep,
    )
    return mps, report
