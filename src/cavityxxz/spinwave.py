"""Analytic spin-wave phase boundaries (periodic chain, even N).

Two Holstein-Primakoff expansions feed the classifier:

* about the z-polarized vacuum: magnon dispersion

      omega_k = 1 - alpha cos(2 pi k / N) + (J/N) sum_{r=1}^{N/2} cos(2 pi k r / N)

  whose soft mode locates the ferromagnetic boundary at alpha = 1 for J >= 0
  and alpha = 1 + J/2 for J <= 0.  Every omega_k is linear in alpha, so the
  finite-N soft-mode root is found in closed form.  The J term disagrees with
  the model's H, whose exact one-magnon energies are 1 - alpha - J(N-1)/2N
  at k = 0 and 1 - alpha cos(2 pi k / N) + J/2N otherwise: ED and
  model.polarized_phase_boundary put the boundary at 1 - J/2 for J >= 0;

* about the x-polarized vacuum: quadratic boson Hamiltonian with

      omega_k = (alpha + J/2) - (1+alpha)/2 cos(2 pi k / N) - (J/2N) sum_r cos(2 pi k r / N)
      mu_k    = (1-alpha)/2 cos(2 pi k / N) + (J/2N) sum_r cos(2 pi k r / N)

  diagonalized by a Bogoliubov rotation with quasiparticle energy
  E_k = 2 sqrt(omega_k^2 - mu_k^2).  Away from k = 0 this agrees with the
  model's H up to O(J/N) terms, and the thermodynamic integrand (no
  lattice-sum term) agrees exactly.  At k = 0 the model gives
  mu_0 = (1-alpha)/2 - J/4, so omega_0 - mu_0 = alpha - 1 + J/2 and
  omega_0 + mu_0 = 0 (the Goldstone mode); the J/4 here has the other sign,
  which keeps k = 0 unstable up to alpha = 1 for J > 0.  The density of excitations in the
  Bogoliubov vacuum decides between quasi-long-range order (log-divergent
  with N, at J = 0) and true U(1) symmetry breaking (convergent, J > 0).

Mode sums use the integer mode index k with momentum 2 pi k / N throughout,
on the single-cover zone k = -N/2 + 1 .. N/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import PHASE_FM, PHASE_TLL, PHASE_XY
from .errors import InvalidParams, ModeInstability, Unclassifiable
from .model import PERIODIC, ModelParams

STABILITY_TOL = 1e-12
# ln N slope above which the excitation-density series counts as divergent;
# the convergent case has slope -> 0, so the separation is clean at desk scale.
DIVERGENCE_SLOPE = 0.01
DEFAULT_N_LADDER = (64, 128, 256, 512, 1024, 2048, 4096)

FM_VACUUM = "fm_z"
XY_VACUUM = "xy_x"


@dataclass(frozen=True, eq=False)
class SpinWaveSpectrum:
    """Per-mode table (k, omega, mu, E) plus the stability verdict."""

    params: ModelParams
    vacuum: str
    k_index: np.ndarray = field(repr=False)
    omega: np.ndarray = field(repr=False)
    mu: np.ndarray = field(repr=False)
    energy: np.ndarray = field(repr=False)
    min_energy: float
    stable: bool
    unstable_k: list[int]


@dataclass(frozen=True)
class ExcitationDensityResult:
    """Finite-size series of <a+ a> and its large-N classification.

    value is the density at the largest sampled N for a convergent series and
    math.inf as the divergence marker otherwise.
    """

    value: float
    finite_n_series: list[tuple[int, float]]
    classification: str
    slope: float
    intercept: float


def _require_periodic_even(p: ModelParams):
    if p.boundary != PERIODIC:
        raise InvalidParams("spin-wave formulas assume periodic boundary conditions")
    if p.n_sites % 2 != 0:
        raise InvalidParams("spin-wave mode sums require even N")


def k_indices(n_sites: int) -> np.ndarray:
    """Single-cover Brillouin zone labels -N/2+1 .. N/2."""
    return np.arange(-n_sites // 2 + 1, n_sites // 2 + 1)


def half_range_cosine_sum(k, n_sites: int):
    """sum_{r=1}^{N/2} cos(2 pi k r / N) in closed form.

    Geometric-series evaluation: N/2 for k = 0 (mod N), 0 for even k, and -1
    for odd k.
    """
    k = np.asarray(k)
    out = np.where(k % 2 == 0, 0.0, -1.0)
    out = np.where(k % n_sites == 0, n_sites / 2.0, out)
    return out if out.ndim else float(out)


def fm_dispersion(p: ModelParams, k) -> np.ndarray | float:
    """Magnon energy omega_k above the z-polarized vacuum.

    At k = 0 the J term has the opposite sign to the model's H: ED and
    model.polarized_phase_boundary give the uniform magnon 1 - alpha - J/2
    and so the boundary 1 - J/2 for J >= 0, where this gives 1 - alpha + J/2.
    """
    _require_periodic_even(p)
    k = np.asarray(k)
    q = 2.0 * np.pi * k / p.n_sites
    w = 1.0 - p.alpha * np.cos(q) + (p.j_lr / p.n_sites) * half_range_cosine_sum(k, p.n_sites)
    return w if w.ndim else float(w)


def _spectrum(p: ModelParams, vacuum: str, ks, omega, mu, energy) -> SpinWaveSpectrum:
    """Spectrum table; non-finite energies mark the modes where the expansion fails."""
    bad = [int(k) for k, e in zip(ks, energy) if not np.isfinite(e)]
    finite = energy[np.isfinite(energy)]
    min_e = float(finite.min()) if finite.size else math.nan
    return SpinWaveSpectrum(
        params=p,
        vacuum=vacuum,
        k_index=ks,
        omega=omega,
        mu=mu,
        energy=energy,
        min_energy=min_e,
        stable=not bad and min_e > -STABILITY_TOL,
        unstable_k=bad,
    )


def fm_spectrum(p: ModelParams) -> SpinWaveSpectrum:
    ks = k_indices(p.n_sites)
    omega = fm_dispersion(p, ks)
    return _spectrum(p, FM_VACUUM, ks, omega, np.zeros_like(omega), omega)


def fm_phase_boundary(j_lr: float) -> float:
    """Ferromagnetic boundary alpha*(J): 1 for J >= 0, 1 + J/2 for J < 0.

    This is the soft mode of fm_dispersion.  ED and
    model.polarized_phase_boundary put the boundary at 1 - J/2 for J >= 0;
    see fm_dispersion for the sign of the J term.
    """
    return 1.0 if j_lr >= 0.0 else 1.0 + j_lr / 2.0


def fm_boundary_root(j_lr: float, n_sites: int = 2048) -> float:
    """Root of min_k omega_k in alpha at finite N, in closed form.

    omega_k = omega_k(0) - alpha cos q_k is linear in alpha, so from a stable
    vacuum at alpha = 0 the first mode to go soft is the one with cos q_k > 0
    that minimizes omega_k(0) / cos q_k.  Raises ValueError when the vacuum is
    unstable at alpha = 0 or the root is not in (0, 4].
    """
    ks = k_indices(n_sites)
    omega0 = fm_dispersion(ModelParams(0.0, j_lr, n_sites, boundary=PERIODIC), ks)
    cos_q = np.cos(2.0 * np.pi * ks / n_sites)
    softening = cos_q > 0.0
    root = float(np.min(omega0[softening] / cos_q[softening]))
    if not (omega0 > 0.0).all() or not 0.0 < root <= 4.0:
        raise ValueError(f"no soft-mode root in (0, 4] at J={j_lr}, N={n_sites}")
    return root


def _xy_omega_mu(alpha: float, j_lr: float, q, lr):
    """omega and mu of the x-polarized expansion; lr is the lattice-sum term."""
    omega = (alpha + j_lr / 2.0) - 0.5 * (1.0 + alpha) * np.cos(q) - lr
    mu = 0.5 * (1.0 - alpha) * np.cos(q) + lr
    return omega, mu


def _occupation(omega, mu):
    """Bogoliubov-vacuum occupation [1 - mu^2/omega^2]^(-1/2) - 1 of one mode."""
    return 1.0 / np.sqrt(1.0 - (mu / omega) ** 2) - 1.0


def xy_coefficients(p: ModelParams, k):
    """(omega_k, mu_k) of the quadratic expansion about the x-polarized vacuum."""
    _require_periodic_even(p)
    k = np.asarray(k)
    q = 2.0 * np.pi * k / p.n_sites
    lr = (p.j_lr / (2.0 * p.n_sites)) * half_range_cosine_sum(k, p.n_sites)
    omega, mu = _xy_omega_mu(p.alpha, p.j_lr, q, lr)
    if omega.ndim:
        return omega, mu
    return float(omega), float(mu)


def bogoliubov_energy(omega, mu):
    """Quasiparticle energy 2 sqrt(omega^2 - mu^2); NaN marks omega^2 < mu^2.

    An invalid mode signals the expansion broke down (different phase), so a
    tagged marker is returned instead of a complex number.
    """
    omega = np.asarray(omega, dtype=float)
    mu = np.asarray(mu, dtype=float)
    disc = omega**2 - mu**2
    e = np.where(disc >= 0.0, 2.0 * np.sqrt(np.abs(disc)), np.nan)
    return e if e.ndim else float(e)


def xy_spectrum(p: ModelParams) -> SpinWaveSpectrum:
    ks = k_indices(p.n_sites)
    omega, mu = xy_coefficients(p, ks)
    return _spectrum(p, XY_VACUUM, ks, omega, mu, bogoliubov_energy(omega, mu))


def xy_integrand(alpha: float, j_lr: float, q) -> np.ndarray | float:
    """Thermodynamic-limit excitation-density integrand [1 - mu^2/omega^2]^(-1/2) - 1.

    Away from q = 0 the lattice sum corrections vanish as 1/N, leaving
    omega(q) = (alpha + J/2) - (1+alpha)/2 cos q and mu(q) = (1-alpha)/2 cos q.
    Bounded near q = 0 for J > 0; diverges as 1/|q| at J = 0.
    """
    out = _occupation(*_xy_omega_mu(alpha, j_lr, np.asarray(q, dtype=float), 0.0))
    return out if out.ndim else float(out)


def excitation_density(p: ModelParams, n_list=DEFAULT_N_LADDER) -> ExcitationDensityResult:
    """Bogoliubov excitation density (1/2N) sum_{k != 0} ([1 - mu^2/omega^2]^(-1/2) - 1).

    Evaluated for each size in ``n_list`` (at least two, increasing, even),
    then fitted against ln N over the largest sampled decade; slope > 0.01
    classifies the series as log-divergent.  The k = 0 mode is excluded from
    the sum.  Raises ModeInstability if any sampled mode has omega^2 < mu^2.
    """
    ns = tuple(n_list)
    if len(ns) < 2 or any(n % 2 for n in ns) or list(ns) != sorted(set(ns)):
        raise InvalidParams("n_list must be an increasing list of at least two even sizes")
    series: list[tuple[int, float]] = []
    for n in ns:
        pn = ModelParams(p.alpha, p.j_lr, n, boundary=PERIODIC)
        ks = k_indices(n)
        ks = ks[ks != 0]
        omega, mu = xy_coefficients(pn, ks)
        disc = omega**2 - mu**2
        if np.any(disc <= 0.0):
            bad = [int(k) for k, d in zip(ks, disc) if d <= 0.0]
            raise ModeInstability(
                f"x-polarized expansion invalid at alpha={p.alpha}, J={p.j_lr}, N={n}",
                modes=bad,
            )
        series.append((n, float(_occupation(omega, mu).sum() / (2.0 * n))))

    ns_arr = np.array([s[0] for s in series], dtype=float)
    dens = np.array([s[1] for s in series])
    window = ns_arr >= ns_arr.max() / 10.0
    if window.sum() < 2:
        window = np.ones_like(ns_arr, dtype=bool)
    design = np.vstack([np.log(ns_arr[window]), np.ones(int(window.sum()))]).T
    slope, intercept = np.linalg.lstsq(design, dens[window], rcond=None)[0]
    divergent = slope > DIVERGENCE_SLOPE
    return ExcitationDensityResult(
        value=math.inf if divergent else float(dens[-1]),
        finite_n_series=series,
        classification="log_divergent" if divergent else "convergent",
        slope=float(slope),
        intercept=float(intercept),
    )


def classify_spinwave(p: ModelParams, n_list=DEFAULT_N_LADDER) -> str:
    """Phase label from spin-wave theory: FM, TLL, or XY_SSB.

    FM below the soft-mode boundary; on the J = 0 line above it the
    excitation density diverges logarithmically (TLL); for J != 0 a
    convergent density signals true U(1) symmetry breaking.  Points where
    the x-polarized expansion itself is invalid raise Unclassifiable.
    """
    if p.alpha <= fm_phase_boundary(p.j_lr) + STABILITY_TOL:
        return PHASE_FM
    if p.j_lr == 0.0:
        return PHASE_TLL
    try:
        result = excitation_density(p, n_list=n_list)
    except ModeInstability as exc:
        raise Unclassifiable(
            f"x-polarized expansion invalid at alpha={p.alpha}, J={p.j_lr}"
        ) from exc
    if result.classification == "convergent":
        return PHASE_XY
    raise Unclassifiable(
        f"excitation density diverges at alpha={p.alpha}, J={p.j_lr} despite J != 0"
    )
