"""Cavity-QED origin of the infinite-range coupling.

A spin chain with nearest-neighbor XXZ couplings (J_z, J_xx) talks to one
lossy cavity mode through a Tavis-Cummings coupling g; the cavity detuning is
Delta_c and its linewidth kappa.  Adiabatically eliminating the mode in the
bad-cavity limit (kappa >> g) leaves the spin-only master equation with the
exchange prefactor 4 g^2 Delta_c / (4 Delta_c^2 + kappa^2) and a collective
decay prefactor 2 g^2 kappa / (4 Delta_c^2 + kappa^2).  When Delta_c >> kappa/2
the evolution is almost unitary and the chain realizes the dimensionless
model with J/N = 4 g^2 / (Delta_c J_z) and alpha = J_xx / J_z.

Both the full spin+photon master equation and the reduced spin-only one are
written once as the terms (c, A, B) of their generator, L rho = sum c A rho B,
and stepped by the same fixed-step RK4, so the elimination can be validated
directly.  The terms give the entries of rho that L can reach from the initial
state and the dense block of L on them; since L is constant, n RK4 steps are
one product with the n-th power of the RK4 step matrix, and each sample costs
one such product.
All rates are scaled by J_z; trajectory times are the dimensionless tau = J_z t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch, InvalidParams, SizeExceeded, TraceDrift
from .model import SM, SZ, ModelParams, build_dense_hamiltonian

FULL_SITE_LIMIT = 4
FULL_PHOTON_LIMIT = 8
EFFECTIVE_SITE_LIMIT = 6
TRACE_TOL = 1e-6
MAX_SAMPLES = 2001
INITIAL_STATES = ("neel", "up", "down")


@dataclass(frozen=True)
class CavityParams:
    """Physical rates in angular-frequency units (any consistent scale)."""

    g: float
    delta_c: float
    kappa: float
    j_xx: float
    j_z: float
    n_sites: int

    def __post_init__(self):
        if self.kappa < 0:
            raise InvalidParams("kappa must be >= 0")
        if self.j_z == 0:
            raise InvalidParams("j_z must be nonzero for the dimensionless mapping")
        if self.n_sites < 1:
            raise InvalidParams("n_sites must be >= 1")


@dataclass(frozen=True)
class EffectiveParams:
    """Dimensionless couplings of the eliminated-cavity model.

    unitarity_ratio = Delta_c / (kappa/2) and bad_cavity_ratio = kappa / g
    report how deep the point sits in the almost-unitary and bad-cavity
    regimes; they are diagnostics, not hard validity gates.
    """

    alpha: float
    j_over_n: float
    gamma_collective: float
    unitarity_ratio: float
    bad_cavity_ratio: float


def _dispersive_rates(cp: CavityParams) -> tuple[float, float]:
    """Exchange and collective-decay prefactors of the eliminated cavity,
    4 g^2 Delta_c / (4 Delta_c^2 + kappa^2) and 2 g^2 kappa / (4 Delta_c^2 + kappa^2)."""
    denominator = 4.0 * cp.delta_c**2 + cp.kappa**2
    return 4.0 * cp.g**2 * cp.delta_c / denominator, 2.0 * cp.g**2 * cp.kappa / denominator


def effective_params(cp: CavityParams) -> EffectiveParams:
    """Map cavity parameters to the dimensionless chain couplings.

    ``j_over_n`` is the paper's +4 g^2 / (Delta_c J_z), but the integrators
    evolve the model at J/N = -8 g^2 Delta_c / ((4 Delta_c^2 + kappa^2) J_z).
    """
    if cp.delta_c == 0:
        raise InvalidParams("delta_c must be nonzero for the dispersive mapping")
    return EffectiveParams(
        alpha=cp.j_xx / cp.j_z,
        j_over_n=4.0 * cp.g**2 / (cp.delta_c * cp.j_z),
        gamma_collective=_dispersive_rates(cp)[1],
        unitarity_ratio=cp.delta_c / (cp.kappa / 2.0) if cp.kappa > 0 else np.inf,
        bad_cavity_ratio=cp.kappa / cp.g if cp.g != 0 else np.inf,
    )


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled observables of one master-equation integration."""

    times: np.ndarray
    sigma_z: np.ndarray = field(repr=False)  # (samples, n_sites)
    photon: np.ndarray | None = field(repr=False, default=None)
    trace_error: np.ndarray = field(repr=False, default=None)
    meta: dict = field(default_factory=dict)
    final_rho: np.ndarray | None = field(repr=False, default=None)


def _site_op(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    # site 0 is the least significant factor; complex like the density matrix
    return np.kron(np.kron(np.eye(1 << (n_sites - 1 - site)), op),
                   np.eye(1 << site)).astype(complex)


def _chain_hamiltonian(alpha: float, j_lr: float, n_sites: int) -> np.ndarray:
    """The model's H in units of J_z; zero for one spin, which has no bond."""
    if n_sites == 1:
        return np.zeros((2, 2), dtype=complex)
    return build_dense_hamiltonian(ModelParams(alpha, j_lr, n_sites)).astype(complex)


def _initial_spin_state(n_sites: int, which: str) -> int:
    if which not in INITIAL_STATES:
        raise InvalidParams(f"unknown initial state {which!r}")
    if which == "up":
        return (1 << n_sites) - 1
    if which == "down":
        return 0
    return sum(1 << i for i in range(0, n_sites, 2))  # neel


def initial_density_matrix(n_sites: int, which: str = "neel") -> np.ndarray:
    """Pure product density matrix used as the default initial condition."""
    psi = np.zeros(1 << n_sites, dtype=complex)
    psi[_initial_spin_state(n_sites, which)] = 1.0
    return np.outer(psi, psi.conj())


def effective_hamiltonian(cp: CavityParams) -> np.ndarray:
    """Spin-only H (units of J_z) after eliminating the cavity: the model at
    J = -2N prefactor / J_z."""
    j_lr = -2.0 * cp.n_sites * _dispersive_rates(cp)[0] / cp.j_z
    return _chain_hamiltonian(cp.j_xx / cp.j_z, j_lr, cp.n_sites)


def _rk4(r, lv, reads, h_step, n_steps, stride):
    """``n_steps`` RK4 steps of dr/dt = lv r from r, read every ``stride`` steps
    and after the last; returns ``reads @ r`` of every sample, r's included, and
    the final r.

    For a constant dense ``lv`` one RK4 step is exactly r <- P r with
    P = I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24, so a sample costs one product
    with P^stride.
    """
    eye = np.eye(lv.shape[0])
    hl = h_step * lv
    step = eye + hl @ (eye + hl / 2.0 @ (eye + hl / 3.0 @ (eye + hl / 4.0)))
    n_full, tail = divmod(n_steps, stride)
    jump = np.linalg.matrix_power(step, stride)
    values = np.empty((n_full + 1 + (tail > 0), reads.shape[0]), dtype=complex)
    values[0] = reads @ r
    for k in range(1, n_full + 1):
        r = jump @ r
        values[k] = reads @ r
    if tail:
        r = np.linalg.matrix_power(step, tail) @ r
        values[-1] = reads @ r
    return values, r


def _liouvillian_terms(hamiltonian, jumps) -> list:
    """The generator of drho/dt = -i[H, rho] + sum_k rate (J rho J+ - {J+J, rho}/2)
    as its terms (c, A, B), with L rho = sum c A rho B."""
    eye = np.eye(hamiltonian.shape[0])
    terms = [(-1j, hamiltonian, eye), (1j, eye, hamiltonian)]
    for rate, op in jumps:
        dagger = op.conj().T
        decay = dagger @ op
        terms += [(rate, op, dagger), (-rate / 2.0, decay, eye), (-rate / 2.0, eye, decay)]
    return terms


def _reachable(terms, rho0) -> np.ndarray:
    """Mask of the entries of rho that the terms of L reach from the nonzeros of
    rho0; every other entry stays exactly 0 under any L-polynomial."""
    patterns = [((a != 0).astype(float), (b != 0).astype(float)) for _, a, b in terms]
    mask = rho0 != 0
    while True:
        grown, weights = mask.copy(), mask.astype(float)
        for a, b in patterns:
            grown |= a @ weights @ b > 0
        if np.array_equal(grown, mask):
            return mask
        mask = grown


def _liouvillian_block(terms, entries) -> np.ndarray:
    """Dense L[R, R] on the entries R of the row-major flattened rho marked in
    ``entries``: A rho B maps entry (p, q) to (m, n) with weight A[m, p] B[q, n]."""
    m, n = np.nonzero(entries)
    block = np.zeros((m.shape[0], m.shape[0]), dtype=complex)
    for c, a, b in terms:
        block += c * (a[m[:, None], m[None, :]] * b[n[None, :], n[:, None]])
    return block


def _evolve(rho0, hamiltonian, jumps, t_end, dt, sigma_z_ops, photon_op, meta) -> Trajectory:
    """Fixed-step RK4 of the master equation with the generator L of
    ``_liouvillian_terms``.

    Only the entries R of vec(rho) that L reaches from rho0 are carried: L[R, R]
    is assembled dense from the terms, and each sample costs one product with
    the RK4 step matrix raised to the sample stride (``_rk4``).  The trace and
    every observable are read with one product, since tr(rho O) is
    vec(O^T) . vec(rho).  If the trace drifts beyond tolerance the step is
    halved once and the run repeated; a second failure raises TraceDrift.
    """
    if not (dt > 0.0 and t_end > 0.0):
        raise InvalidParams(f"dt and t_end must be > 0, got dt={dt}, t_end={t_end}")
    d = rho0.shape[0]
    terms = _liouvillian_terms(hamiltonian, jumps)
    reached = _reachable(terms, rho0)
    lv_r = _liouvillian_block(terms, reached)
    r0, entries = rho0.ravel(), reached.ravel()
    ops = [np.eye(d)] + sigma_z_ops + ([photon_op] if photon_op is not None else [])
    reads = np.array([op.T.ravel()[entries] for op in ops])
    n = len(sigma_z_ops)

    for attempt, h_step in enumerate((dt, dt / 2.0)):
        n_steps = max(1, int(round(t_end / h_step)))
        stride = -(-n_steps // (MAX_SAMPLES - 1))  # ceiling: at most MAX_SAMPLES samples
        values, last = _rk4(r0[entries], lv_r, reads, h_step, n_steps, stride)
        trace_error = np.abs(values[:, 0].real - 1.0) + np.abs(values[:, 0].imag)
        worst = float(trace_error.max())
        if worst <= TRACE_TOL:
            final = np.zeros(d * d, dtype=complex)
            final[entries] = last
            return Trajectory(
                times=np.minimum(np.arange(len(values)) * stride, n_steps) * h_step,
                sigma_z=values[:, 1:1 + n].real,
                photon=values[:, 1 + n].real if photon_op is not None else None,
                trace_error=trace_error,
                meta=dict(meta, dt=h_step, trace_worst=worst, halved=attempt > 0,
                          entries=int(entries.sum())),
                final_rho=final.reshape(d, d),
            )
    raise TraceDrift(f"trace error {worst:.3e} above {TRACE_TOL} even after halving dt")


def simulate_full(cp: CavityParams, n_max: int, t_end: float, dt: float,
                  initial: str = "neel") -> Trajectory:
    """Integrate the full spin+photon master equation with photon cutoff n_max.

    Returns per-site <sz>, the photon number <a+ a>, and the trace error on a
    shared time grid; times are in units of 1/J_z.  The spin factor is the
    major one of the spin x photon product basis.
    """
    if cp.n_sites > FULL_SITE_LIMIT:
        raise SizeExceeded(f"full simulation limited to {FULL_SITE_LIMIT} sites")
    if n_max > FULL_PHOTON_LIMIT:
        raise SizeExceeded(f"photon cutoff limited to {FULL_PHOTON_LIMIT}")
    n = cp.n_sites
    a = np.diag(np.sqrt(np.arange(1, n_max + 1)), 1)
    number = a.T @ a
    eye_ph, eye_spin = np.eye(n_max + 1), np.eye(1 << n)
    s_minus = sum(_site_op(SM, i, n) for i in range(n))

    h = (np.kron(_chain_hamiltonian(cp.j_xx / cp.j_z, 0.0, n), eye_ph)
         + (cp.delta_c / cp.j_z) * np.kron(eye_spin, number)
         + (cp.g / cp.j_z) * (np.kron(s_minus, a.T) + np.kron(s_minus.T, a)))
    vacuum = np.zeros((n_max + 1, n_max + 1))
    vacuum[0, 0] = 1.0
    rho0 = np.kron(initial_density_matrix(n, initial), vacuum)
    jumps = [(cp.kappa / cp.j_z, np.kron(eye_spin, a))] if cp.kappa > 0 else []
    sigma_z_ops = [np.kron(_site_op(SZ, i, n), eye_ph) for i in range(n)]
    return _evolve(rho0, h, jumps, t_end, dt, sigma_z_ops, np.kron(eye_spin, number),
                   {"model": "full", "n_max": n_max, "initial": initial})


def simulate_effective(cp: CavityParams, t_end: float, dt: float,
                       include_dissipator: bool = True,
                       initial: str = "neel") -> Trajectory:
    """Integrate the spin-only master equation after cavity elimination.

    The exchange term uses the exact dispersive prefactor
    4 g^2 Delta_c / (4 Delta_c^2 + kappa^2) over all ordered pairs i != j; the
    i = j diagonal (a constant plus a uniform sz field, both dynamically inert
    for these observables) is dropped and reported in meta.  The collective
    dissipator keeps the full double sum, i.e. the jump operator is
    S- = sum_i sigma^-_i, which preserves complete positivity.
    """
    if cp.n_sites > EFFECTIVE_SITE_LIMIT:
        raise SizeExceeded(f"effective simulation limited to {EFFECTIVE_SITE_LIMIT} sites")
    n = cp.n_sites
    prefactor, gamma = _dispersive_rates(cp)
    jumps = []
    if include_dissipator and gamma > 0:
        jumps.append((2.0 * gamma / cp.j_z, sum(_site_op(SM, i, n) for i in range(n))))
    meta = {
        "model": "effective",
        "initial": initial,
        "include_dissipator": include_dissipator,
        "dropped_onsite_constant": prefactor / cp.j_z * n / 2.0,
        "dropped_uniform_field": prefactor / cp.j_z / 2.0,
    }
    return _evolve(initial_density_matrix(n, initial), effective_hamiltonian(cp), jumps,
                   t_end, dt, [_site_op(SZ, i, n) for i in range(n)], None, meta)


def compare_trajectories(a: Trajectory, b: Trajectory) -> dict:
    """Per-observable max |deviation| and when it occurs; time grids and site
    counts must match."""
    if a.times.shape != b.times.shape or not np.allclose(a.times, b.times, atol=1e-12):
        raise GridMismatch("trajectories were sampled on different time grids")
    if a.sigma_z.shape[1] != b.sigma_z.shape[1]:
        raise GridMismatch(f"trajectories have {a.sigma_z.shape[1]} and "
                           f"{b.sigma_z.shape[1]} sites")
    report = {}
    for i in range(a.sigma_z.shape[1]):
        dev = np.abs(a.sigma_z[:, i] - b.sigma_z[:, i])
        k = int(np.argmax(dev))
        report[f"sigma_z_{i}"] = {"max_abs_deviation": float(dev[k]),
                                  "time": float(a.times[k])}
    if a.photon is not None and b.photon is not None:
        dev = np.abs(a.photon - b.photon)
        k = int(np.argmax(dev))
        report["photon"] = {"max_abs_deviation": float(dev[k]), "time": float(a.times[k])}
    return report
