import numpy as np
import pytest
from conftest import SM, kron_hamiltonian, site_op
from scipy import sparse
from scipy.linalg import expm

from cavityxxz import cavity
from cavityxxz.cavity import (
    FULL_PHOTON_LIMIT,
    FULL_SITE_LIMIT,
    MAX_SAMPLES,
    CavityParams,
    compare_trajectories,
    effective_hamiltonian,
    effective_params,
    initial_density_matrix,
    simulate_effective,
    simulate_full,
    _initial_spin_state,
    _liouvillian_block,
    _liouvillian_terms,
)
from cavityxxz.errors import GridMismatch, InvalidParams, SizeExceeded, TraceDrift

TWO_PI = 2.0 * np.pi


def test_params_validation():
    with pytest.raises(InvalidParams):
        CavityParams(1.0, 10.0, -1.0, 1.0, 1.0, 2)
    with pytest.raises(InvalidParams):
        CavityParams(1.0, 10.0, 1.0, 1.0, 0.0, 2)
    with pytest.raises(InvalidParams):
        effective_params(CavityParams(1.0, 0.0, 1.0, 1.0, 1.0, 2))
    for k in range(5):
        for bad in (float("nan"), float("inf")):
            rates = [1.0, 10.0, 1.0, 1.0, 1.0]
            rates[k] = bad
            with pytest.raises(InvalidParams, match="must be finite"):
                CavityParams(*rates, 2)


def test_effective_mapping_experimental_numbers():
    cp = CavityParams(g=TWO_PI * 10e3, delta_c=TWO_PI * 50e6, kappa=TWO_PI * 1e6,
                      j_xx=TWO_PI * 50.0, j_z=TWO_PI * 50.0, n_sites=10)
    eff = effective_params(cp)
    assert abs(eff.j_over_n - 0.16) < 1e-12
    assert eff.alpha == 1.0
    assert eff.unitarity_ratio == 100.0
    assert eff.gamma_collective > 0


def test_effective_mapping_limits():
    # kappa -> infinity at fixed g, Delta_c: collective rate falls off as 2 g^2 / kappa
    gammas = [effective_params(CavityParams(1.0, 50.0, k, 1.0, 1.0, 2)).gamma_collective
              for k in (1e3, 1e4, 1e5)]
    assert gammas[0] > gammas[1] > gammas[2]
    assert abs(gammas[2] - 2.0 / 1e5) / (2.0 / 1e5) < 1e-3
    # kappa/Delta_c -> 0: dispersive prefactor approaches g^2/Delta_c to O((kappa/Dc)^2)
    g, dc = 1.0, 100.0
    for kappa in (1.0, 0.5):
        pref = 4 * g**2 * dc / (4 * dc**2 + kappa**2)
        rel = (g**2 / dc - pref) / (g**2 / dc)
        assert abs(rel - (kappa / (2 * dc)) ** 2) < 1e-6


def test_size_guards():
    cp = CavityParams(1.0, 10.0, 1.0, 1.0, 1.0, 5)
    with pytest.raises(SizeExceeded):
        simulate_full(cp, n_max=2, t_end=0.1, dt=0.01)
    with pytest.raises(SizeExceeded):
        simulate_effective(CavityParams(1.0, 10.0, 1.0, 1.0, 1.0, 7), 0.1, 0.01)
    with pytest.raises(SizeExceeded):
        simulate_full(CavityParams(1.0, 10.0, 1.0, 1.0, 1.0, 2), n_max=9,
                      t_end=0.1, dt=0.01)


def test_decoupled_limit_matches_unitary_oracle():
    # g = 0: spins evolve under H_XXZ alone; compare against expm evolution
    cp = CavityParams(g=0.0, delta_c=10.0, kappa=1.0, j_xx=1.3, j_z=1.0, n_sites=3)
    traj = simulate_full(cp, n_max=2, t_end=4.0, dt=1e-3)
    h = kron_hamiltonian(1.3, 0.0, 3)
    psi = np.zeros(8, dtype=complex)
    psi[_initial_spin_state(3, "neel")] = 1.0
    for k, t in enumerate(traj.times):
        if k % 400 != 0:
            continue
        phi = expm(-1j * h * t) @ psi
        for i in range(3):
            sz = np.kron(np.kron(np.eye(1 << (2 - i)), np.diag([-1.0, 1.0])),
                         np.eye(1 << i))
            ref = (phi.conj() @ sz @ phi).real
            assert abs(traj.sigma_z[k, i] - ref) < 1e-8


@pytest.mark.parametrize("delta_c, kappa", [(25.0, 2.0), (-7.0, 3.0), (10.0, 0.0)])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_effective_hamiltonian_is_the_model_at_mapped_j(n, delta_c, kappa):
    # the eliminated exchange is the model's collective term at J = -2N prefactor/J_z
    cp = CavityParams(g=0.3, delta_c=delta_c, kappa=kappa, j_xx=1.4, j_z=0.8, n_sites=n)
    prefactor = 4 * cp.g**2 * cp.delta_c / (4 * cp.delta_c**2 + cp.kappa**2)
    ref = kron_hamiltonian(cp.j_xx / cp.j_z, -2 * n * prefactor / cp.j_z, n)
    assert np.abs(effective_hamiltonian(cp) - ref).max() < 1e-12


def _full_model(g, delta_c, kappa, n, n_max):
    a = np.diag(np.sqrt(np.arange(1, n_max + 1)), 1)
    eye_ph, eye_spin = np.eye(n_max + 1), np.eye(1 << n)
    s_minus = sum(site_op(SM, i, n) for i in range(n))
    h = (np.kron(kron_hamiltonian(1.2, 0.0, n), eye_ph) + delta_c * np.kron(eye_spin, a.T @ a)
         + g * (np.kron(s_minus, a.T) + np.kron(s_minus.conj().T, a)))
    return h, [(kappa, np.kron(eye_spin, a))]


def _effective_model(n):
    s_minus = sum(site_op(SM, i, n) for i in range(n))
    return kron_hamiltonian(1.5, 0.3, n).astype(complex), [(0.7, s_minus)]


@pytest.mark.parametrize("case", ["full", "effective", "no_jumps"])
def test_liouvillian_matches_matrix_form(case):
    if case == "full":
        h, jumps = _full_model(g=0.4, delta_c=3.0, kappa=1.5, n=2, n_max=3)
    elif case == "effective":
        h, jumps = _effective_model(3)
    else:  # kappa = 0 leaves no jump
        h, jumps = _full_model(g=0.4, delta_c=3.0, kappa=0.0, n=2, n_max=3)[0], []
    d = h.shape[0]
    rng = np.random.default_rng(3)
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = x + x.conj().T
    ref = -1j * (h @ rho - rho @ h)
    for rate, op in jumps:
        decay = op.conj().T @ op
        ref += rate * (op @ rho @ op.conj().T - 0.5 * (decay @ rho + rho @ decay))
    lv = _liouvillian_block(_liouvillian_terms(h, jumps), np.ones((d, d), dtype=bool))
    assert np.abs((lv @ rho.ravel()).reshape(d, d) - ref).max() < 1e-12


def test_full_model_runs_at_the_size_limit():
    # a dense Liouvillian here would hold (16 * 9)^4 complex entries, 6.9 GB
    cp = CavityParams(g=0.3, delta_c=5.0, kappa=1.0, j_xx=1.2, j_z=1.0,
                      n_sites=FULL_SITE_LIMIT)
    traj = simulate_full(cp, n_max=FULL_PHOTON_LIMIT, t_end=1e-2, dt=1e-3)
    assert traj.times.shape == (11,)
    assert traj.final_rho.shape == (144, 144)
    assert traj.trace_error.max() < 1e-12
    assert np.abs(traj.sigma_z[0] - [1.0, -1.0, 1.0, -1.0]).max() < 1e-12  # Neel start


def test_single_spin_purcell_decay():
    # N=1, resonant bad cavity: population decays at about 4 g^2 / kappa
    cp = CavityParams(g=0.05, delta_c=0.0, kappa=1.0, j_xx=1.0, j_z=1.0, n_sites=1)
    traj = simulate_full(cp, n_max=3, t_end=40.0, dt=2e-3, initial="up")
    fine = simulate_full(cp, n_max=3, t_end=40.0, dt=5e-4, initial="up")
    # step-halving oracle: observable shift well under tolerance
    assert abs(traj.sigma_z[-1, 0] - fine.sigma_z[-1, 0]) < 1e-6
    pop = (1.0 + traj.sigma_z[:, 0]) / 2.0
    rate = -np.polyfit(traj.times, np.log(pop), 1)[0]
    assert abs(rate - 4 * cp.g**2 / cp.kappa) / (4 * cp.g**2 / cp.kappa) < 0.1


def test_trajectory_state_quality():
    cp = CavityParams(g=0.2, delta_c=5.0, kappa=1.0, j_xx=1.2, j_z=1.0, n_sites=2)
    traj = simulate_full(cp, n_max=4, t_end=5.0, dt=1e-3)
    assert traj.trace_error.max() < 1e-8
    rho = traj.final_rho
    assert np.abs(rho - rho.conj().T).max() < 1e-10
    assert np.linalg.eigvalsh(rho).min() > -1e-8


def test_closed_system_excitation_conservation():
    # kappa = 0 with coupling: <a+a + sum (sz+1)/2> is conserved
    cp = CavityParams(g=0.3, delta_c=2.0, kappa=0.0, j_xx=1.0, j_z=1.0, n_sites=2)
    traj = simulate_full(cp, n_max=4, t_end=5.0, dt=5e-4)
    total = traj.photon + ((1.0 + traj.sigma_z) / 2.0).sum(axis=1)
    assert np.abs(total - total[0]).max() < 1e-8


def test_effective_unitary_invariants():
    cp = CavityParams(g=0.1, delta_c=20.0, kappa=1.0, j_xx=1.5, j_z=1.0, n_sites=3)
    traj = simulate_effective(cp, t_end=5.0, dt=1e-3, include_dissipator=False)
    assert traj.trace_error.max() < 1e-10
    h = effective_hamiltonian(cp)
    rho0 = initial_density_matrix(3, "neel")
    e0 = np.trace(rho0 @ h).real
    e1 = np.trace(traj.final_rho @ h).real
    assert abs(e1 - e0) < 1e-8


def test_adiabatic_elimination_validation():
    # bad cavity, almost unitary: g/kappa = 0.05, Delta_c/kappa = 20
    def deviation(g_over_kappa):
        kappa = 5.0
        cp = CavityParams(g=g_over_kappa * kappa, delta_c=20.0 * kappa, kappa=kappa,
                          j_xx=1.0, j_z=1.0, n_sites=2)
        full = simulate_full(cp, n_max=4, t_end=10.0, dt=8e-4)
        eff = simulate_effective(cp, t_end=10.0, dt=8e-4)
        rep = compare_trajectories(full, eff)
        return max(v["max_abs_deviation"] for k, v in rep.items()
                   if k.startswith("sigma_z"))

    dev = deviation(0.05)
    assert dev <= 5e-2
    assert deviation(0.025) < dev  # doubling kappa/g improves the agreement


def test_deviation_monotone_in_kappa_over_g():
    # fixed g^2/Delta_c, increasing kappa/g: elimination quality improves
    def dev(kappa):
        cp = CavityParams(g=0.25, delta_c=25.0, kappa=kappa, j_xx=1.0, j_z=1.0,
                          n_sites=2)
        full = simulate_full(cp, n_max=6, t_end=10.0, dt=1.5e-3)
        eff = simulate_effective(cp, t_end=10.0, dt=1.5e-3)
        rep = compare_trajectories(full, eff)
        return max(v["max_abs_deviation"] for k, v in rep.items()
                   if k.startswith("sigma_z"))

    ladder = [dev(k) for k in (0.5, 2.0, 4.0)]
    assert ladder[0] > ladder[1] > ladder[2]


def test_elimination_breaks_down_outside_bad_cavity():
    # g = kappa: the reduced description misses the strong hybridization
    cp = CavityParams(g=1.0, delta_c=20.0, kappa=1.0, j_xx=1.0, j_z=1.0, n_sites=2)
    full = simulate_full(cp, n_max=6, t_end=10.0, dt=1e-3)
    eff = simulate_effective(cp, t_end=10.0, dt=1e-3)
    rep = compare_trajectories(full, eff)
    worst = max(v["max_abs_deviation"] for k, v in rep.items()
                if k.startswith("sigma_z"))
    assert worst > 5e-2


def test_dissipator_toggle_scales_with_detuning():
    def toggle_gap(ratio):
        kappa = 1.0
        cp = CavityParams(g=0.05, delta_c=ratio * kappa, kappa=kappa,
                          j_xx=1.0, j_z=1.0, n_sites=2)
        on = simulate_effective(cp, t_end=10.0, dt=1e-3, include_dissipator=True)
        off = simulate_effective(cp, t_end=10.0, dt=1e-3, include_dissipator=False)
        rep = compare_trajectories(on, off)
        return max(v["max_abs_deviation"] for v in rep.values())

    assert toggle_gap(50.0) < toggle_gap(10.0)


def test_compare_trajectories_contract():
    cp = CavityParams(g=0.1, delta_c=10.0, kappa=1.0, j_xx=1.0, j_z=1.0, n_sites=2)
    a = simulate_effective(cp, t_end=1.0, dt=1e-3)
    rep = compare_trajectories(a, a)
    assert all(v["max_abs_deviation"] == 0.0 for v in rep.values())
    b = simulate_effective(cp, t_end=2.0, dt=1e-3)
    with pytest.raises(GridMismatch):
        compare_trajectories(a, b)


def test_compare_trajectories_rejects_different_site_counts():
    def run(n_sites):
        cp = CavityParams(g=0.1, delta_c=10.0, kappa=1.0, j_xx=1.0, j_z=1.0, n_sites=n_sites)
        return simulate_effective(cp, t_end=0.1, dt=1e-3)

    with pytest.raises(GridMismatch, match="sites"):
        compare_trajectories(run(3), run(2))


def test_trajectory_keeps_the_sample_cap():
    # criterion-9 inputs: 12,500 RK4 steps, thinned to at most MAX_SAMPLES samples
    cp = CavityParams(g=0.25, delta_c=100.0, kappa=5.0, j_xx=1.0, j_z=1.0, n_sites=2)
    traj = simulate_effective(cp, t_end=10.0, dt=8e-4)
    assert traj.times.shape[0] <= MAX_SAMPLES
    assert abs(traj.times[-1] - 10.0) < 1e-12


def test_trace_drift_raises_on_unstable_step():
    cp = CavityParams(g=0.1, delta_c=50.0, kappa=1.0, j_xx=1.0, j_z=1.0, n_sites=1)
    with pytest.raises(TraceDrift):
        simulate_full(cp, n_max=3, t_end=10.0, dt=0.5)


def test_trace_drift_retry_halves_the_step():
    # dt = 0.04 drifts beyond TRACE_TOL on these inputs and dt = 0.02 does not
    cp = CavityParams(g=0.25, delta_c=100.0, kappa=5.0, j_xx=1.0, j_z=1.0, n_sites=2)
    retried = simulate_full(cp, n_max=2, t_end=10.0, dt=0.04)
    direct = simulate_full(cp, n_max=2, t_end=10.0, dt=0.02)
    assert retried.meta["halved"] is True and retried.meta["dt"] == 0.02
    assert direct.meta["halved"] is False
    for name in ("times", "sigma_z", "photon", "trace_error"):
        assert np.array_equal(getattr(retried, name), getattr(direct, name))


@pytest.mark.parametrize("t_end, dt", [(1.0, 0.0), (1.0, -0.01), (-1.0, 0.001), (0.0, 0.001)])
def test_time_grid_must_be_positive(t_end, dt):
    cp = CavityParams(g=0.25, delta_c=100.0, kappa=5.0, j_xx=1.0, j_z=1.0, n_sites=2)
    with pytest.raises(InvalidParams, match="dt and t_end must be > 0"):
        simulate_full(cp, n_max=3, t_end=t_end, dt=dt)
    with pytest.raises(InvalidParams, match="dt and t_end must be > 0"):
        simulate_effective(cp, t_end=t_end, dt=dt)


def test_photon_cutoff_adequacy():
    cp = CavityParams(g=0.5, delta_c=100.0, kappa=5.0, j_xx=1.0, j_z=1.0, n_sites=2)
    small = simulate_full(cp, n_max=3, t_end=2.0, dt=5e-4)
    large = simulate_full(cp, n_max=5, t_end=2.0, dt=5e-4)
    assert small.photon.max() < 0.05
    assert np.abs(small.sigma_z - large.sigma_z).max() < 1e-6


def _sparse_liouvillian(hamiltonian, jumps):
    """L on the row-major flattened rho, where A rho B is kron(A, B^T) vec(rho)."""
    eye = sparse.identity(hamiltonian.shape[0], format="csr")
    h = sparse.csr_matrix(hamiltonian)
    lv = -1j * (sparse.kron(h, eye) - sparse.kron(eye, h.T))
    for rate, op in jumps:
        op = sparse.csr_matrix(op)
        decay = op.conj().T @ op
        lv = lv + rate * (sparse.kron(op, op.conj())
                          - 0.5 * sparse.kron(decay, eye) - 0.5 * sparse.kron(eye, decay.T))
    return lv.tocsr()


def _reachable_entries(lv, r0):
    """Entries of vec(rho) that the sparsity pattern of L reaches from r0's nonzeros."""
    pattern = sparse.csr_matrix((np.ones(lv.nnz), lv.indices, lv.indptr), shape=lv.shape)
    mask = r0 != 0
    while True:
        grown = mask | (pattern @ mask.astype(float) > 0)
        if np.array_equal(grown, mask):
            return mask
        mask = grown


def _staged_rk4(rho0, hamiltonian, jumps, t_end, dt, sigma_z_ops, photon_op):
    """Reference: the staged k1..k4 RK4 loop with a sparse L on the whole
    flattened rho, sampled like ``_evolve`` (every ``stride`` steps and after
    the last)."""
    lv = _sparse_liouvillian(hamiltonian, jumps)
    n_steps = max(1, int(round(t_end / dt)))
    stride = -(-n_steps // (MAX_SAMPLES - 1))
    r = rho0.ravel()
    steps, states = [0], [r]
    for step in range(1, n_steps + 1):
        k1 = lv @ r
        k2 = lv @ (r + 0.5 * dt * k1)
        k3 = lv @ (r + 0.5 * dt * k2)
        k4 = lv @ (r + dt * k3)
        r = r + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % stride == 0 or step == n_steps:
            steps.append(step)
            states.append(r)
    ops = sigma_z_ops + ([photon_op] if photon_op is not None else [])
    values = np.array(states) @ np.array([op.T.ravel() for op in ops]).T
    return {"times": np.array(steps) * dt, "sigma_z": values[:, :len(sigma_z_ops)].real,
            "photon": values[:, -1].real if photon_op is not None else None,
            "final_rho": r.reshape(rho0.shape), "tail": n_steps % stride,
            "reachable": _reachable_entries(lv, rho0.ravel()).reshape(rho0.shape)}


@pytest.mark.parametrize("case, entries", [
    ("criterion9_full", 10),       # 2125 steps at stride 2: a one-step tail
    ("criterion9_effective", 5),
    ("closed_full", 9),             # kappa = 0: no jump, no decay to k = 0
    ("size_limit_full", 147),       # 4 sites, n_max = 8, Neel
    ("size_limit_full_up", 628),    # the same from all spins up
])
def test_step_matrix_rk4_matches_staged_rk4(monkeypatch, case, entries):
    calls = []
    evolve = cavity._evolve

    def recording_evolve(*args):
        calls.append(args[:7])
        return evolve(*args)

    monkeypatch.setattr(cavity, "_evolve", recording_evolve)
    kappa = 0.0 if case == "closed_full" else 5.0
    cp = CavityParams(g=0.25, delta_c=100.0, kappa=kappa, j_xx=1.0, j_z=1.0, n_sites=2)
    if case == "criterion9_effective":
        traj = simulate_effective(cp, t_end=1.7, dt=8e-4)
    elif case.startswith("size_limit_full"):
        cp = CavityParams(g=0.3, delta_c=5.0, kappa=1.0, j_xx=1.2, j_z=1.0,
                          n_sites=FULL_SITE_LIMIT)
        traj = simulate_full(cp, n_max=FULL_PHOTON_LIMIT, t_end=5e-2, dt=1e-3,
                             initial="up" if case.endswith("up") else "neel")
    else:
        traj = simulate_full(cp, n_max=4, t_end=1.7, dt=8e-4)
    ref = _staged_rk4(*calls[0])
    if case.startswith("criterion9"):
        assert ref["tail"] > 0
    assert np.array_equal(traj.times, ref["times"])
    assert np.abs(traj.sigma_z - ref["sigma_z"]).max() < 1e-10
    if ref["photon"] is not None:
        assert np.abs(traj.photon - ref["photon"]).max() < 1e-10
    assert np.abs(traj.final_rho - ref["final_rho"]).max() < 1e-10
    outside = ~ref["reachable"]
    assert np.all(traj.final_rho[outside] == 0.0)
    assert np.all(ref["final_rho"][outside] == 0.0)
    assert traj.meta["entries"] == ref["reachable"].sum() == entries
