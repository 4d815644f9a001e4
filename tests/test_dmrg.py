import numpy as np
import pytest

from cavityxxz.errors import InvalidParams
from cavityxxz.exactdiag import correlators, cut_entanglement_entropy, global_ground_state
from cavityxxz.model import ModelParams
from cavityxxz.tensornet import (
    DmrgConfig,
    build_mpo,
    dmrg_ground_state,
    mps_observables,
    random_mps,
)
from cavityxxz.tensornet import dmrg
from cavityxxz.tensornet.dmrg import _LOCAL_TOL, _dense_heff, _local_matvec

SMALL = DmrgConfig(chi_max=64, max_sweeps=25)


def run(alpha, j, n, config=SMALL):
    p = ModelParams(alpha, j, n)
    return build_mpo(p), dmrg_ground_state(p, config)


def test_config_validation():
    with pytest.raises(InvalidParams):
        DmrgConfig(chi_max=0)
    with pytest.raises(InvalidParams):
        DmrgConfig(truncation_cut=1e-5)
    with pytest.raises(InvalidParams):
        DmrgConfig(max_sweeps=0)
    # NaN fails every comparison, so it would switch the gates off
    for cut in (float("nan"), float("inf"), -1e-9):
        with pytest.raises(InvalidParams, match="truncation_cut"):
            DmrgConfig(truncation_cut=cut)
    for tol in (float("nan"), float("inf"), 0.0, -1e-9):
        with pytest.raises(InvalidParams, match="energy_tol"):
            DmrgConfig(energy_tol=tol)
    DmrgConfig(truncation_cut=0.0)


@pytest.mark.parametrize("j,site,dl,dr", [
    (0.5, 3, 3, 5),   # bulk tensors, MPO bond 7
    (0.0, 3, 3, 5),   # bulk tensors, MPO bond 5
    (0.5, 0, 1, 5),   # first tensor, 1 x ... boundary
    (0.5, 6, 5, 1),   # last tensor, ... x 1 boundary
    (0.0, 6, 3, 1),
])
def test_local_matvec_matches_dense_heff(j, site, dl, dr):
    mpo = build_mpo(ModelParams(1.5, j, 8))
    w1, w2 = mpo[site], mpo[site + 1]
    rng = np.random.default_rng(site)
    lenv = rng.standard_normal((dl, w1.shape[0], dl))
    renv = rng.standard_normal((dr, w2.shape[3], dr))
    theta = rng.standard_normal((dl, 2, 2, dr))
    out = _local_matvec(lenv, w1, w2, renv, theta)
    assert out.shape == theta.shape
    ref = _dense_heff(lenv, w1, w2, renv) @ theta.ravel()
    assert np.abs(out.ravel() - ref).max() < 1e-12


def test_no_convergence_while_schedule_ramps():
    # a product state reaches its energy in the first sweep; convergence
    # still waits for two sweeps at the last bond dimension
    config = DmrgConfig(chi_max=64, max_sweeps=10)
    _, (_, report) = run(0.5, 0.0, 12, config=config)
    assert report.converged
    assert report.n_sweeps >= 4


def test_polarized_ground_state():
    mpo, (mps, report) = run(0.5, 0.0, 12)
    assert abs(report.energy - (-(12 - 1) / 4.0)) <= 1e-8
    assert max(report.entropy_profile) <= 1e-8
    assert report.converged


def test_matches_exact_diagonalization():
    report_ed = global_ground_state(ModelParams(1.5, 0.5, 12))
    mpo, (mps, report) = run(1.5, 0.5, 12)
    assert abs(report.energy - report_ed.energy) <= 1e-8
    s_ed = cut_entanglement_entropy(report_ed.state, 6)
    assert abs(report.entropy_profile[5] - s_ed) <= 1e-4


def test_sweep_energies_monotone():
    for (alpha, j) in [(1.5, 0.5), (2.0, -0.5), (0.5, 1.0)]:
        _, (_, report) = run(alpha, j, 10)
        e = report.energies_per_sweep
        assert all(b <= a + 1e-10 for a, b in zip(e, e[1:]))


def test_observables_match_exact_diagonalization():
    p = ModelParams(1.5, 0.5, 10)
    obs_ed = correlators(global_ground_state(p).state)
    _, (mps, _) = run(1.5, 0.5, 10)
    obs = mps_observables(mps)
    for i in range(10):
        assert abs(obs.sz[i] - obs_ed.sz[i]) < 1e-6
    for (i, j) in [(0, 9), (2, 7), (3, 3), (1, 5)]:
        assert abs(obs.cpm[(i, j)] - obs_ed.cpm[i, j]) < 1e-6
        assert abs(obs.czz[(i, j)] - obs_ed.czz[i, j]) < 1e-6


def test_entropy_profile_reflection_symmetric():
    _, (_, report) = run(1.5, 0.5, 12)
    prof = np.array(report.entropy_profile)
    assert np.abs(prof - prof[::-1]).max() < 1e-3


def test_final_state_canonical_isometries():
    # at rest: right isometries on sites 1..N-1, the norm on site 0
    _, (mps, _) = run(1.5, 0.5, 10)
    for i in range(1, mps.n_sites):
        t = mps.tensors[i]
        m = t.reshape(t.shape[0], -1)
        assert np.abs(m @ m.T - np.eye(t.shape[0])).max() < 1e-10
    assert abs(np.linalg.norm(mps.tensors[0]) - 1.0) < 1e-10


def test_truncation_error_reported_below_gate():
    _, (_, report) = run(1.5, 0.5, 12)
    assert report.max_truncation_error < 1e-6


def test_not_converged_paths():
    config = DmrgConfig(chi_max=8, max_sweeps=1)
    p = ModelParams(1.5, 0.5, 12)
    _, report = dmrg_ground_state(p, config)
    assert not report.converged  # one sweep can never satisfy the energy test


def test_deterministic_given_seed():
    _, (mps_a, rep_a) = run(1.5, 0.5, 10)
    _, (mps_b, rep_b) = run(1.5, 0.5, 10)
    assert rep_a.energy == rep_b.energy
    assert rep_a.energies_per_sweep == rep_b.energies_per_sweep
    assert np.array_equal(np.array(rep_a.entropy_profile), np.array(rep_b.entropy_profile))


def test_pinning_selects_product_state_in_degenerate_phase():
    # without pinning the spin-flip doublet may converge to an entangled cat
    _, (_, report) = run(0.5, 0.5, 10)
    assert max(report.entropy_profile) <= 1e-8
    assert abs(report.energy - (-(10 - 1) / 4.0)) <= 1e-8


def test_default_call_matches_exact_diagonalization_at_su2_point():
    # every sector is degenerate here; the pin selects ED's product state
    p = ModelParams(1.0, 0.0, 10)
    report_ed = global_ground_state(p)
    _, report = dmrg_ground_state(p)
    assert abs(report.energy - report_ed.energy) <= 1e-8
    s_ed = cut_entanglement_entropy(report_ed.state, 5)
    assert abs(report.entropy_profile[4] - s_ed) <= 1e-4


@pytest.mark.slow
def test_large_chain_converges_within_twenty_sweeps():
    # no external oracle at this size: the internal convergence record is the check
    config = DmrgConfig(chi_max=128, max_sweeps=20)
    _, (_, report) = run(2.0, 1.0, 64, config=config)
    assert report.converged
    assert report.n_sweeps <= 20
    e = report.energies_per_sweep
    assert all(b <= a + 1e-10 for a, b in zip(e, e[1:]))
    assert report.max_truncation_error < 1e-6


def _traced_run(monkeypatch, p, config):
    """Run DMRG logging each local Lanczos tolerance, each split's discarded
    weight and each sweep's end (the per-sweep energy evaluation)."""
    log = []
    solve, split, energy = dmrg.lowest_eigenpair, dmrg._split, dmrg.expectation

    def logged_solve(matvec, v0, tol, max_iter):
        log.append(("tol", tol))
        return solve(matvec, v0, tol, max_iter)

    def logged_split(theta, chi_max):
        out = split(theta, chi_max)
        log.append(("disc", out[3]))
        return out

    def logged_energy(mps, mpo):
        log.append(("sweep", None))
        return energy(mps, mpo)

    monkeypatch.setattr(dmrg, "lowest_eigenpair", logged_solve)
    monkeypatch.setattr(dmrg, "_split", logged_split)
    monkeypatch.setattr(dmrg, "expectation", logged_energy)
    _, report = dmrg_ground_state(p, config)
    sweeps, current = [], []
    for kind, value in log:
        if kind == "sweep":
            sweeps.append(current)
            current = []
        else:
            current.append((kind, value))
    return report, sweeps[: report.n_sweeps]


@pytest.mark.parametrize("alpha, j, min_calls", [
    (1.0, 0.0, 0),  # the pinned SU(2) ground state is a product: dense solves only
    (1.5, 0.5, 1),
])
def test_exact_bonds_solve_to_the_tight_tolerance(monkeypatch, alpha, j, min_calls):
    # N = 10 fits under chi_max, so once the ramp passes 32 no bond is cut
    _, sweeps = _traced_run(monkeypatch, ModelParams(alpha, j, 10), DmrgConfig())
    tols = [v for sweep in sweeps[-2:] for k, v in sweep if k == "tol"]
    assert len(tols) >= min_calls
    assert all(t == _LOCAL_TOL for t in tols)


def _tied_and_flat(p, config):
    """Traced runs with the weight-tied tolerance and with it forced to _LOCAL_TOL."""
    with pytest.MonkeyPatch.context() as mp:
        tied = _traced_run(mp, p, config)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dmrg, "_TOL_PER_SQRT_WEIGHT", 0.0)
        flat = _traced_run(mp, p, config)
    return tied, flat


@pytest.fixture(scope="module")
def chi32_runs():
    return _tied_and_flat(ModelParams(1.5, 0.5, 24), DmrgConfig(chi_max=32))


def test_truncated_bonds_loosen_within_the_discarded_weight(chi32_runs):
    (_, sweeps), (_, flat_sweeps) = chi32_runs
    tols = [v for sweep in sweeps for k, v in sweep if k == "tol"]
    worst = max(v for sweep in sweeps for k, v in sweep if k == "disc")
    assert any(t > _LOCAL_TOL for t in tols)
    assert max(tols) <= 1e-2 * np.sqrt(worst)
    assert all(v == _LOCAL_TOL for sweep in flat_sweeps for k, v in sweep if k == "tol")


def test_weight_tied_tolerance_never_raises_the_energy(chi32_runs):
    # at chi 32 the flat run stops 1.4e-9 above the energy its own sweeps
    # converge to, and the tied run ends 1.1e-9 below the flat one
    (tied, _), (flat, _) = chi32_runs
    assert tied.energy <= flat.energy
    assert tied.n_sweeps == flat.n_sweeps
    assert tied.status == flat.status == "ok"


def test_weight_tied_tolerance_keeps_energy_and_sweeps():
    (tied, _), (flat, _) = _tied_and_flat(ModelParams(1.5, 0.5, 24), DmrgConfig(chi_max=64))
    assert abs(tied.energy - flat.energy) <= 1e-9
    assert abs(tied.entropy_profile[11] - flat.entropy_profile[11]) <= 1e-6
    assert tied.n_sweeps == flat.n_sweeps
    assert tied.status == flat.status == "ok"
    assert sum(tied.matvecs_per_sweep) < sum(flat.matvecs_per_sweep)


def test_matvecs_per_sweep_counts_local_matvecs(monkeypatch):
    calls = []
    matvec = dmrg._local_matvec

    def counted(*args):
        calls.append(None)
        return matvec(*args)

    monkeypatch.setattr(dmrg, "_local_matvec", counted)
    _, (_, report) = run(1.5, 0.5, 12)
    assert len(report.matvecs_per_sweep) == report.n_sweeps
    assert sum(report.matvecs_per_sweep) == len(calls) > 0
