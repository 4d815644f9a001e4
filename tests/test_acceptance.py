"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  The heavy DMRG criteria take minutes each.
"""

import numpy as np
import pytest

from cavityxxz.analysis import fit_central_charge
from cavityxxz.cavity import (
    CavityParams,
    compare_trajectories,
    effective_params,
    simulate_effective,
    simulate_full,
)
from cavityxxz.exactdiag import cut_entanglement_entropy, global_ground_state
from cavityxxz.model import ModelParams, build_dense_hamiltonian
from cavityxxz.records import load_json
from cavityxxz.spinwave import excitation_density, fm_boundary_root, xy_integrand
from cavityxxz.sweep import SweepGrid, run_sweep
from cavityxxz.tensornet import DmrgConfig, build_mpo, dmrg_ground_state, mpo_to_dense

TWO_PI = 2.0 * np.pi


def report(tag, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


def run_dmrg(alpha, j, n, chi_max=128, max_sweeps=30):
    config = DmrgConfig(chi_max=chi_max, max_sweeps=max_sweeps)
    return dmrg_ground_state(ModelParams(alpha, j, n), config)


def test_criterion_1_oracle_equivalence():
    """DMRG equals exact diagonalization across the 16-point grid."""
    worst_e, worst_s, checked = 0.0, 0.0, 0
    for n in (8, 10, 12):
        for alpha in (0.5, 1.0, 1.5, 2.0):
            for j in (-0.5, 0.0, 0.5, 1.0):
                ed = global_ground_state(ModelParams(alpha, j, n))
                s_ed = cut_entanglement_entropy(ed.state, n // 2)
                _, rep = run_dmrg(alpha, j, n, chi_max=64)
                de = abs(rep.energy - ed.energy)
                ds = abs(rep.entropy_profile[n // 2 - 1] - s_ed)
                worst_e, worst_s = max(worst_e, de), max(worst_s, ds)
                checked += 1
    ok = worst_e <= 1e-7 and worst_s <= 1e-4
    report("criterion 1 (oracle equivalence)", ok,
           f"{checked} runs, max |dE| = {worst_e:.2e} (tol 1e-7), "
           f"max |dS| = {worst_s:.2e} (tol 1e-4)")


def test_criterion_2_mpo_exactness():
    """Dense MPO contraction reproduces the Hamiltonian to 1e-12."""
    worst = 0.0
    for n in (2, 3, 4, 5, 6):
        for alpha in (0.5, 1.25, 2.0):
            for j in (-0.5, 0.0, 1.0):
                p = ModelParams(alpha, j, n)
                err = np.abs(mpo_to_dense(build_mpo(p))
                             - build_dense_hamiltonian(p)).max()
                worst = max(worst, err)
    report("criterion 2 (MPO exactness)", worst <= 1e-12,
           f"N in 2..6, 3x3 grid, max |dense(MPO) - H| = {worst:.2e} (tol 1e-12)")


def test_criterion_3_fm_boundary():
    """Soft-mode root of the magnon dispersion at N = 2048."""
    worst = 0.0
    for j in (0.5, 1.0, 2.0):
        worst = max(worst, abs(fm_boundary_root(j, 2048) - 1.0))
    for j in (-0.5, -1.0):
        worst = max(worst, abs(fm_boundary_root(j, 2048) - (1.0 + j / 2.0)))
    report("criterion 3 (FM boundary)", worst <= 1e-3,
           f"max |alpha_root - alpha*| = {worst:.2e} (tol 1e-3)")


def test_criterion_4_fm_entropy():
    """Polarized phase: flat zero entropy and c fitted to zero."""
    points, smax = [], 0.0
    for size in (16, 32, 64):
        _, rep = run_dmrg(0.5, 0.5, size)
        s = rep.entropy_profile[size // 2 - 1]
        smax = max(smax, s)
        points.append((size, s))
    fit = fit_central_charge(points)
    ok = smax <= 1e-6 and abs(fit.c) <= 0.01
    report("criterion 4 (FM entropy)", ok,
           f"max S_half = {smax:.2e} (tol 1e-6), c = {fit.c:.2e} (tol 0.01)")


def entropy_series(alpha, j, sizes=(16, 24, 32, 48, 64)):
    points = []
    for size in sizes:
        _, rep = run_dmrg(alpha, j, size)
        assert rep.converged
        assert rep.max_truncation_error < 1e-6
        points.append((size, rep.entropy_profile[size // 2 - 1]))
    return points


def test_criterion_5_tll_central_charge():
    """Critical line at J = 0 shows c = 1 within +-0.15."""
    fit = fit_central_charge(entropy_series(1.5, 0.0))
    report("criterion 5 (TLL central charge)", abs(fit.c - 1.0) <= 0.15,
           f"c = {fit.c:.3f} +- {fit.ci_halfwidth:.3f} (target 1.0 +- 0.15)")


def test_criterion_6_ssb_central_charge():
    """Symmetry-broken phase at J = 0.5 shows c clearly above 1."""
    fit = fit_central_charge(entropy_series(1.5, 0.5))
    report("criterion 6 (SSB central charge)", fit.c > 1.2,
           f"c = {fit.c:.3f} +- {fit.ci_halfwidth:.3f} (must exceed 1.2)")


def test_criterion_7_log_divergence_dichotomy():
    """Excitation density: ln N divergence at J = 0, convergence at J = 0.5."""
    ladder = (64, 128, 256, 512, 1024, 2048, 4096)
    d0 = excitation_density(ModelParams(1.5, 0.0, 64, boundary="periodic"), ladder)
    dj = excitation_density(ModelParams(1.5, 0.5, 64, boundary="periodic"), ladder)
    q = np.logspace(-4, -2, 50)
    islope = np.polyfit(np.log(q), np.log(xy_integrand(1.5, 0.0, q)), 1)[0]
    ok = (d0.slope > 0.01 and d0.classification == "log_divergent"
          and dj.slope < 0.005 and dj.classification == "convergent"
          and abs(islope - (-1.0)) <= 0.05)
    report("criterion 7 (log-divergence dichotomy)", ok,
           f"slope(J=0) = {d0.slope:.3f} (> 0.01), slope(J=0.5) = {dj.slope:.1e} "
           f"(< 0.005), integrand slope = {islope:.3f} (-1 +- 0.05)")


def test_criterion_8_effective_parameter_mapping():
    """Experimental numbers map to J/N = 0.16."""
    cp = CavityParams(g=TWO_PI * 10e3, delta_c=TWO_PI * 50e6, kappa=TWO_PI * 1e6,
                      j_xx=TWO_PI * 50.0, j_z=TWO_PI * 50.0, n_sites=100)
    eff = effective_params(cp)
    report("criterion 8 (effective parameters)", abs(eff.j_over_n - 0.16) <= 0.01,
           f"J/N = {eff.j_over_n:.4f} (target 0.16 +- 0.01)")


def test_criterion_9_adiabatic_elimination():
    """Full and reduced master equations agree in the bad-cavity regime."""
    def deviation(g_over_kappa, kappa=5.0):
        cp = CavityParams(g=g_over_kappa * kappa, delta_c=20.0 * kappa, kappa=kappa,
                          j_xx=1.0, j_z=1.0, n_sites=2)
        full = simulate_full(cp, n_max=4, t_end=10.0, dt=8e-4)
        eff = simulate_effective(cp, t_end=10.0, dt=8e-4)
        rep = compare_trajectories(full, eff)
        return max(v["max_abs_deviation"] for k, v in rep.items()
                   if k.startswith("sigma_z"))

    dev = deviation(0.05)
    dev_half = deviation(0.025)
    ok = dev <= 5e-2 and dev_half < dev
    report("criterion 9 (adiabatic elimination)", ok,
           f"max |d<sz>| = {dev:.3f} (tol 0.05) at g/kappa = 0.05, "
           f"improves to {dev_half:.3f} at doubled kappa/g")


def test_criterion_10_determinism(tmp_path):
    """Identical config and seed reproduce records byte-for-byte (minus meta)."""
    grid = SweepGrid((1.5,), (0.5,), (12, 16))
    settings = {"chi_max": 32, "max_sweeps": 20, "truncation_cut": 1e-6,
                "energy_tol": 1e-9}
    run_sweep(grid, settings, tmp_path / "a", base_seed=5)
    run_sweep(grid, settings, tmp_path / "b", base_seed=5)
    rec_a = load_json(tmp_path / "a" / "records" / "point_a1.5_j0.5.json")
    rec_b = load_json(tmp_path / "b" / "records" / "point_a1.5_j0.5.json")
    rec_a.pop("meta"), rec_b.pop("meta")
    csv_equal = ((tmp_path / "a" / "records.csv").read_bytes()
                 == (tmp_path / "b" / "records.csv").read_bytes())
    json_equal = ((tmp_path / "a" / "records.json").read_bytes()
                  == (tmp_path / "b" / "records.json").read_bytes())
    ok = rec_a == rec_b and csv_equal and json_equal
    report("criterion 10 (determinism)", ok,
           "independent reruns produce byte-identical records (timestamps excluded)")
