import math

import numpy as np
import pytest
from conftest import SM, SP, kron_hamiltonian, site_op

from cavityxxz.errors import InvalidCut
from cavityxxz.exactdiag import (
    correlators,
    cut_entanglement_entropy,
    global_ground_state,
    lanczos_ground,
    schmidt_coefficients,
    sector_ground_state,
    bipartition_matrix,
)
from cavityxxz.model import ModelParams, make_sector_matvec, sector_basis


def test_polarized_sector_energy():
    state = sector_ground_state(ModelParams(0.5, 0.0, 8), 8)
    assert abs(state.energy - (-(8 - 1) / 4.0)) < 1e-12


def test_two_site_analytic_block():
    state = sector_ground_state(ModelParams(2.0, 0.0, 2), 1)
    assert abs(state.energy - (0.25 - 1.0)) < 1e-12


def test_lanczos_matches_dense():
    p = ModelParams(1.5, 0.5, 10)
    dense = sector_ground_state(p, 5, method="dense")
    lan = sector_ground_state(p, 5, seed=11)
    assert abs(lan.energy - dense.energy) < 1e-9
    # same state up to sign convention (both are sign-fixed)
    assert np.abs(lan.amplitudes - dense.amplitudes).max() < 1e-6


@pytest.mark.parametrize("alpha,j", [(1.5, 0.5), (2.0, 0.0)])
def test_auto_matches_dense_in_every_sector(alpha, j):
    p = ModelParams(alpha, j, 12)
    auto = global_ground_state(p)
    dense = global_ground_state(p, method="dense")
    assert sorted(auto.sector_energies) == list(range(13))
    for n_up, e in dense.sector_energies.items():
        assert abs(auto.sector_energies[n_up] - e) < 1e-10
    assert auto.sector == dense.sector
    # the winning state itself, not only its energy
    assert abs(abs(auto.state.amplitudes @ dense.state.amplitudes) - 1.0) < 1e-12
    assert np.abs(auto.observables.cpm - dense.observables.cpm).max() < 1e-8
    assert np.abs(auto.observables.czz - dense.observables.czz).max() < 1e-8


@pytest.mark.parametrize("alpha,j,n_up", [(1.2, 0.3, 4), (0.7, -0.4, 3), (2.0, 1.0, 5)])
def test_lanczos_variational_bound(alpha, j, n_up):
    p = ModelParams(alpha, j, 10)
    dense = sector_ground_state(p, n_up, method="dense")
    lan = sector_ground_state(p, n_up)
    assert lan.energy >= dense.energy - 1e-9


def test_residual_invariant():
    p = ModelParams(1.5, 0.5, 10)
    state = sector_ground_state(p, 5)
    matvec = make_sector_matvec(p, state.basis)
    resid = np.linalg.norm(matvec(state.amplitudes) - state.energy * state.amplitudes)
    assert resid <= 1e-8
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10


def test_lanczos_dimension_one():
    energy, vec = lanczos_ground(lambda v: -3.0 * v, 1)
    assert energy == -3.0 and vec.shape == (1,)


def test_global_fm_doublet():
    report = global_ground_state(ModelParams(0.5, 0.0, 6))
    assert abs(report.energy - (-1.25)) < 1e-12
    assert report.degenerate_sectors == [0, 6]
    assert report.sector == 0


def test_global_half_filling_in_planar_regime():
    report = global_ground_state(ModelParams(1.5, 0.0, 6))
    assert report.sector == 3
    assert report.degenerate_sectors == [3]


def test_global_matches_full_spectrum_minimum():
    alpha, j, n = 1.5, -1.0, 6
    report = global_ground_state(ModelParams(alpha, j, n))
    full_min = np.linalg.eigvalsh(kron_hamiltonian(alpha, j, n)).min()
    assert abs(report.energy - full_min) < 1e-10


def test_ground_energy_monotone_in_alpha():
    energies = [global_ground_state(ModelParams(a, 0.5, 8)).energy
                for a in (0.5, 1.0, 1.5, 2.0)]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))


def test_full_spectrum_equals_union_of_sector_spectra():
    # energies do not depend on basis ordering: sector blocks exhaust the matrix
    alpha, j, n = 1.3, 0.6, 6
    full = np.sort(np.linalg.eigvalsh(kron_hamiltonian(alpha, j, n)))
    p = ModelParams(alpha, j, n)
    sector_eigs = []
    for n_up in range(n + 1):
        basis = sector_basis(n, n_up)
        block = kron_hamiltonian(alpha, j, n)[np.ix_(basis.states, basis.states)]
        sector_eigs.extend(np.linalg.eigvalsh(block))
    assert np.allclose(full, np.sort(sector_eigs), atol=1e-10)


def test_entropy_product_state():
    state = sector_ground_state(ModelParams(0.5, 0.0, 8), 8)
    for cut in (1, 4, 7):
        s = cut_entanglement_entropy(state, cut)
        assert s == 0.0 and math.copysign(1.0, s) == 1.0


def test_entropy_two_site_bell_value():
    state = sector_ground_state(ModelParams(2.0, 0.0, 2), 1)
    assert abs(cut_entanglement_entropy(state, 1) - math.log(2)) < 1e-12


def test_entropy_bounds_and_cut_validation():
    state = sector_ground_state(ModelParams(1.5, 0.5, 8), 4)
    for cut in range(1, 8):
        s = cut_entanglement_entropy(state, cut)
        assert 0.0 <= s <= min(cut, 8 - cut) * math.log(2) + 1e-12
    with pytest.raises(InvalidCut):
        cut_entanglement_entropy(state, 0)
    with pytest.raises(InvalidCut):
        cut_entanglement_entropy(state, 8)


def test_entropy_schmidt_equals_density_matrix_route():
    state = sector_ground_state(ModelParams(1.5, 0.5, 10), 5)
    cut = 4
    weights = schmidt_coefficients(state, cut)
    m = bipartition_matrix(state, cut)
    rho = m @ m.T  # reduced density matrix of the left block
    evals = np.linalg.eigvalsh(rho)
    evals = evals[evals > 1e-16]
    s_rho = -np.sum(evals * np.log(evals))
    w = weights[weights > 1e-16]
    s_schmidt = -np.sum(w * np.log(w))
    assert abs(s_rho - s_schmidt) < 1e-10


def test_correlators_polarized():
    state = sector_ground_state(ModelParams(0.5, 0.5, 6), 6)
    obs = correlators(state)
    assert np.allclose(obs.sz, 1.0, atol=1e-12)
    off = obs.cpm - np.diag(np.diag(obs.cpm))
    assert np.abs(off).max() < 1e-12


def test_correlators_two_site_symmetric_ground_vector():
    # ground vector of the Sz=0 block is (|ud> + |du>)/sqrt(2), so <S+_0 S-_1> = +1/2
    state = sector_ground_state(ModelParams(2.0, 0.0, 2), 1)
    obs = correlators(state)
    assert abs(obs.cpm[0, 1] - 0.5) < 1e-12


def test_correlators_structure():
    state = sector_ground_state(ModelParams(1.5, 0.5, 8), 4)
    obs = correlators(state)
    assert np.abs(obs.cpm - obs.cpm.T).max() < 1e-12
    assert np.allclose(np.diag(obs.czz), 1.0, atol=1e-12)
    assert np.allclose(np.diag(obs.cpm), (1.0 + obs.sz) / 2.0, atol=1e-12)


@pytest.mark.parametrize("n_up", [0, 3, 8])
def test_correlators_cpm_against_dense_state(n_up):
    n = 8
    state = sector_ground_state(ModelParams(1.5, 0.5, n), n_up)
    psi = np.zeros(1 << n)
    psi[state.basis.states] = state.amplitudes
    cpm = correlators(state).cpm
    for i in range(n):
        for j in range(n):
            ref = psi @ site_op(SP, i, n) @ site_op(SM, j, n) @ psi
            assert abs(cpm[i, j] - ref) < 1e-12


def test_xy_plateau_vs_tll_decay():
    plateau = global_ground_state(ModelParams(1.5, 1.0, 10)).observables.cpm
    decaying = global_ground_state(ModelParams(1.5, 0.0, 10)).observables.cpm
    # J > 0: long-range order survives at max separation
    assert plateau[2, 7] > 0.1
    assert plateau[1, 8] / plateau[1, 2] > 0.8
    # J = 0: steady power-law-like decay instead
    vals = [decaying[1, 1 + r] for r in range(1, 7)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert decaying[1, 8] / decaying[1, 2] < 0.65


def test_sigma_z_zero_in_planar_ground_state():
    report = global_ground_state(ModelParams(1.5, 1.0, 10))
    assert np.abs(report.observables.sz).max() < 0.05
