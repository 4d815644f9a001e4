import math

import numpy as np
import pytest

from cavityxxz.errors import InvalidParams, ModeInstability, Unclassifiable
from cavityxxz.model import ModelParams, sector_basis, sector_dense_block
from cavityxxz.spinwave import (
    PHASE_FM,
    PHASE_TLL,
    PHASE_XY,
    bogoliubov_energy,
    classify_spinwave,
    excitation_density,
    fm_boundary_root,
    fm_dispersion,
    fm_phase_boundary,
    fm_spectrum,
    half_range_cosine_sum,
    k_indices,
    xy_coefficients,
    xy_integrand,
    xy_spectrum,
)


def periodic(alpha, j, n):
    return ModelParams(alpha, j, n, boundary="periodic")


def direct_cosine_sum(k, n):
    r = np.arange(1, n // 2 + 1)
    return np.cos(2.0 * np.pi * k * r / n).sum()


@pytest.mark.parametrize("n", [8, 64, 256, 4096])
def test_half_range_sum_matches_direct_summation(n):
    ks = k_indices(n)
    closed = half_range_cosine_sum(ks, n)
    direct = np.array([direct_cosine_sum(int(k), n) for k in ks])
    assert np.abs(closed - direct).max() < 1e-10


def test_boundary_and_parity_requirements():
    with pytest.raises(InvalidParams):
        fm_dispersion(ModelParams(1.0, 0.0, 8), 0)  # open boundary
    with pytest.raises(InvalidParams):
        fm_dispersion(periodic(1.0, 0.0, 9), 0)  # odd N


def test_fm_dispersion_values():
    # k = 0: 1 - alpha + J/2 (the half-range sum contributes N/2 terms of 1)
    assert abs(fm_dispersion(periodic(0.7, 0.8, 64), 0) - (1 - 0.7 + 0.4)) < 1e-12
    # gapless isotropic point
    assert abs(fm_dispersion(periodic(1.0, 0.0, 64), 0)) < 1e-12
    # flat magnon band of the classical chain
    w = fm_dispersion(periodic(0.0, 0.0, 32), k_indices(32))
    assert np.abs(w - 1.0).max() < 1e-12


def test_fm_dispersion_reduces_at_zero_j():
    n = 128
    ks = k_indices(n)
    w = fm_dispersion(periodic(1.3, 0.0, n), ks)
    assert np.abs(w - (1.0 - 1.3 * np.cos(2 * np.pi * ks / n))).max() < 1e-14


def test_fm_spectrum_stable_examples():
    assert fm_spectrum(periodic(0.9, 1.0, 2048)).stable is True
    assert fm_spectrum(periodic(1.1, 1.0, 2048)).stable is False
    # J < 0 boundary sits at 1 + J/2 = 0.7, so 0.8 is already unstable
    assert fm_spectrum(periodic(0.8, -0.6, 2048)).stable is False


def test_fm_phase_boundary_branches():
    assert fm_phase_boundary(2.0) == 1.0
    assert fm_phase_boundary(-1.0) == 0.5
    assert fm_phase_boundary(0.0) == 1.0


def assert_soft_mode_root(root, j, n=2048):
    # min_k omega_k vanishes at the root and is still positive just below it
    ks = k_indices(n)
    assert abs(fm_dispersion(periodic(root, j, n), ks).min()) <= 1e-12
    assert fm_dispersion(periodic(root * (1.0 - 1e-9), j, n), ks).min() > 0.0


@pytest.mark.parametrize("j", [0.5, 1.0, 2.0, 0.0, 1.5])
def test_fm_boundary_root_positive_j(j):
    root = fm_boundary_root(j)
    assert abs(root - 1.0) <= 1e-3
    assert_soft_mode_root(root, j)


@pytest.mark.parametrize("j", [-0.5, -1.0, -1.9])
def test_fm_boundary_root_negative_j(j):
    root = fm_boundary_root(j)
    assert abs(root - (1.0 + j / 2.0)) <= 1e-3
    assert_soft_mode_root(root, j)


@pytest.mark.parametrize("j,n", [(-3.0, 2048), (5.0, 4)])
def test_fm_boundary_root_raises_without_root(j, n):
    # J = -3: the k = 0 mode is already soft at alpha = 0;
    # J = 5 at N = 4: the k = +-1 modes (cos q = 0) are negative at every
    # alpha, although the k = 0 ratio 1 + J/2 = 3.5 lies in (0, 4]
    with pytest.raises(ValueError):
        fm_boundary_root(j, n)


@pytest.mark.parametrize("alpha,j", [(0.9, 0.5), (0.8, -0.5), (1.5, 1.0)])
def test_model_one_magnon_spectrum(alpha, j):
    # The exact one-magnon energies of H that fm_dispersion is to be read
    # against: 1 - alpha - J(N-1)/2N at k = 0, 1 - alpha cos q + J/2N otherwise.
    n = 12
    p = periodic(alpha, j, n)
    e_polarized = np.linalg.eigvalsh(sector_dense_block(p, sector_basis(n, n)))[0]
    one_magnon = np.linalg.eigvalsh(sector_dense_block(p, sector_basis(n, n - 1))) - e_polarized
    ks = k_indices(n)
    expect = np.where(ks == 0, 1.0 - alpha - j * (n - 1) / (2.0 * n),
                      1.0 - alpha * np.cos(2 * np.pi * ks / n) + j / (2.0 * n))
    assert np.abs(one_magnon - np.sort(expect)).max() < 1e-12


def test_xy_isotropic_point_has_no_pairing():
    n = 64
    omega, mu = xy_coefficients(periodic(1.0, 0.0, n), k_indices(n))
    assert np.abs(mu).max() < 1e-14
    assert np.abs(omega - (1.0 - np.cos(2 * np.pi * k_indices(n) / n))).max() < 1e-14


def test_xy_zone_center_values():
    # omega_0 = (alpha-1)/2 + J/4, mu_0 = (1-alpha)/2 + J/4
    alpha, j = 1.5, 0.8
    omega, mu = xy_coefficients(periodic(alpha, j, 4096), 0)
    assert abs(omega - ((alpha - 1) / 2 + j / 4)) < 1e-12
    assert abs(mu - ((1 - alpha) / 2 + j / 4)) < 1e-12


def test_xy_coefficients_match_direct_sum():
    alpha, j, n = 2.0, 1.0, 100
    p = periodic(alpha, j, n)
    for k in (1, 7, 50):
        q = 2 * np.pi * k / n
        lr = (j / (2 * n)) * direct_cosine_sum(k, n)
        omega, mu = xy_coefficients(p, k)
        assert abs(omega - ((alpha + j / 2) - (1 + alpha) / 2 * np.cos(q) - lr)) < 1e-12
        assert abs(mu - ((1 - alpha) / 2 * np.cos(q) + lr)) < 1e-12


def test_bogoliubov_energy_values():
    assert bogoliubov_energy(3.0, 0.0) == 6.0
    assert bogoliubov_energy(2.5, 2.5) == 0.0
    assert bogoliubov_energy(5.0, 3.0) == 8.0
    assert math.isnan(bogoliubov_energy(1.0, 2.0))


def test_spectra_cover_single_zone():
    n = 16
    fm = fm_spectrum(periodic(1.2, 0.4, n))
    xy = xy_spectrum(periodic(1.2, 0.4, n))
    expect = np.arange(-n // 2 + 1, n // 2 + 1)
    assert np.array_equal(fm.k_index, expect)
    assert np.array_equal(xy.k_index, expect)
    assert np.array_equal(fm.energy, fm.omega)
    assert np.abs(fm.mu).max() == 0.0


def test_xy_spectrum_flags_invalid_modes():
    spec = xy_spectrum(periodic(1.5, -0.5, 64))
    assert not spec.stable
    assert spec.unstable_k  # flagged, not dropped
    assert len(spec.energy) == 64


def test_density_log_divergent_on_critical_line():
    res = excitation_density(periodic(1.5, 0.0, 2))
    assert res.classification == "log_divergent"
    assert res.slope > 0.01
    assert res.value == math.inf


def test_density_convergent_with_coupling():
    res = excitation_density(periodic(1.5, 0.5, 2))
    assert res.classification == "convergent"
    assert res.slope < 0.005
    assert res.value < 0.2
    assert len(res.finite_n_series) == 7


def test_density_vanishes_at_isotropic_point():
    res = excitation_density(periodic(1.0, 0.0, 2))
    assert all(abs(d) < 1e-14 for _, d in res.finite_n_series)


def test_density_mode_instability():
    with pytest.raises(ModeInstability):
        excitation_density(periodic(1.5, -0.5, 2))


def test_density_validates_n_list():
    with pytest.raises(InvalidParams):
        excitation_density(periodic(1.5, 0.5, 2), n_list=(64, 63))
    with pytest.raises(InvalidParams):
        excitation_density(periodic(1.5, 0.5, 2), n_list=(128, 64))
    for n_list in ((), (64,)):  # one size cannot fix a slope
        with pytest.raises(InvalidParams, match="at least two"):
            excitation_density(periodic(1.5, 0.5, 2), n_list=n_list)


def test_integrand_small_q_scaling():
    q = np.logspace(-4, -2, 40)
    # critical line: 1/|q| divergence
    slope = np.polyfit(np.log(q), np.log(xy_integrand(1.5, 0.0, q)), 1)[0]
    assert abs(slope - (-1.0)) < 0.05
    # with coupling the integrand stays bounded near q = 0
    vals = xy_integrand(1.5, 0.5, q)
    assert np.isfinite(vals).all()
    assert vals.max() < 2.0 * xy_integrand(1.5, 0.5, 1e-6)


def test_classify_examples():
    assert classify_spinwave(periodic(0.5, 1.0, 64)) == PHASE_FM
    assert classify_spinwave(periodic(1.5, 0.0, 64)) == PHASE_TLL
    assert classify_spinwave(periodic(1.5, 0.5, 64)) == PHASE_XY


def test_classify_boundary_kink():
    # boundary kinks at (alpha=1, J=0): flat at 1 for J >= 0, slope 1/2 below
    assert fm_phase_boundary(1e-9) == 1.0
    assert abs(fm_phase_boundary(-1e-2) - (1.0 - 5e-3)) < 1e-12
    assert classify_spinwave(periodic(0.999, 0.0, 64)) == PHASE_FM
    assert classify_spinwave(periodic(1.001, 0.0, 64)) == PHASE_TLL


def test_classify_unclassifiable_outside_validity():
    with pytest.raises(Unclassifiable):
        classify_spinwave(periodic(1.5, -0.5, 64))
