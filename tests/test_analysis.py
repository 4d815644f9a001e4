import numpy as np
import pytest

from cavityxxz.analysis import (
    PHASE_BOUNDARY,
    PHASE_FM,
    PHASE_TLL,
    PHASE_XY,
    bulk_window,
    classify_phase,
    fit_central_charge,
    order_parameters,
)
from cavityxxz.errors import InsufficientPoints, InvalidParams

LS = (16, 24, 32, 48, 64)


@pytest.mark.parametrize("c0", [0.0, 0.5, 1.0, 1.5, 2.0])
def test_fit_recovers_generator(c0):
    points = [(l, (c0 / 6.0) * np.log(l) + 0.37) for l in LS]
    fit = fit_central_charge(points)
    assert abs(fit.c - c0) < 1e-8
    assert abs(fit.offset - 0.37) < 1e-8
    assert fit.residual < 1e-12


def test_fit_pure_log_without_offset():
    points = [(l, np.log(l) / 6.0) for l in LS]
    fit = fit_central_charge(points)
    assert abs(fit.c - 1.0) < 1e-10
    assert abs(fit.offset) < 1e-10


def test_fit_fm_series_gives_zero_charge():
    rng = np.random.default_rng(0)
    points = [(l, 1e-8 * rng.random()) for l in LS]
    fit = fit_central_charge(points)
    assert abs(fit.c) < 1e-5


def test_fit_reports_uncertainty():
    rng = np.random.default_rng(1)
    points = [(l, np.log(l) / 6.0 + 0.01 * rng.standard_normal()) for l in LS]
    fit = fit_central_charge(points, seed=3)
    again = fit_central_charge(points, seed=3)
    assert fit.ci_halfwidth > 0
    assert fit.ci_halfwidth == again.ci_halfwidth  # bootstrap is seeded
    assert fit.residual > 0


def test_fit_requires_three_points():
    with pytest.raises(InsufficientPoints):
        fit_central_charge([(16, 0.5), (32, 0.6)])


@pytest.mark.parametrize("bootstrap", [0, -3])
def test_fit_requires_a_bootstrap_sample(bootstrap):
    points = [(l, np.log(l) / 6.0) for l in LS]
    with pytest.raises(InvalidParams, match="bootstrap must be >= 1"):
        fit_central_charge(points, bootstrap=bootstrap)


def test_bulk_window():
    assert bulk_window(16) == (4, 12)
    assert bulk_window(10) == (2, 8)


def test_order_parameters_matrix_and_dict():
    n = 16
    sz = np.full(n, -0.9)
    cpm = np.zeros((n, n))
    lo, hi = bulk_window(n)
    cpm[lo, hi - 1] = 0.21
    mean_m, plateau_m = order_parameters(sz, cpm)
    assert abs(mean_m - 0.9) < 1e-14
    assert plateau_m == 0.21
    mean_d, plateau_d = order_parameters(sz, {(lo, hi - 1): 0.21})
    assert (mean_d, plateau_d) == (mean_m, plateau_m)
    with pytest.raises(InvalidParams):
        order_parameters(sz, {(0, 1): 0.5})


def test_order_parameters_reflection_invariant():
    rng = np.random.default_rng(2)
    n = 16
    sz = rng.uniform(-1, 1, n)
    cpm = rng.uniform(0, 1, (n, n))
    cpm = (cpm + cpm.T) / 2
    a = order_parameters(sz, cpm)
    b = order_parameters(sz[::-1], cpm[::-1, ::-1])
    assert np.allclose(a, b, atol=1e-14)


def test_classification_rules():
    assert classify_phase(0.02, 0.98) == PHASE_FM
    assert classify_phase(1.6, 0.01) == PHASE_XY
    assert classify_phase(1.02, 0.01) == PHASE_TLL
    assert classify_phase(0.6, 0.3) == PHASE_BOUNDARY
    # polarized but with large fitted c is not a clean ferromagnet
    assert classify_phase(0.8, 0.9) == PHASE_BOUNDARY


def test_effective_charge_non_decreasing_in_coupling():
    # at alpha = 1.5 the fitted c grows with J across the sampled couplings
    from cavityxxz.exactdiag import cut_entanglement_entropy, sector_ground_state
    from cavityxxz.model import ModelParams

    fits = []
    for j in (0.0, 0.25, 0.5, 1.0):
        points = []
        for n in (8, 10, 12, 14):
            state = sector_ground_state(ModelParams(1.5, j, n), n // 2, seed=1)
            points.append((n, cut_entanglement_entropy(state, n // 2)))
        fits.append(fit_central_charge(points))
    for a, b in zip(fits, fits[1:]):
        assert b.c >= a.c - (a.ci_halfwidth + b.ci_halfwidth)
