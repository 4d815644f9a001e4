"""Phase diagnostics from ground-state data.

The half-chain entropy of an open chain of length L is fitted to

    S(L) = (c / 6) ln L + offset

and the effective central charge c separates the phases: c = 0 in the
polarized ferromagnet, c = 1 on the critical line, and c > 1 once the
continuous symmetry is spontaneously broken.  The offset absorbs the
non-universal additive constant real entropy data always carries; omitting
it would bias c.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientPoints, InvalidParams

PHASE_FM = "FM"
PHASE_TLL = "TLL"
PHASE_XY = "XY_SSB"
PHASE_BOUNDARY = "Boundary"

# Desk-scale chains resolve c to roughly +-0.15; margins sit just above that.
C_FM_THRESHOLD = 0.2
C_MARGIN = 0.2
SIGMA_Z_FM = 0.5
SIGMA_Z_SMALL = 0.2

MIN_FIT_POINTS = 3
BOOTSTRAP_SAMPLES = 200


@dataclass(frozen=True)
class CentralChargeFit:
    """c and offset from the least-squares fit, with RMS residual and a
    bootstrap confidence half-width; c is never reported bare."""

    c: float
    offset: float
    residual: float
    ci_halfwidth: float


def _lstsq_c(ls: np.ndarray, ss: np.ndarray):
    design = np.vstack([np.log(ls) / 6.0, np.ones_like(ls)]).T
    coef, *_ = np.linalg.lstsq(design, ss, rcond=None)
    resid = ss - design @ coef
    return float(coef[0]), float(coef[1]), float(np.sqrt(np.mean(resid**2)))


def fit_central_charge(points, bootstrap: int = BOOTSTRAP_SAMPLES,
                       seed: int = 0) -> CentralChargeFit:
    """Fit S = (c/6) ln L + offset to (L, S) pairs; bootstrap over points for
    the half-width."""
    points = tuple(points)
    if len(points) < MIN_FIT_POINTS:
        raise InsufficientPoints(f"need at least {MIN_FIT_POINTS} points, got {len(points)}")
    if bootstrap < 1:
        raise InvalidParams(f"bootstrap must be >= 1, got {bootstrap}")
    ls = np.array([p[0] for p in points], dtype=float)
    ss = np.array([p[1] for p in points], dtype=float)
    c, offset, residual = _lstsq_c(ls, ss)

    rng = np.random.default_rng(seed)
    cs = np.empty(bootstrap)
    for b in range(bootstrap):
        idx = rng.integers(0, len(ls), size=len(ls))
        while np.unique(ls[idx]).size < 2:  # degenerate resample cannot be fitted
            idx = rng.integers(0, len(ls), size=len(ls))
        cs[b] = _lstsq_c(ls[idx], ss[idx])[0]
    lo, hi = np.percentile(cs, [2.5, 97.5])
    return CentralChargeFit(c=c, offset=offset, residual=residual,
                            ci_halfwidth=float((hi - lo) / 2.0))


def bulk_window(n_sites: int) -> tuple[int, int]:
    """Half-open site range covering the middle half of the chain."""
    lo = n_sites // 4
    return lo, n_sites - lo


def order_parameters(sz_profile, cpm) -> tuple[float, float]:
    """(sigma_z_mean, xy_plateau) over the bulk window.

    sigma_z_mean averages |<sz_i>| over the middle half; xy_plateau is
    <S+ S-> at the largest separation inside that window.  ``cpm`` may be a
    full matrix or a dict keyed by site pairs.
    """
    sz = np.asarray(sz_profile, dtype=float)
    lo, hi = bulk_window(sz.shape[0])
    sigma_z_mean = float(np.mean(np.abs(sz[lo:hi])))
    i0, j0 = lo, hi - 1
    if hasattr(cpm, "keys"):
        plateau = cpm.get((i0, j0), cpm.get((j0, i0)))
        if plateau is None:
            raise InvalidParams(f"cpm is missing the bulk pair ({i0}, {j0})")
    else:
        plateau = np.asarray(cpm)[i0, j0]
    return sigma_z_mean, float(plateau)


def classify_phase(c: float, sigma_z_mean: float) -> str:
    """Label a phase point from its fitted c and the bulk magnetization.

    FM: polarized (sigma_z_mean > 0.5) with c below the FM threshold;
    XY_SSB: c > 1 + margin; TLL: c within the margin of 1 and small
    magnetization.  Anything else is labeled Boundary for manual inspection.
    """
    if sigma_z_mean > SIGMA_Z_FM and c <= C_FM_THRESHOLD:
        return PHASE_FM
    if c > 1.0 + C_MARGIN:
        return PHASE_XY
    if abs(c - 1.0) <= C_MARGIN and sigma_z_mean < SIGMA_Z_SMALL:
        return PHASE_TLL
    return PHASE_BOUNDARY
