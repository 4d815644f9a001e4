"""Lowest eigenpair of a real symmetric operator by Lanczos.

The one Krylov routine of the package: exact diagonalization and the DMRG
local solve both call it and apply their own start vector, budget and
failure policy on top.

Reorthogonalization is partial (H. D. Simon, Math. Comp. 42, 115 (1984)).
Plain Lanczos loses orthogonality as Ritz values converge, which brings ghost
eigenvalues and stalls the residual; keeping the basis orthogonal to sqrt(eps)
is enough for Ritz values at full accuracy.  A scalar recurrence estimates
omega_j = <q_j, q_next> from the alpha and beta already held, at O(k) cost a
step; only when max_j |omega_j| exceeds sqrt(eps) is the new vector
reorthogonalized against the whole basis, and then the one after it too,
since the next three-term step inherits the lost orthogonality.  Full
reorthogonalization at every step would cost two basis-sized GEMVs a step;
on the ED sectors and DMRG local problems it takes the same number of steps
to the same Ritz values.

A step needs only the lowest Ritz value theta of the tridiagonal T_k and the
last entry y_k of its unit eigenvector, for the residual |beta_k y_k|.
``_lowest_ritz`` tracks that pair in O(k) scalar work: Rayleigh-quotient
iteration on the twisted factorizations of T_k - sigma I (B. N. Parlett and
I. S. Dhillon, Linear Algebra Appl. 267, 247 (1997)), started from the
previous step's pair.  At convergence y_k is about tol / beta_k, far below
what a one-sided formula or a dense eigensolver resolves; the twisted solve
runs away from the large entries of the eigenvector, so the tail keeps full
relative accuracy.  A tracked theta is certified by Sylvester's inertia (all
pivots of T_k - (theta - 64 eps ||T||) I positive: no eigenvalue below it);
a step without that certificate falls back to ``eigh`` of T_k.  Otherwise
``eigh`` runs only at a candidate stop, where it gives the returned energy,
Ritz vector and residual and has the last word on whether to stop.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParams

# Below this norm the next Lanczos vector is roundoff: the Krylov space is invariant.
_BREAKDOWN = 1e-13
_EPS = float(np.finfo(float).eps)
# The orthogonality level the basis is kept at (Simon's semi-orthogonality).
_SEMI_ORTHOGONAL = float(np.sqrt(_EPS))
# Rayleigh corrections _lowest_ritz may take before it gives up on a step.
_MAX_CORRECTIONS = 10


def converged(residual: float, energy: float, tol: float) -> bool:
    """The stopping rule: Ritz residual at most ``tol * max(1, |energy|)``."""
    return residual <= tol * max(1.0, abs(energy))


def _lowest_of_tridiagonal(alpha: np.ndarray, beta: np.ndarray):
    """Lowest eigenvalue and unit eigenvector of the tridiagonal (alpha, beta) by ``eigh``."""
    tri = np.diag(alpha)
    i = np.arange(alpha.size - 1)
    tri[i + 1, i] = tri[i, i + 1] = beta
    evals, evecs = np.linalg.eigh(tri)
    return float(evals[0]), evecs[:, 0]


def _lowest_ritz(alpha: list, beta: list, prev, t_norm: float):
    """Lowest eigenvalue of T_k and |last entry| of its unit eigenvector, tracked
    by Rayleigh-quotient iteration on twisted factorizations; None if uncertified.

    ``alpha`` (k floats) and ``beta`` (k - 1) define T_k; ``prev`` is the same
    pair for T_(k-1), unused at k = 1, and ``t_norm`` bounds ||T||.  Each pass
    is O(k) work on Python floats: at these k, numpy's per-call cost exceeds it.
    """
    k = len(alpha)
    if k == 1:
        return alpha[0], 1.0
    # The new row couples the old Ritz vector to alpha_k with strength r: start
    # at theta lowered by the second-order shift, or by r when alpha_k is near.
    theta, y_last = prev
    r = beta[-1] * y_last
    gap = alpha[-1] - theta
    sigma = theta - r * r / gap if gap > r else theta - r
    beta2 = [b * b for b in beta]
    for _ in range(_MAX_CORRECTIONS):
        try:
            # forward (LDL^T) pivots d and backward (UDU^T) pivots p of T - sigma I
            d, p = [0.0] * k, [0.0] * k
            x = d[0] = alpha[0] - sigma
            for i in range(1, k):
                x = d[i] = alpha[i] - sigma - beta2[i - 1] / x
            x = p[-1] = alpha[-1] - sigma
            for i in range(k - 2, -1, -1):
                x = p[i] = alpha[i] - sigma - beta2[i] / x
        except ZeroDivisionError:  # a pivot is exactly zero: step off the pole
            sigma -= _EPS * t_norm
            continue
        # twist where the pivot gamma_t = 1 / [(T - sigma)^-1]_tt is smallest
        twist, gamma = 0, d[0] + p[0] - alpha[0] + sigma
        for i in range(1, k):
            g = d[i] + p[i] - alpha[i] + sigma
            if abs(g) < abs(gamma):
                twist, gamma = i, g
        # (T - sigma) u = gamma e_twist with u_twist = 1: both recurrences run
        # away from the twist, so the small tail entries keep full relative accuracy
        u, norm2 = 1.0, 1.0
        for i in range(twist - 1, -1, -1):
            u = -beta[i] * u / d[i]
            norm2 += u * u
        u = 1.0
        for i in range(twist, k - 1):
            u = -beta[i] * u / p[i + 1]
            norm2 += u * u
        correction = gamma / norm2
        sigma += correction
        if abs(correction) <= 8.0 * _EPS * t_norm:
            break
    else:
        return None
    # Sylvester's inertia: no eigenvalue of T_k lies below the certified shift
    shift = sigma - 64.0 * _EPS * t_norm
    x = alpha[0] - shift
    if not x > 0.0:
        return None
    for i in range(1, k):
        x = alpha[i] - shift - beta2[i - 1] / x
        if not x > 0.0:
            return None
    return sigma, abs(u) / norm2**0.5


def lowest_eigenpair(matvec, v0: np.ndarray, tol: float, max_iter: int):
    """Lanczos from ``v0``; returns (energy, vec, iterations, residual).

    Stops when ``converged`` holds for the Ritz residual ``|beta_k y_k|``, when
    the Krylov space is invariant, or after ``min(max_iter, dim)`` matvecs.
    Raises InvalidParams, before any matvec, when ``v0`` is zero or not finite;
    otherwise never raises: a caller that needs convergence tests the returned
    residual with ``converged``.  ``vec`` is normalized; ``iterations`` counts
    matvecs.
    """
    if not (v0.any() and np.isfinite(v0).all()):
        raise InvalidParams("the Lanczos start vector must be nonzero and finite")
    n_max = min(max_iter, v0.size)
    basis = np.empty((n_max, v0.size))
    alpha, beta = np.zeros(n_max), np.zeros(n_max)
    # omega[j] ~ <q_j, q_it> and omega_prev[j] ~ <q_j, q_(it-1)>
    omega, omega_prev = np.zeros(n_max + 1), np.zeros(n_max + 1)
    omega[0] = 1.0
    t_norm = 0.0  # Gershgorin bound on ||T||, the scale of the rounding terms
    reorth_next = False
    ritz = None  # (theta, |y_last|) of the previous step
    v = basis[0]
    np.divide(v0, np.linalg.norm(v0), out=v)
    w = matvec(v)
    for it in range(n_max):
        a = float(v @ w)
        alpha[it] = a
        w = w - a * v  # a new array: matvec's output may be a buffer its caller holds
        if it > 0:
            w -= beta[it - 1] * basis[it - 1]
        b = float(np.linalg.norm(w))
        t_norm = max(t_norm, abs(a) + b + (float(beta[it - 1]) if it > 0 else 0.0))
        # Simon's recurrence for b * omega_new, with a rounding term of eps ||T||
        scaled = np.empty(it + 1)
        scaled[:it] = beta[:it] * omega[1 : it + 1] + (alpha[:it] - a) * omega[:it]
        if it > 0:
            scaled[1:it] += beta[: it - 1] * omega[: it - 1]
            scaled[:it] -= beta[it - 1] * omega_prev[:it]
        scaled[:it] += np.copysign(_EPS * t_norm, scaled[:it])
        scaled[it] = _EPS * t_norm
        if reorth_next or np.abs(scaled).max() > _SEMI_ORTHOGONAL * b:
            done = basis[: it + 1]
            w -= done.T @ (done @ w)
            b = float(np.linalg.norm(w))
            scaled[:] = _EPS * b
            reorth_next = not reorth_next
        last = b < _BREAKDOWN or it + 1 == n_max
        if not last:
            ritz = _lowest_ritz(alpha[: it + 1].tolist(), beta[:it].tolist(), ritz, t_norm)
        # eigh decides every candidate stop, and every step the tracking cannot certify
        if last or ritz is None or converged(b * ritz[1], ritz[0], tol):
            energy, y = _lowest_of_tridiagonal(alpha[: it + 1], beta[:it])
            residual = abs(b * y[-1])
            if last or converged(residual, energy, tol):
                break
            ritz = energy, abs(float(y[-1]))
        beta[it] = b
        omega, omega_prev = omega_prev, omega
        np.divide(scaled, b, out=omega[: it + 1])
        omega[it + 1] = 1.0
        v = basis[it + 1]
        np.divide(w, b, out=v)
        w = matvec(v)
    vec = basis[: it + 1].T @ y
    return energy, vec / np.linalg.norm(vec), it + 1, residual
