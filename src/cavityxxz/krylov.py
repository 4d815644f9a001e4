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
"""

from __future__ import annotations

import numpy as np

# Below this norm the next Lanczos vector is roundoff: the Krylov space is invariant.
_BREAKDOWN = 1e-13
_EPS = float(np.finfo(float).eps)
# The orthogonality level the basis is kept at (Simon's semi-orthogonality).
_SEMI_ORTHOGONAL = float(np.sqrt(_EPS))


def converged(residual: float, energy: float, tol: float) -> bool:
    """The stopping rule: Ritz residual at most ``tol * max(1, |energy|)``."""
    return residual <= tol * max(1.0, abs(energy))


def lowest_eigenpair(matvec, v0: np.ndarray, tol: float, max_iter: int):
    """Lanczos from ``v0``; returns (energy, vec, iterations, residual).

    Stops when ``converged`` holds for the Ritz residual ``|beta_k y_k|``, when
    the Krylov space is invariant, or after ``min(max_iter, dim)`` matvecs.
    Never raises: a caller that needs convergence tests the returned residual
    with ``converged``.  ``vec`` is normalized; ``iterations`` counts matvecs.
    """
    n_max = min(max_iter, v0.size)
    basis = np.empty((n_max, v0.size))
    tri = np.zeros((n_max, n_max))
    alpha, beta = tri.diagonal(), tri.diagonal(-1)
    # omega[j] ~ <q_j, q_it> and omega_prev[j] ~ <q_j, q_(it-1)>
    omega, omega_prev = np.zeros(n_max + 1), np.zeros(n_max + 1)
    omega[0] = 1.0
    t_norm = 0.0  # Gershgorin bound on ||T||, the scale of the rounding terms
    reorth_next = False
    v = basis[0]
    np.divide(v0, np.linalg.norm(v0), out=v)
    w = matvec(v)
    for it in range(n_max):
        a = float(v @ w)
        tri[it, it] = a
        w = w - a * v  # a new array: matvec's output may be a buffer its caller holds
        if it > 0:
            w -= beta[it - 1] * basis[it - 1]
        b = float(np.linalg.norm(w))
        t_norm = max(t_norm, abs(a) + b + (beta[it - 1] if it > 0 else 0.0))
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
        evals, evecs = np.linalg.eigh(tri[: it + 1, : it + 1])
        energy, y = float(evals[0]), evecs[:, 0]
        residual = abs(b * y[-1])
        if converged(residual, energy, tol) or b < _BREAKDOWN or it + 1 == n_max:
            break
        tri[it + 1, it] = tri[it, it + 1] = b
        omega, omega_prev = omega_prev, omega
        np.divide(scaled, b, out=omega[: it + 1])
        omega[it + 1] = 1.0
        v = basis[it + 1]
        np.divide(w, b, out=v)
        w = matvec(v)
    vec = basis[: it + 1].T @ y
    return energy, vec / np.linalg.norm(vec), it + 1, residual
