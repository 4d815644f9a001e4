"""Lowest eigenpair of a real symmetric operator by Lanczos.

The one Krylov routine of the package: exact diagonalization and the DMRG
local solve both call it and apply their own start vector, budget and
failure policy on top.  Full reorthogonalization keeps the basis orthonormal
to machine precision, which removes ghost eigenvalues and is affordable at
the dimensions used here.
"""

from __future__ import annotations

import numpy as np

# Below this norm the next Lanczos vector is roundoff: the Krylov space is invariant.
_BREAKDOWN = 1e-13


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
    v = v0 / np.linalg.norm(v0)
    basis[0] = v
    w = matvec(v)
    for it in range(n_max):
        a = float(v @ w)
        tri[it, it] = a
        w = w - a * v
        if it > 0:
            w -= tri[it, it - 1] * basis[it - 1]
        w -= basis[: it + 1].T @ (basis[: it + 1] @ w)
        b = float(np.linalg.norm(w))
        evals, evecs = np.linalg.eigh(tri[: it + 1, : it + 1])
        energy, y = float(evals[0]), evecs[:, 0]
        residual = abs(b * y[-1])
        if converged(residual, energy, tol) or b < _BREAKDOWN or it + 1 == n_max:
            break
        tri[it + 1, it] = tri[it, it + 1] = b
        v = w / b
        basis[it + 1] = v
        w = matvec(v)
    vec = basis[: it + 1].T @ y
    return energy, vec / np.linalg.norm(vec), it + 1, residual
