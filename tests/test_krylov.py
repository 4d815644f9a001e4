from decimal import Decimal, localcontext

import numpy as np
import pytest

from cavityxxz import exactdiag, krylov
from cavityxxz.errors import InvalidParams, NoConvergence
from cavityxxz.exactdiag import LANCZOS_MAX_ITER, LANCZOS_TOL, lanczos_ground
from cavityxxz.krylov import _lowest_ritz, converged, lowest_eigenpair
from cavityxxz.model import ModelParams, magnetization_sectors, make_sector_matvec, sector_basis
from cavityxxz.tensornet import DmrgConfig, dmrg, dmrg_ground_state


def random_symmetric(dim, seed):
    a = np.random.default_rng(seed).standard_normal((dim, dim))
    return (a + a.T) / 2.0


@pytest.mark.parametrize("dim,seed", [(2, 0), (7, 1), (40, 2), (150, 3)])
def test_random_symmetric_against_eigh(dim, seed):
    h = random_symmetric(dim, seed)
    v0 = np.random.default_rng(seed + 100).standard_normal(dim)
    energy, vec, iterations, residual = lowest_eigenpair(lambda v: h @ v, v0, 1e-12, dim)
    evals, evecs = np.linalg.eigh(h)
    assert abs(energy - evals[0]) < 1e-10
    assert abs(abs(vec @ evecs[:, 0]) - 1.0) < 1e-10
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
    assert np.linalg.norm(h @ vec - energy * vec) < 1e-8
    assert 1 <= iterations <= dim
    assert residual <= 1e-12 * max(1.0, abs(energy))


@pytest.mark.parametrize("dim", range(1, 31))
def test_budget_of_dim_steps_converges(dim):
    # Eigenvalues k^3: the top of the spectrum converges within a few steps and,
    # without reorthogonalization, comes back as ghosts, so a budget of exactly
    # dim steps no longer spans the space; 26 of these 30 then miss tol.
    q, _ = np.linalg.qr(np.random.default_rng(dim).standard_normal((dim, dim)))
    h = (q * np.arange(dim) ** 3.0) @ q.T
    v0 = np.random.default_rng(0).standard_normal(dim)
    energy, vec, iterations, residual = lowest_eigenpair(lambda v: h @ v, v0, 1e-12, dim)
    assert converged(residual, energy, 1e-12)
    assert abs(energy - np.linalg.eigvalsh(h)[0]) < 1e-10
    # the same steps and energy as Lanczos with full reorthogonalization and
    # eigh at every step; ||H|| = (dim - 1)^3 reaches 24389, where eps ||H||
    # alone is 5e-12
    ref_energy, ref_iterations = full_reorthogonalization_lanczos(lambda v: h @ v, v0, 1e-12, dim)
    assert iterations == ref_iterations
    assert abs(energy - ref_energy) < 1e-12 + 8 * np.finfo(float).eps * (dim - 1) ** 3


def test_long_run_keeps_ritz_vector_accurate():
    # Clustered low end (relative gap 1e-2) plus isolated top eigenvalues
    # that converge early: well over 100 steps, with orthogonality lost and
    # restored on the way.
    diag = np.concatenate([[0.0], 0.01 + np.linspace(0.0, 1.0, 2996) ** 2, [2.0, 3.0, 5.0]])
    v0 = np.random.default_rng(0).standard_normal(diag.size)
    energy, vec, iterations, residual = lowest_eigenpair(lambda v: diag * v, v0, 1e-10, 500)
    assert iterations >= 100
    assert abs(energy) < 1e-10
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
    assert np.linalg.norm(diag * vec - energy * vec) <= 1e-8


def full_reorthogonalization_lanczos(matvec, v0, tol, max_iter):
    """Lanczos that orthogonalizes every new vector against the whole basis;
    returns (energy, iterations)."""
    n_max = min(max_iter, v0.size)
    basis = np.empty((n_max, v0.size))
    tri = np.zeros((n_max, n_max))
    basis[0] = v0 / np.linalg.norm(v0)
    for it in range(n_max):
        w = matvec(basis[it])
        tri[it, it] = basis[it] @ w
        w -= basis[: it + 1].T @ (basis[: it + 1] @ w)
        w -= basis[: it + 1].T @ (basis[: it + 1] @ w)
        b = np.linalg.norm(w)
        evals, evecs = np.linalg.eigh(tri[: it + 1, : it + 1])
        if converged(abs(b * evecs[-1, 0]), evals[0], tol) or b < 1e-13:
            break
        if it + 1 < n_max:
            tri[it + 1, it] = tri[it, it + 1] = b
            basis[it + 1] = w / b
    return float(evals[0]), it + 1


def test_matches_full_reorthogonalization_on_every_sector():
    p = ModelParams(1.5, 0.5, 12)
    for basis in magnetization_sectors(12):
        matvec = make_sector_matvec(p, basis)
        v0 = np.random.default_rng(0).standard_normal(basis.size)
        energy, _, iterations, _ = lowest_eigenpair(matvec, v0, LANCZOS_TOL, LANCZOS_MAX_ITER)
        ref_energy, ref_iterations = full_reorthogonalization_lanczos(
            matvec, v0, LANCZOS_TOL, LANCZOS_MAX_ITER)
        assert iterations == ref_iterations, basis.n_up
        assert abs(energy - ref_energy) < 1e-12, basis.n_up


class _Captured(Exception):
    pass


def dmrg_local_problem(monkeypatch, index=40):
    """The index-th Lanczos problem of a DMRG run at (1.5, 0.5, N = 16), chi 32:
    (matvec, warm start vector); the run stops once it is captured."""
    calls = []

    def warm(apply_h, v0, tol):
        calls.append((apply_h, v0.copy()))
        if len(calls) == index:
            raise _Captured
        return lowest_eigenpair(apply_h, v0, tol, dmrg._LOCAL_MAX_ITER)

    monkeypatch.setattr(dmrg, "_lanczos_warm", warm)
    with pytest.raises(_Captured):
        dmrg_ground_state(ModelParams(1.5, 0.5, 16), DmrgConfig(chi_max=32))
    return calls[-1]


@pytest.mark.parametrize("tol", [1e-11, 1e-6])
def test_matches_full_reorthogonalization_on_dmrg_warm_start(monkeypatch, tol):
    matvec, v0 = dmrg_local_problem(monkeypatch)
    energy, _, iterations, _ = lowest_eigenpair(matvec, v0, tol, dmrg._LOCAL_MAX_ITER)
    ref_energy, ref_iterations = full_reorthogonalization_lanczos(matvec, v0, tol,
                                                                  dmrg._LOCAL_MAX_ITER)
    assert iterations == ref_iterations
    assert abs(energy - ref_energy) < 1e-12


def test_untracked_steps_fall_back_to_eigh(monkeypatch):
    # With the tracking never certified every step runs eigh, as the solver
    # did before it tracked the Ritz pair: the outputs must not move a bit.
    p = ModelParams(1.5, 0.5, 12)
    runs = []
    for tracked in (True, False):
        if not tracked:
            monkeypatch.setattr(krylov, "_lowest_ritz", lambda *args: None)
        out = []
        for basis in magnetization_sectors(12):
            v0 = np.random.default_rng(0).standard_normal(basis.size)
            energy, vec, iterations, residual = lowest_eigenpair(
                make_sector_matvec(p, basis), v0, LANCZOS_TOL, LANCZOS_MAX_ITER)
            out.append((energy, iterations, residual, vec.tobytes()))
        runs.append(out)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("v0", [np.zeros(4), np.array([np.nan, 1.0, 0.0, 0.0]),
                                np.array([1.0, np.inf, 0.0, 0.0])])
def test_bad_start_vector_raises_before_any_matvec(v0):
    def matvec(v):
        raise AssertionError("matvec called")

    with pytest.raises(InvalidParams):
        lowest_eigenpair(matvec, v0, 1e-10, 4)


def decimal_lowest(alpha, beta):
    """Lowest eigenvalue of the tridiagonal (alpha, beta) and |last entry| of its
    unit eigenvector, in 60-digit decimal: Sturm bisection, then the three-term
    recurrence from the top entry."""
    with localcontext() as ctx:
        ctx.prec = 60
        a, b = [Decimal(x) for x in alpha], [Decimal(x) for x in beta]

        def count_below(x):  # negative pivots of T - x = eigenvalues below x
            count, d = 0, Decimal(1)
            for i, ai in enumerate(a):
                d = ai - x - (b[i - 1] ** 2 / d if i else 0)
                d = d or Decimal("-1e-200")
                count += d < 0
            return count

        radius = max(abs(x) for x in a) + 2 * max(b, default=0)
        lo, hi = -radius, radius
        while hi - lo > radius * Decimal("1e-55"):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if count_below(mid) else (mid, hi)
        theta = (lo + hi) / 2
        x = [Decimal(1)]
        for i in range(len(a) - 1):
            x.append(((theta - a[i]) * x[i] - (b[i - 1] * x[i - 1] if i else 0)) / b[i])
        return float(theta), float(abs(x[-1]) / sum(v * v for v in x).sqrt())


def lanczos_tridiagonal(diag, v0):
    """(alpha, beta) of Lanczos with full reorthogonalization on diag(diag) from v0."""
    q = [v0 / np.linalg.norm(v0)]
    alpha, beta = [], []
    for _ in range(diag.size):
        w = diag * q[-1]
        alpha.append(float(q[-1] @ w))
        for _ in range(2):
            w -= np.array(q).T @ (np.array(q) @ w)
        beta.append(float(np.linalg.norm(w)))
        q.append(w / beta[-1])
    return alpha, beta[:-1]


def tridiagonal(name):
    """(alpha, beta) of the named test matrix, as Python floats."""
    if name == "wilkinson_21":
        return [abs(10.0 - i) for i in range(21)], [1.0] * 20
    if name == "toeplitz_1_2_1":
        return [2.0] * 200, [1.0] * 199
    if name.startswith("beta_spread_"):
        rng = np.random.default_rng(int(name[-1]))
        return rng.standard_normal(40).tolist(), (10.0 ** rng.uniform(-10, 0, 39)).tolist()
    # Lanczos on an operator whose lowest pair is split by 1e-6
    return lanczos_tridiagonal(np.concatenate([[0.0, 1e-6], np.linspace(1.0, 5.0, 28)]),
                               np.random.default_rng(10).standard_normal(30))


@pytest.mark.parametrize("name", ["wilkinson_21", "toeplitz_1_2_1", "beta_spread_0",
                                  "beta_spread_1", "beta_spread_2", "beta_spread_3",
                                  "pair_split_1e-6"])
def test_tracked_ritz_pair_matches_eigh(name):
    # Track every leading block T_1..T_n as lowest_eigenpair does.  eigh's tail
    # entries are accurate only to about eps in absolute terms, so tails below
    # 1e-6 are checked against a 60-digit reference instead.
    alpha, beta = tridiagonal(name)
    t_norm = max(abs(a) for a in alpha) + 2.0 * max(beta)
    ritz, certified = None, 0
    for k in range(1, len(alpha) + 1):
        tracked = _lowest_ritz(alpha[:k], beta[: k - 1], ritz, t_norm)
        tri = np.diag(alpha[:k]) + np.diag(beta[: k - 1], 1) + np.diag(beta[: k - 1], -1)
        evals, evecs = np.linalg.eigh(tri)
        ritz = tracked or (float(evals[0]), abs(float(evecs[-1, 0])))
        if tracked is None:
            continue
        certified += 1
        assert abs(tracked[0] - evals[0]) <= 1e-13 * t_norm, k
        y_ref = abs(evecs[-1, 0])
        if k == 1 or evals[1] - evals[0] < 1e-3 * t_norm or y_ref < 1e-15:
            continue
        if y_ref < 1e-6:
            y_ref = decimal_lowest(alpha[:k], beta[: k - 1])[1]
        assert abs(tracked[1] - y_ref) <= 1e-8 * y_ref, k
    assert certified >= 0.8 * len(alpha)


def test_dimension_one():
    energy, vec, iterations, residual = lowest_eigenpair(lambda v: 2.5 * v, np.array([-0.3]),
                                                         1e-10, 10)
    assert energy == 2.5 and np.abs(vec).tolist() == [1.0]
    assert iterations == 1 and residual == 0.0


def test_start_in_invariant_subspace_breaks_down_early():
    # block-diagonal H: a start vector supported on the first 3x3 block never
    # leaves it, so Lanczos stops after 3 steps at that block's lowest pair
    block = random_symmetric(3, 5)
    h = np.zeros((20, 20))
    h[:3, :3] = block
    h[3:, 3:] = random_symmetric(17, 6) - 10.0 * np.eye(17)  # holds the global minimum
    v0 = np.zeros(20)
    v0[:3] = (1.0, -2.0, 0.5)
    energy, vec, iterations, residual = lowest_eigenpair(lambda v: h @ v, v0, 0.0, 20)
    assert iterations == 3
    assert abs(energy - np.linalg.eigvalsh(block)[0]) < 1e-12
    assert np.abs(vec[3:]).max() == 0.0
    assert residual < 1e-13


def test_exhausted_budget_returns_unconverged():
    h = random_symmetric(200, 7)
    v0 = np.random.default_rng(8).standard_normal(200)
    tol = 1e-10
    energy, vec, iterations, residual = lowest_eigenpair(lambda v: h @ v, v0, tol, 5)
    assert iterations == 5
    assert residual > tol * max(1.0, abs(energy))
    # still a Rayleigh quotient of a normalized vector: above the true minimum
    assert energy >= np.linalg.eigvalsh(h)[0] - 1e-12
    assert abs(vec @ h @ vec - energy) < 1e-10


def test_lanczos_ground_raises_when_budget_runs_out(monkeypatch):
    monkeypatch.setattr(exactdiag, "LANCZOS_MAX_ITER", 3)
    p = ModelParams(1.5, 0.5, 10)
    basis = sector_basis(10, 5)
    with pytest.raises(NoConvergence) as info:
        lanczos_ground(make_sector_matvec(p, basis), basis.size)
    assert info.value.iterations == 3
    assert info.value.residual > 1e-10
