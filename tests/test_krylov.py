import numpy as np
import pytest

from cavityxxz import exactdiag
from cavityxxz.errors import NoConvergence
from cavityxxz.exactdiag import lanczos_ground
from cavityxxz.krylov import lowest_eigenpair
from cavityxxz.model import ModelParams, make_sector_matvec, sector_basis


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
