import numpy as np
import pytest
from conftest import kron_hamiltonian

from cavityxxz.errors import DimensionMismatch, InvalidParams, SizeExceeded
from cavityxxz.model import (
    ModelParams,
    apply_hamiltonian,
    build_dense_hamiltonian,
    magnetization_sectors,
    make_sector_matvec,
    polarized_phase_boundary,
    sector_basis,
    sector_dense_block,
)


def test_params_validation():
    with pytest.raises(InvalidParams):
        ModelParams(1.0, 0.0, 1)
    with pytest.raises(InvalidParams):
        ModelParams(1.0, 0.0, 4, boundary="twisted")
    with pytest.raises(SizeExceeded):
        build_dense_hamiltonian(ModelParams(1.0, 0.0, 15))


@pytest.mark.parametrize("n,alpha,j", [
    (2, 0.0, 0.0),
    (2, 1.0, 0.0),
    (3, 1.3, 0.8),
    (4, 0.5, -0.7),
    (6, 2.0, 1.0),
])
def test_dense_matches_kron_oracle(n, alpha, j):
    h = build_dense_hamiltonian(ModelParams(alpha, j, n))
    ref = kron_hamiltonian(alpha, j, n)
    assert np.abs(h - ref).max() < 1e-12


def test_periodic_wrap_bond():
    p = ModelParams(0.9, 0.4, 4, boundary="periodic")
    assert np.abs(build_dense_hamiltonian(p)
                  - kron_hamiltonian(0.9, 0.4, 4, "periodic")).max() < 1e-12
    # N = 2: the wrap bond doubles the single bond, flip-flop and ZZ alike
    p = ModelParams(0.9, 0.4, 2, boundary="periodic")
    assert np.abs(build_dense_hamiltonian(p)
                  - kron_hamiltonian(0.9, 0.4, 2, "periodic")).max() < 1e-12


def test_classical_ising_limit():
    # alpha = J = 0: diagonal matrix, -1/4 for aligned pairs, +1/4 otherwise
    h = build_dense_hamiltonian(ModelParams(0.0, 0.0, 2))
    assert np.abs(h - np.diag([-0.25, 0.25, 0.25, -0.25])).max() == 0.0


def test_two_site_block_isotropic():
    p = ModelParams(1.0, 0.0, 2)
    block = sector_dense_block(p, sector_basis(2, 1))
    assert np.allclose(block, [[0.25, -0.5], [-0.5, 0.25]], atol=1e-14)
    assert np.allclose(np.linalg.eigvalsh(block), [-0.25, 0.75], atol=1e-14)


@pytest.mark.parametrize("alpha,j", [(1.3, 0.8), (2.0, -0.5), (0.4, 1.2)])
def test_two_site_closed_form(alpha, j):
    # Sz=0 off-diagonal is -alpha/2 - J/4; spectrum {-1/4 (x2), 1/4 +- (alpha/2 + J/4)}
    p = ModelParams(alpha, j, 2)
    block = sector_dense_block(p, sector_basis(2, 1))
    assert abs(block[0, 1] - (-alpha / 2.0 - j / 4.0)) < 1e-14
    expected = sorted([-0.25, -0.25, 0.25 - (alpha / 2 + j / 4), 0.25 + (alpha / 2 + j / 4)])
    got = sorted(np.linalg.eigvalsh(build_dense_hamiltonian(p)))
    assert np.allclose(got, expected, atol=1e-13)


def test_symmetric_and_block_diagonal():
    p = ModelParams(1.7, 0.6, 6)
    h = build_dense_hamiltonian(p)
    assert np.abs(h - h.T).max() <= 1e-12
    # commutes with total sz: no matrix element connects different popcounts
    pops = np.array([bin(s).count("1") for s in range(64)])
    off_sector = pops[:, None] != pops[None, :]
    assert np.abs(h[off_sector]).max() == 0.0


def test_global_spin_flip_symmetry():
    p = ModelParams(1.2, 0.9, 6)
    h = build_dense_hamiltonian(p)
    flip = (1 << 6) - 1 - np.arange(64)
    assert np.abs(h[np.ix_(flip, flip)] - h).max() <= 1e-12


def test_sector_sizes_and_partition():
    assert [s.size for s in magnetization_sectors(2)] == [1, 2, 1]
    assert [s.size for s in magnetization_sectors(4)] == [1, 4, 6, 4, 1]
    assert sector_basis(10, 5).size == 252
    sectors = magnetization_sectors(8)
    assert sum(s.size for s in sectors) == 256
    seen = np.concatenate([s.states for s in sectors])
    assert np.array_equal(np.sort(seen), np.arange(256))


def test_sector_basis_ordering_and_lookup():
    basis = sector_basis(8, 3)
    assert np.all(np.diff(basis.states) > 0)
    for idx in (0, 10, basis.size - 1):
        assert basis.index_of(int(basis.states[idx])) == idx
    with pytest.raises(KeyError):
        basis.index_of(0)  # popcount 0 not in the n_up=3 sector
    # out of range: negative, or past the last bit
    for n_up, state in ((8, -1), (3, 1 << 8), (3, -4)):
        with pytest.raises(KeyError):
            sector_basis(8, n_up).index_of(state)


def test_apply_matches_kron_block():
    p = ModelParams(1.3, 0.7, 8)
    basis = sector_basis(8, 4)
    ref = kron_hamiltonian(1.3, 0.7, 8)[np.ix_(basis.states, basis.states)]
    v = np.random.default_rng(7).standard_normal(basis.size)
    assert np.abs(apply_hamiltonian(p, basis, v) - ref @ v).max() < 1e-12
    assert np.abs(sector_dense_block(p, basis) - ref).max() < 1e-12


def test_apply_polarized_eigenvector():
    n = 9
    p = ModelParams(0.8, 0.5, n)
    basis = sector_basis(n, n)
    out = apply_hamiltonian(p, basis, np.ones(1))
    assert abs(out[0] - (-(n - 1) / 4.0)) < 1e-12


def test_apply_stays_in_sector():
    # acting on a sector-supported vector never leaks outside the sector
    n = 6
    full = kron_hamiltonian(1.5, 0.8, n)
    basis = sector_basis(n, 2)
    vec = np.zeros(1 << n)
    vec[basis.states] = np.random.default_rng(0).standard_normal(basis.size)
    out = full @ vec
    outside = np.setdiff1d(np.arange(1 << n), basis.states)
    assert np.abs(out[outside]).max() == 0.0


def test_apply_dimension_mismatch():
    p = ModelParams(1.0, 0.0, 4)
    with pytest.raises(DimensionMismatch):
        apply_hamiltonian(p, sector_basis(4, 2), np.ones(3))


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("j", [0.0, 0.7, -0.6])
def test_factorized_operator_every_sector(boundary, j):
    # J = 0 and n_up = 0 take the branch without a lowering map
    n, alpha = 8, 1.3
    p = ModelParams(alpha, j, n, boundary=boundary)
    full = kron_hamiltonian(alpha, j, n, boundary)
    rng = np.random.default_rng(5)
    for basis in magnetization_sectors(n):
        ref = full[np.ix_(basis.states, basis.states)]
        v = rng.standard_normal(basis.size)
        assert np.abs(apply_hamiltonian(p, basis, v) - ref @ v).max() < 1e-12
        assert np.abs(make_sector_matvec(p, basis)(v) - ref @ v).max() < 1e-12
        assert np.abs(sector_dense_block(p, basis) - ref).max() < 1e-12


def test_polarized_boundary():
    assert polarized_phase_boundary(0.0) == 1.0
    assert polarized_phase_boundary(1.0) == 0.5
    assert polarized_phase_boundary(-0.8) == 1.0
