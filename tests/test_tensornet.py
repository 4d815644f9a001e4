import math

import numpy as np
import pytest
from conftest import kron_hamiltonian, mps_to_dense, site_op, SZ

from cavityxxz.errors import InvalidBond, InvalidParams
from cavityxxz.model import ModelParams, build_dense_hamiltonian
from cavityxxz.tensornet import (
    MatrixProductState,
    build_mpo,
    expectation,
    mpo_to_dense,
    mps_entropy,
    mps_observables,
    random_mps,
)
from cavityxxz.tensornet import mps as mps_mod
from cavityxxz.tensornet.mps import entropy_profile, two_point


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("j", [-0.5, 0.0, 1.0])
def test_mpo_contraction_is_exact(n, alpha, j):
    p = ModelParams(alpha, j, n)
    dense = mpo_to_dense(build_mpo(p))
    assert np.abs(dense - build_dense_hamiltonian(p)).max() < 1e-12
    assert np.abs(dense - kron_hamiltonian(alpha, j, n)).max() < 1e-12


def test_mpo_bond_dimensions():
    def bond_dim(mpo):
        return max(t.shape[3] for t in mpo[:-1])

    assert bond_dim(build_mpo(ModelParams(1.2, 0.0, 8))) == 5
    assert bond_dim(build_mpo(ModelParams(1.2, 0.7, 8))) == 7
    assert bond_dim(build_mpo(ModelParams(1.2, 0.7, 64))) <= 8


def test_mpo_classical_limit_is_diagonal():
    dense = mpo_to_dense(build_mpo(ModelParams(0.0, 0.0, 4)))
    assert np.abs(dense - np.diag(np.diag(dense))).max() == 0.0


def test_mpo_requires_open_boundary():
    with pytest.raises(InvalidParams):
        build_mpo(ModelParams(1.0, 0.0, 4, boundary="periodic"))


def test_pinning_term():
    p = ModelParams(1.1, 0.4, 4)
    pin = 1e-3
    dense = mpo_to_dense(build_mpo(p, pin_strength=pin))
    ref = kron_hamiltonian(1.1, 0.4, 4) - pin * site_op(SZ, 0, 4).real
    assert np.abs(dense - ref).max() < 1e-12


def test_random_mps_is_deterministic_and_normalized():
    a = random_mps(8, 16, seed=42)
    b = random_mps(8, 16, seed=42)
    c = random_mps(8, 16, seed=43)
    for ta, tb in zip(a.tensors, b.tensors):
        assert np.array_equal(ta, tb)
    assert any(not np.array_equal(ta, tc) for ta, tc in zip(a.tensors, c.tensors))
    assert abs(np.linalg.norm(mps_to_dense(a)) - 1.0) < 1e-12


def test_random_mps_right_canonical():
    mps = random_mps(6, 8, seed=0)
    for t in mps.tensors[1:]:
        m = t.reshape(t.shape[0], -1)
        assert np.abs(m @ m.T - np.eye(t.shape[0])).max() < 1e-10


def test_bond_dim_one_is_product_state():
    mps = random_mps(6, 1, seed=5)
    assert all(d == 1 for d in mps.bond_dims)
    # +0.0 exactly: a -0.0 would be written as "-0.0" into sweep records
    for b in range(1, 6):
        s = mps_entropy(mps, b)
        assert s == 0.0 and math.copysign(1.0, s) == 1.0


def test_reads_leave_tensors_bit_identical():
    mps = random_mps(7, 10, seed=2)
    before = [t.copy() for t in mps.tensors]
    entropy_profile(mps)
    mps_entropy(mps, 4)
    two_point(mps, mps_mod.SP, mps_mod.SM, 1, 5)
    mps_observables(mps)
    assert len(mps.tensors) == len(before)
    for t, t0 in zip(mps.tensors, before):
        assert np.array_equal(t, t0)


def test_mps_entropy_against_dense_svd():
    mps = random_mps(8, 12, seed=9)
    vec = mps_to_dense(mps)  # bitmask ordering, site 0 = LSB
    for bond in range(1, 8):
        m = np.zeros((1 << bond, 1 << (8 - bond)))
        states = np.arange(1 << 8)
        m[states & ((1 << bond) - 1), states >> bond] = vec
        w = np.linalg.svd(m, compute_uv=False) ** 2
        w = w[w > 1e-16]
        s_ref = float(-(w * np.log(w)).sum())
        assert abs(mps_entropy(mps, bond) - s_ref) < 1e-10


def test_entropy_bell_pair():
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    left = np.zeros((1, 2, 2))
    left[0, 0, 0] = left[0, 1, 1] = inv_sqrt2
    right = np.zeros((2, 2, 1))
    right[0, 1, 0] = 1.0  # |du> + |ud> Bell-like pair
    right[1, 0, 0] = 1.0
    mps = MatrixProductState([left, right])
    assert abs(mps_entropy(mps, 1) - math.log(2)) < 1e-12


def test_entropy_invalid_bond():
    mps = random_mps(5, 4, seed=0)
    with pytest.raises(InvalidBond):
        mps_entropy(mps, 0)
    with pytest.raises(InvalidBond):
        mps_entropy(mps, 5)
    assert issubclass(InvalidBond, InvalidParams)  # a bad bond is a bad parameter


def test_expectation_against_dense():
    p = ModelParams(1.4, 0.6, 7)
    h = kron_hamiltonian(1.4, 0.6, 7)
    mps = random_mps(7, 12, seed=4)
    vec = mps_to_dense(mps)
    assert abs(expectation(mps, build_mpo(p)) - vec @ h @ vec) < 1e-11


def test_observables_against_dense():
    n = 7
    mps = random_mps(n, 10, seed=8)
    vec = mps_to_dense(mps)
    obs = mps_observables(mps)
    states = np.arange(1 << n)
    prob = vec**2
    for i in range(n):
        sz_ref = prob @ (2.0 * ((states >> i) & 1) - 1.0)
        assert abs(obs.sz[i] - sz_ref) < 1e-11
    for (i, j) in [(0, 3), (2, 5), (1, 6), (4, 4)]:
        zi = 2.0 * ((states >> i) & 1) - 1.0
        zj = 2.0 * ((states >> j) & 1) - 1.0
        assert abs(obs.czz[(i, j)] - prob @ (zi * zj)) < 1e-11
        if i == j:
            ref = prob @ ((states >> i) & 1)
        else:
            ok = (((states >> i) & 1) == 0) & (((states >> j) & 1) == 1)
            src = states[ok]
            ref = vec[src ^ (1 << i) ^ (1 << j)] @ vec[src]
        assert abs(obs.cpm[(i, j)] - ref) < 1e-11


@pytest.mark.parametrize("i,j", [(0, 1), (3, 4), (6, 7), (0, 7)])
def test_two_point_against_state_vector(i, j):
    n = 8
    mps = random_mps(n, 16, seed=21)
    vec = mps_to_dense(mps)
    for op_i, op_j in [(mps_mod.SZ, mps_mod.SZ), (mps_mod.SP, mps_mod.SM)]:
        ref = vec @ site_op(op_i, i, n) @ site_op(op_j, j, n) @ vec
        assert abs(two_point(mps, op_i, op_j, i, j) - ref) < 1e-12


def test_polarized_product_observables():
    up = np.zeros((1, 2, 1))
    up[0, 1, 0] = 1.0
    mps = MatrixProductState([up.copy() for _ in range(5)])
    obs = mps_observables(mps)
    assert np.allclose(obs.sz, 1.0, atol=1e-14)
    assert all(abs(v) < 1e-14 for (i, j), v in obs.cpm.items() if i != j)
    assert all(abs(obs.cpm[(i, i)] - 1.0) < 1e-14 for i in range(5))


def test_entropy_profile_matches_single_bond_calls():
    mps = random_mps(8, 8, seed=1)
    profile = entropy_profile(mps)
    fresh = random_mps(8, 8, seed=1)
    singles = [mps_entropy(fresh, b) for b in range(1, 8)]
    assert np.allclose(profile, singles, atol=1e-12)
