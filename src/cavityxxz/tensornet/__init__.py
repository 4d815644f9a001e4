"""Matrix-product-state machinery: MPS, MPO, and the two-site DMRG engine."""

from .mps import (
    MatrixProductState,
    entropy_profile,
    mps_entropy,
    mps_observables,
    random_mps,
)
from .mpo import build_mpo, expectation, mpo_to_dense
from .dmrg import DmrgConfig, DmrgReport, dmrg_ground_state

__all__ = [
    "MatrixProductState",
    "DmrgConfig",
    "DmrgReport",
    "build_mpo",
    "dmrg_ground_state",
    "entropy_profile",
    "expectation",
    "mpo_to_dense",
    "mps_entropy",
    "mps_observables",
    "random_mps",
]
