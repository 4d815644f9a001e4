"""Ground-state engine for an XXZ chain with cavity-mediated infinite-range XX coupling.

Backends: exact diagonalization (dense / Lanczos), analytic spin-wave theory,
and two-site DMRG over matrix product states, with entanglement-entropy and
central-charge phase diagnostics plus the cavity-QED parameter mapping.
"""

from .analysis import (
    CentralChargeFit,
    classify_phase,
    fit_central_charge,
    order_parameters,
)
from .cavity import (
    CavityParams,
    EffectiveParams,
    Trajectory,
    compare_trajectories,
    effective_params,
    simulate_effective,
    simulate_full,
)
from .exactdiag import (
    GroundStateReport,
    SectorState,
    correlators,
    cut_entanglement_entropy,
    global_ground_state,
    sector_ground_state,
)
from .model import (
    ModelParams,
    SectorBasis,
    apply_hamiltonian,
    build_dense_hamiltonian,
    magnetization_sectors,
    sector_basis,
)
from .spinwave import (
    ExcitationDensityResult,
    SpinWaveSpectrum,
    bogoliubov_energy,
    classify_spinwave,
    excitation_density,
    fm_dispersion,
    fm_phase_boundary,
    fm_stability,
    xy_coefficients,
)
from .sweep import SweepGrid, run_sweep
from .tensornet import (
    DmrgConfig,
    DmrgReport,
    MatrixProductOperator,
    MatrixProductState,
    build_mpo,
    dmrg_ground_state,
    energy_variance,
    mps_entropy,
    mps_observables,
    random_mps,
)

__version__ = "0.1.0"
