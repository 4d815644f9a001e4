import os
import subprocess
import sys

import cavityxxz

# Everything but ED, spin waves included, runs on numpy alone; ED loads
# scipy.sparse with its first sector operator.
SCRIPT = """
import sys
import cavityxxz, cavityxxz.cli
from cavityxxz.cavity import CavityParams, simulate_effective, simulate_full
from cavityxxz.exactdiag import sector_ground_state
from cavityxxz.model import ModelParams
from cavityxxz.spinwave import excitation_density
from cavityxxz.tensornet.dmrg import DmrgConfig, dmrg_ground_state

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

dmrg_ground_state(ModelParams(1.5, 0.5, 8), DmrgConfig(chi_max=8))
cp = CavityParams(g=0.25, delta_c=100.0, kappa=5.0, j_xx=1.0, j_z=1.0, n_sites=2)
simulate_full(cp, n_max=2, t_end=0.1, dt=1e-3)
simulate_effective(cp, t_end=0.1, dt=1e-3)
excitation_density(ModelParams(1.5, 0.5, 16, boundary="periodic"))
print(scipy_modules())
sector_ground_state(ModelParams(1.5, 0.5, 8), 4)
print("scipy.sparse" in scipy_modules())
"""


def test_only_exact_diagonalization_loads_scipy():
    # A fresh interpreter: the test process itself has loaded scipy.
    src = os.path.dirname(os.path.dirname(cavityxxz.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.splitlines() == ["[]", "True"]
