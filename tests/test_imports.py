import os
import subprocess
import sys

import cavityxxz


def test_package_imports_no_scipy_beyond_sparse():
    # A fresh interpreter: the test process itself has loaded scipy.linalg.
    src = os.path.dirname(os.path.dirname(cavityxxz.__file__))
    code = ("import sys, cavityxxz, cavityxxz.cli; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.linalg') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
