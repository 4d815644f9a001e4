"""The benchmark's traced run must report every per-layer metric it declares.

The per-layer tracer in ``perfbench/tracing.py`` hooks package functions by
module and name, and silently leaves out a metric whose hook is gone.  This
test runs a small instance of each traced layer under the tracer and checks
that every ``per_layer`` name of ``BENCHMARK.json`` comes out, in strict
JSON, and that the Krylov and RK4 hooks saw work.  The benchmark files are
read, never edited.
"""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

from cavityxxz import cavity, exactdiag, sweep
from cavityxxz.model import ModelParams

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_layers():
    """One small call into every traced layer."""
    settings = {"chi_max": 16, "truncation_cut": 1e-6, "energy_tol": 1e-9, "max_sweeps": 10}
    sweep.run_point(1.5, 0.5, (8, 10, 12), settings, base_seed=0)
    exactdiag.global_ground_state(ModelParams(1.5, 0.5, 8))
    cp = cavity.CavityParams(g=0.25, delta_c=100.0, kappa=5.0, j_xx=1.0, j_z=1.0, n_sites=2)
    full = cavity.simulate_full(cp, n_max=2, t_end=0.05, dt=1e-3)
    eff = cavity.simulate_effective(cp, t_end=0.05, dt=1e-3)
    cavity.compare_trajectories(full, eff)


@pytest.fixture(scope="module")
def traced_layers():
    tracing = _load("tracing")
    with pytest.MonkeyPatch.context() as mp:
        # worker.py pins BLAS threads in os.environ when imported
        mp.setattr(os, "environ", dict(os.environ))
        worker = _load("worker")
    def hooked():
        return [getattr(sys.modules[mod], attr, None) for _, mod, attr in tracing.HOOKS]

    originals = hooked()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _run_layers()
    finally:
        tracer.uninstall()
    assert hooked() == originals
    layers = tracer.metrics()
    # the worker adds the traced wall time and the overhead over a plain round
    rounds = [{"traced": False, "ok": True, "wall": 1.0},
              {"traced": True, "ok": True, "wall": 1.5, "layers": layers}]
    return layers, worker._layer_metrics(rounds)


def test_every_declared_layer_metric_is_reported(traced_layers):
    _, metrics = traced_layers
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert len(declared) == 40
    missing = [name for name in declared if name not in metrics]
    assert not missing, f"per-layer metrics not reported: {missing}"
    json.dumps(metrics, allow_nan=False)  # strict JSON, as the run prints it


def test_krylov_and_rk4_hooks_see_work(traced_layers):
    layers, _ = traced_layers
    for name in ("dmrg.local_matvecs", "dmrg.lanczos_solve_s", "dmrg.dense_solve_s",
                 "exactdiag.lanczos_iters", "exactdiag.lanczos_s", "cavity.rk4_steps"):
        assert layers[name][0] > 0, name
