"""Per-layer tracing from outside the program.

The tracer wraps functions of the program at their module attributes and
records one span per call: name, parent span, start, end, plus counts taken
from the arguments or the result.  A function is wrapped wherever the
package binds it (``from .x import f`` copies included), so calls made
through any module see the wrapper.  Private hooks are optional: when a
refactor removes or renames one, the metrics that need it are left out of
the result instead of failing the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# (span name, module, attribute).  Names with a leading underscore are private
# hooks that later refactors may rename or merge.
HOOKS = [
    ("model.sector_basis", "cavityxxz.model", "sector_basis"),
    ("model.sector_dense_block", "cavityxxz.model", "sector_dense_block"),
    ("model.make_sector_matvec", "cavityxxz.model", "make_sector_matvec"),
    ("exactdiag.global_ground_state", "cavityxxz.exactdiag", "global_ground_state"),
    ("exactdiag.sector_ground_state", "cavityxxz.exactdiag", "sector_ground_state"),
    ("exactdiag.lanczos_ground", "cavityxxz.exactdiag", "lanczos_ground"),
    ("exactdiag.correlators", "cavityxxz.exactdiag", "correlators"),
    ("sweep.run_point", "cavityxxz.sweep", "run_point"),
    ("dmrg.dmrg_ground_state", "cavityxxz.tensornet.dmrg", "dmrg_ground_state"),
    ("dmrg._solve_local", "cavityxxz.tensornet.dmrg", "_solve_local"),
    ("dmrg._lanczos_warm", "cavityxxz.tensornet.dmrg", "_lanczos_warm"),
    ("dmrg._local_matvec", "cavityxxz.tensornet.dmrg", "_local_matvec"),
    ("dmrg._split", "cavityxxz.tensornet.dmrg", "_split"),
    ("mpo.build_mpo", "cavityxxz.tensornet.mpo", "build_mpo"),
    ("mpo.expectation", "cavityxxz.tensornet.mpo", "expectation"),
    ("mpo._advance", "cavityxxz.tensornet.mpo", "_advance"),
    ("mpo._advance_right", "cavityxxz.tensornet.mpo", "_advance_right"),
    ("mps.mps_observables", "cavityxxz.tensornet.mps", "mps_observables"),
    ("mps.two_point", "cavityxxz.tensornet.mps", "two_point"),
    ("mps.entropy_profile", "cavityxxz.tensornet.mps", "entropy_profile"),
    ("analysis.fit_central_charge", "cavityxxz.analysis", "fit_central_charge"),
    ("analysis.classify_phase", "cavityxxz.analysis", "classify_phase"),
    ("analysis.order_parameters", "cavityxxz.analysis", "order_parameters"),
    ("cavity.simulate_full", "cavityxxz.cavity", "simulate_full"),
    ("cavity.simulate_effective", "cavityxxz.cavity", "simulate_effective"),
    ("cavity.compare_trajectories", "cavityxxz.cavity", "compare_trajectories"),
    ("cavity._rk4", "cavityxxz.cavity", "_rk4"),
]

# Layers whose self time is reported as "<layer>.self_s".
LAYERS = ("model", "exactdiag", "dmrg", "mpo", "mps", "analysis", "sweep", "cavity")


def local_matvec_flops(lenv, w1, w2, renv, theta) -> int:
    """Multiply-adds x 2 of the four pairwise contractions of the two-site matvec.

    Counted from the operand shapes for the contraction order
    L.theta -> .W1 -> .W2 -> .R, so the figure is a fixed measure of the work
    a local matvec needs whatever order a later version contracts in.
    """
    a, w, b = lenv.shape
    _, s1, s2, c = theta.shape
    t1, v = w1.shape[1], w1.shape[3]
    t2, x = w2.shape[1], w2.shape[3]
    d = renv.shape[0]
    return 2 * (a * w * b * s1 * s2 * c + a * s2 * c * t1 * v * w * s1
                + a * c * t1 * t2 * x * v * s2 + a * t1 * t2 * d * c * x)


class Tracer:
    """Spans kept in memory: parallel lists indexed by span id."""

    def __init__(self):
        self.installed = set()
        self._patches = []
        self.reset()

    def reset(self):
        self.names, self.parents, self.starts, self.ends = [], [], [], []
        self.counts = defaultdict(float)  # (span name, counter) -> total
        self._stack = []

    # -- recording -------------------------------------------------------
    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[sid] = time.perf_counter()
                self.starts[sid] = t0
                self._stack.pop()
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        return traced

    @staticmethod
    def _after(name, fn):
        """Counter read from a call's arguments or result, for the hooks that have one."""
        if name == "dmrg.dmrg_ground_state":
            def after(counts, args, kwargs, result):
                counts[(name, "sweeps")] += result[1].n_sweeps
        elif name == "dmrg._local_matvec":
            def after(counts, args, kwargs, result):
                counts[(name, "flops")] += local_matvec_flops(*args, **kwargs)
        elif name == "cavity._rk4":
            sig = inspect.signature(fn)

            def after(counts, args, kwargs, result):
                counts[(name, "steps")] += sig.bind(*args, **kwargs).arguments.get("n_steps", 0)
        else:
            after = None
        return after

    def install(self):
        """Wrap every hook found; remembers which ones were found."""
        for name, modname, attr in HOOKS:
            module = sys.modules.get(modname)
            fn = getattr(module, attr, None) if module is not None else None
            if not callable(fn):
                continue
            if name == "model.make_sector_matvec":
                wrapped = self._wrap_factory(name, fn, "model.sector_matvec")
            else:
                wrapped = self._wrap(name, fn, self._after(name, fn))
            self.installed.add(name)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("cavityxxz"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, wrapped)

    def _wrap_factory(self, name, factory, product_name):
        """Wrap a function that returns a closure, and trace the closure too."""
        traced_factory = self._wrap(name, factory)

        @functools.wraps(factory)
        def make(*args, **kwargs):
            return self._wrap(product_name, traced_factory(*args, **kwargs))

        return make

    def uninstall(self):
        for mod, key, fn in reversed(self._patches):
            setattr(mod, key, fn)
        self._patches.clear()

    # -- reporting -------------------------------------------------------
    def spans(self) -> list:
        return [[n, p, s, e] for n, p, s, e in zip(self.names, self.parents, self.starts, self.ends)]

    def metrics(self) -> dict:
        """Per-layer totals of one traced operation, as {metric: (value, unit)}."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        kids = defaultdict(set)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
                kids[p].add(self.names[i])
        total, calls, self_time = defaultdict(float), defaultdict(int), defaultdict(float)
        for i, name in enumerate(self.names):
            total[name] += dur[i]
            calls[name] += 1
            self_time[name] += dur[i] - child[i]

        def has_ancestor(i, name):
            p = self.parents[i]
            while p >= 0:
                if self.names[p] == name:
                    return True
                p = self.parents[p]
            return False

        have = self.installed.__contains__
        out = {}

        def put(metric, value, unit, *needs):
            if all(have(h) for h in needs):
                out[metric] = (float(value), unit)

        cnt = self.counts
        put("dmrg.ground_state_s", total["dmrg.dmrg_ground_state"], "s", "dmrg.dmrg_ground_state")
        put("dmrg.sweeps", cnt[("dmrg.dmrg_ground_state", "sweeps")], "count", "dmrg.dmrg_ground_state")
        put("dmrg.local_solves", calls["dmrg._solve_local"], "count", "dmrg._solve_local")
        put("dmrg.lanczos_solve_s", total["dmrg._lanczos_warm"], "s", "dmrg._lanczos_warm")
        put("dmrg.dense_solve_s",
            sum(dur[i] for i in range(n) if self.names[i] == "dmrg._solve_local"
                and "dmrg._lanczos_warm" not in kids[i]),
            "s", "dmrg._solve_local", "dmrg._lanczos_warm")
        put("dmrg.local_matvecs", calls["dmrg._local_matvec"], "count", "dmrg._local_matvec")
        put("dmrg.local_matvec_s", total["dmrg._local_matvec"], "s", "dmrg._local_matvec")
        gflop = cnt[("dmrg._local_matvec", "flops")] / 1e9
        put("dmrg.local_matvec_gflop", gflop, "GFLOP", "dmrg._local_matvec")
        matvec_s = total["dmrg._local_matvec"]
        put("dmrg.local_matvec_gflop_s", gflop / matvec_s if matvec_s > 0 else 0.0, "GFLOP/s",
            "dmrg._local_matvec")
        put("dmrg.split_s", total["dmrg._split"], "s", "dmrg._split")
        put("dmrg.env_update_s",
            sum(dur[i] for i in range(n) if self.names[i] in ("mpo._advance", "mpo._advance_right")
                and self.parents[i] >= 0 and self.names[self.parents[i]] == "dmrg.dmrg_ground_state"),
            "s", "mpo._advance", "mpo._advance_right", "dmrg.dmrg_ground_state")
        put("mps.observables_s", total["mps.mps_observables"], "s", "mps.mps_observables")
        put("mps.two_point_s", total["mps.two_point"], "s", "mps.two_point")
        put("mps.entropy_profile_s", total["mps.entropy_profile"], "s", "mps.entropy_profile")
        put("mpo.build_s", total["mpo.build_mpo"], "s", "mpo.build_mpo")
        put("mpo.expectation_s", total["mpo.expectation"], "s", "mpo.expectation")
        put("analysis.fit_c_s", total["analysis.fit_central_charge"], "s",
            "analysis.fit_central_charge")
        put("model.sector_basis_s", total["model.sector_basis"], "s", "model.sector_basis")
        put("model.dense_block_s", total["model.sector_dense_block"], "s", "model.sector_dense_block")
        put("model.sector_matvecs", calls["model.sector_matvec"], "count", "model.make_sector_matvec")
        put("model.sector_matvec_s", total["model.sector_matvec"], "s", "model.make_sector_matvec")
        put("exactdiag.lanczos_s", total["exactdiag.lanczos_ground"], "s", "exactdiag.lanczos_ground")
        put("exactdiag.lanczos_iters",
            sum(1 for i in range(n) if self.names[i] == "model.sector_matvec"
                and has_ancestor(i, "exactdiag.lanczos_ground")),
            "count", "exactdiag.lanczos_ground", "model.make_sector_matvec")
        put("exactdiag.dense_sector_s",
            sum(dur[i] for i in range(n) if self.names[i] == "exactdiag.sector_ground_state"
                and "exactdiag.lanczos_ground" not in kids[i]),
            "s", "exactdiag.sector_ground_state", "exactdiag.lanczos_ground")
        put("exactdiag.correlators_s", total["exactdiag.correlators"], "s", "exactdiag.correlators")
        put("cavity.full_s", total["cavity.simulate_full"], "s", "cavity.simulate_full")
        put("cavity.effective_s", total["cavity.simulate_effective"], "s", "cavity.simulate_effective")
        steps = cnt[("cavity._rk4", "steps")]
        put("cavity.rk4_steps", steps, "count", "cavity._rk4")
        put("cavity.step_us", 1e6 * total["cavity._rk4"] / steps if steps else 0.0, "us", "cavity._rk4")
        for layer in LAYERS:
            put(f"{layer}.self_s",
                sum(t for name, t in self_time.items() if name.split(".")[0] == layer), "s")
        out["trace.spans"] = (float(n), "count")
        return out
