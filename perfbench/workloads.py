"""The workloads: inputs from a seed, the timed operation, and its checks.

Each workload provides

- ``inputs(seed)``: everything the operation needs, a pure function of the seed;
- ``run(inputs)``: the timed operation, one call into the program;
- ``outputs(result)``: the plain numbers the checks and the log need;
- ``reference(inputs)``: an independent reference, computed once per run
  outside the timed interval and imported only then, so that set-up time
  covers the program alone;
- ``check(outputs, reference)``: a list of failed checks, empty when correct;
- ``physics(outputs)``: the physics numbers logged with the metrics, so that
  a change which moves them shows.
"""

from __future__ import annotations

import math

import numpy as np

from cavityxxz import cavity, exactdiag, sweep
from cavityxxz.model import ModelParams

DMRG_SETTINGS = {"chi_max": 64, "truncation_cut": 1e-6, "energy_tol": 1e-9, "max_sweeps": 30}
ED_PARAMS = (1.5, 0.5, 16)


def _fails(*pairs) -> list[str]:
    """Messages of the (ok, message) pairs whose condition is not met."""
    return [msg for ok, msg in pairs if not ok]


class PointXY:
    """``sweep.run_point`` at the XY-SSB point over three chain sizes, DMRG
    seeded from the workload seed."""

    ALPHA, J_LR, SIZES = 1.5, 0.5, (16, 24, 32)

    def inputs(self, seed: int) -> dict:
        return {"alpha": self.ALPHA, "j": self.J_LR, "sizes": self.SIZES,
                "settings": dict(DMRG_SETTINGS), "base_seed": seed}

    def run(self, inp: dict) -> dict:
        return sweep.run_point(inp["alpha"], inp["j"], inp["sizes"], inp["settings"],
                               base_seed=inp["base_seed"])

    def outputs(self, record: dict) -> dict:
        keys = ("n", "energy", "s_half", "converged", "max_truncation_error", "n_sweeps", "status")
        return {"c": record["c"], "label": record["label"], "status": record["status"],
                "sizes": [{k: e.get(k) for k in keys} for e in record["sizes"]]}

    def physics(self, out: dict) -> dict:
        return {"c": out["c"], "label": out["label"],
                "energy": {e["n"]: e["energy"] for e in out["sizes"]},
                "s_half": {e["n"]: e["s_half"] for e in out["sizes"]},
                "max_truncation_error": max(e["max_truncation_error"] or 0.0 for e in out["sizes"])}

    def reference(self, inp: dict) -> float:
        import reference

        return reference.chain_ground_energy(inp["alpha"], inp["j"], 16)

    def check(self, out: dict, e_ref: float) -> list[str]:
        e16 = next(e["energy"] for e in out["sizes"] if e["n"] == 16)
        checks = [
            (e16 is not None and abs(e16 - e_ref) <= 1e-7,
             f"E(16) = {e16!r} vs sparse reference {e_ref!r}"),
            (e16 is not None and e16 >= e_ref - 1e-9,
             f"E(16) = {e16!r} below the exact ground energy {e_ref!r}"),
            (out["c"] is not None and out["c"] > 1.2, f"c = {out['c']} not above 1.2"),
            (out["label"] == "XY_SSB", f"label {out['label']} is not XY_SSB"),
            (out["status"] == "ok", f"record status {out['status']}"),
        ]
        # The truncation gate is checked here because run_point reports
        # status "ok" whatever the discarded weight.
        for e in out["sizes"]:
            n = e["n"]
            checks += [
                (e["status"] == "ok" and e["converged"] is True, f"N={n} not converged ({e['status']})"),
                (e["max_truncation_error"] is not None
                 and e["max_truncation_error"] <= DMRG_SETTINGS["truncation_cut"],
                 f"N={n} discarded weight {e['max_truncation_error']} above the cut"),
                (e["s_half"] is not None and e["s_half"] <= n / 2 * math.log(2),
                 f"N={n} S_half {e['s_half']} above (N/2) ln 2"),
            ]
        return _fails(*checks)


class EdOracle:
    """``exactdiag.global_ground_state`` at N = 16: all 17 sectors plus correlators."""

    def inputs(self, seed: int) -> dict:
        return {"params": ModelParams(*ED_PARAMS), "seed": seed}

    def run(self, inp: dict):
        return exactdiag.global_ground_state(inp["params"], seed=inp["seed"])

    def outputs(self, rep) -> dict:
        obs = rep.observables
        return {"energy": rep.energy, "sector": rep.sector,
                "sector_energies": [rep.sector_energies[k] for k in sorted(rep.sector_energies)],
                "sz": obs.sz.copy(), "czz": obs.czz.copy(), "cpm": obs.cpm.copy()}

    def physics(self, out: dict) -> dict:
        return {"energy": out["energy"], "sector": out["sector"]}

    def reference(self, inp: dict) -> float:
        import reference

        return reference.chain_ground_energy(*ED_PARAMS)

    def check(self, out: dict, e_ref: float) -> list[str]:
        alpha, j_lr, n = ED_PARAMS
        es = out["sector_energies"]
        czz, cpm = out["czz"], out["cpm"]
        sym = cpm + cpm.T
        rebuilt = (-0.25 * sum(czz[i, i + 1] for i in range(n - 1))
                   - alpha / 2.0 * sum(sym[i, i + 1] for i in range(n - 1))
                   - j_lr / (2.0 * n) * sum(sym[i, j] for i in range(n) for j in range(i + 1, n)))
        flip = max(abs(es[k] - es[n - k]) for k in range(n + 1))
        return _fails(
            (len(es) == n + 1, f"{len(es)} sector energies, expected {n + 1}"),
            (flip <= 1e-9, f"spin-flip symmetry broken by {flip:.3e}"),
            (abs(es[0] + (n - 1) / 4.0) <= 1e-9, f"E(n_up=0) = {es[0]!r}, exact {-(n - 1) / 4}"),
            (abs(rebuilt - out["energy"]) <= 1e-9,
             f"energy from correlators {rebuilt!r} vs E0 {out['energy']!r}"),
            (abs(out["sz"].sum() - (2 * out["sector"] - n)) <= 1e-9,
             f"sum sz = {out['sz'].sum()!r} in sector {out['sector']}"),
            (abs(out["energy"] - e_ref) <= 1e-9,
             f"E0 = {out['energy']!r} vs sparse reference {e_ref!r}"),
        )


# Tolerance of fixed-step RK4 against exact propagation: the local error is
# O((omega dt)^5) with omega ~ delta_c / J_z = 100 and dt = 8e-4.
RK4_TOL = 1e-8
TRACE_TOL = 1e-6


class CavityPair:
    """Criterion-9 pair: full and eliminated master equations at two g / kappa."""

    G_OVER_KAPPA = (0.05, 0.025)
    T_END = 10.0

    def inputs(self, seed: int) -> dict:
        # Deterministic integrators from a fixed product state: the seed does
        # not enter.
        kappa = 5.0
        params = [cavity.CavityParams(g=gk * kappa, delta_c=20.0 * kappa, kappa=kappa,
                                      j_xx=1.0, j_z=1.0, n_sites=2)
                  for gk in self.G_OVER_KAPPA]
        return {"params": params, "n_max": 4, "t_end": self.T_END, "dt": 8e-4}

    def run(self, inp: dict) -> list:
        legs = []
        for cp in inp["params"]:
            full = cavity.simulate_full(cp, n_max=inp["n_max"], t_end=inp["t_end"], dt=inp["dt"])
            eff = cavity.simulate_effective(cp, t_end=inp["t_end"], dt=inp["dt"])
            legs.append((full, eff, cavity.compare_trajectories(full, eff)))
        return legs

    def outputs(self, legs: list) -> dict:
        out = []
        for full, eff, rep in legs:
            out.append({
                "t_final": float(full.times[-1]),
                "sz_full": full.sigma_z[-1].copy(), "sz_eff": eff.sigma_z[-1].copy(),
                "trace_error": float(max(full.trace_error.max(), eff.trace_error.max())),
                "max_deviation": max(v["max_abs_deviation"] for k, v in rep.items()
                                     if k.startswith("sigma_z")),
            })
        return {"legs": out}

    def physics(self, out: dict) -> dict:
        return {"max_deviation": [leg["max_deviation"] for leg in out["legs"]],
                "sz_full_final": [leg["sz_full"].tolist() for leg in out["legs"]]}

    def reference(self, inp: dict) -> list:
        import reference

        refs = []
        for cp in inp["params"]:
            rates = (cp.g, cp.delta_c, cp.kappa, cp.j_xx, cp.j_z, cp.n_sites)
            refs.append((reference.cavity_full_sz(*rates, inp["n_max"], inp["t_end"]),
                         reference.cavity_effective_sz(*rates, inp["t_end"])))
        return refs

    def check(self, out: dict, refs: list) -> list[str]:
        legs = out["legs"]
        checks = []
        for gk, leg, (ref_full, ref_eff) in zip(self.G_OVER_KAPPA, legs, refs):
            err_full = float(np.max(np.abs(leg["sz_full"] - ref_full)))
            err_eff = float(np.max(np.abs(leg["sz_eff"] - ref_eff)))
            checks += [
                (abs(leg["t_final"] - self.T_END) <= 1e-9, f"g/kappa={gk}: trajectory ends at {leg['t_final']}"),
                (leg["trace_error"] <= TRACE_TOL, f"g/kappa={gk}: trace error {leg['trace_error']:.3e}"),
                (err_full <= RK4_TOL, f"g/kappa={gk}: full <sz>(t_end) off exact by {err_full:.3e}"),
                (err_eff <= RK4_TOL, f"g/kappa={gk}: effective <sz>(t_end) off exact by {err_eff:.3e}"),
            ]
        checks += [
            (legs[0]["max_deviation"] <= 0.05,
             f"full-vs-effective deviation {legs[0]['max_deviation']:.4f} above 0.05"),
            (legs[1]["max_deviation"] < legs[0]["max_deviation"],
             "deviation does not shrink when g/kappa halves"),
        ]
        return _fails(*checks)


WORKLOADS = {
    "point_xy": PointXY(),
    "ed_oracle": EdOracle(),
    "cavity_pair": CavityPair(),
}
