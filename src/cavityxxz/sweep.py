"""Phase-diagram sweep: DMRG over an (alpha, J) grid across chain sizes.

Each grid point runs DMRG for every requested size, builds the half-chain
entropy series, fits the effective central charge, computes order parameters
from the largest converged size, classifies the phase, and persists one
record.  Points are independent (optionally run in a process pool), seeded
deterministically from the base seed and their grid indices, and skipped on
rerun when their record file exists and was computed under the same settings.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import records as rec
from .analysis import bulk_window, classify_phase, fit_central_charge, order_parameters
from .errors import InsufficientPoints, InvalidParams
from .model import ModelParams
from .tensornet import DmrgConfig, dmrg_ground_state, mps_observables


@dataclass(frozen=True)
class SweepGrid:
    alpha_values: tuple
    j_values: tuple
    sizes: tuple

    def __post_init__(self):
        if not self.alpha_values or not self.j_values or not self.sizes:
            raise InvalidParams("sweep grid axes must be non-empty")

    @property
    def cardinality(self) -> int:
        return len(self.alpha_values) * len(self.j_values)


def point_seed(base_seed: int, *indices: int) -> int:
    """Per-run seed independent of worker scheduling."""
    ss = np.random.SeedSequence([int(base_seed)] + [int(i) for i in indices])
    return int(ss.generate_state(1, np.uint64)[0])


def run_point(alpha: float, j: float, sizes, settings: dict, base_seed: int,
              indices=(0, 0)) -> dict:
    """Compute one sweep record (pure function of its arguments).

    ``settings`` holds the ``DmrgConfig`` fields but the seed, which comes
    from ``point_seed``.  Sizes that did not converge, or whose discarded
    weight in the last sweep exceeds ``settings["truncation_cut"]``, are
    flagged and excluded from the c fit.
    """
    size_entries = []
    series = []
    for il, n in enumerate(sizes):
        seed = point_seed(base_seed, indices[0], indices[1], il)
        entry = {"n": int(n), "seed": seed}
        try:
            mps, report = dmrg_ground_state(ModelParams(alpha, j, int(n)),
                                            DmrgConfig(**settings, seed=seed))
            lo, hi = bulk_window(int(n))
            obs = mps_observables(mps, pairs=[(lo, hi - 1)])
            sigma_z_mean, plateau = order_parameters(obs.sz, obs.cpm)
            entry.update(
                energy=report.energy,
                s_half=report.entropy_profile[int(n) // 2 - 1],
                sigma_z_mean=sigma_z_mean,
                xy_plateau=plateau,
                converged=report.converged,
                max_truncation_error=report.max_truncation_error,
                n_sweeps=report.n_sweeps,
                local_matvecs=sum(report.matvecs_per_sweep),
                status=report.status,
            )
            if report.status == "ok":
                series.append((int(n), entry["s_half"]))
        except Exception as exc:  # captured per point, never dropped
            entry.update(status=f"error:{type(exc).__name__}", message=str(exc))
        size_entries.append(entry)

    record = {
        "schema_version": rec.SCHEMA_VERSION,
        "alpha": float(alpha),
        "j": float(j),
        "seed": int(base_seed),
        "sizes": size_entries,
        "meta": {"written_at": rec.timestamp()},
    }
    try:
        fit = fit_central_charge(series)
        largest_ok = max((e for e in size_entries if e.get("status") == "ok"),
                         key=lambda e: e["n"])
        record.update(
            c=fit.c,
            c_offset=fit.offset,
            c_residual=fit.residual,
            c_ci_halfwidth=fit.ci_halfwidth,
            sigma_z_mean=largest_ok["sigma_z_mean"],
            xy_plateau=largest_ok["xy_plateau"],
            label=classify_phase(fit.c, largest_ok["sigma_z_mean"]),
            status="ok" if all(e.get("status") == "ok" for e in size_entries) else "partial",
        )
    except (InsufficientPoints, ValueError):
        record.update(c=None, c_offset=None, c_residual=None, c_ci_halfwidth=None,
                      sigma_z_mean=None, xy_plateau=None, label=None, status="failed")
    return record


def _run_point_task(task: dict) -> dict:
    return run_point(task["alpha"], task["j"], task["sizes"], task["settings"],
                     task["base_seed"], task["indices"])


def record_filename(alpha: float, j: float) -> str:
    return f"point_a{alpha:.6g}_j{j:.6g}.json"


def _fingerprint(task: dict) -> dict:
    """What a record depends on besides (alpha, j), in its JSON form."""
    return rec.quantize({k: task[k] for k in ("base_seed", "indices", "sizes", "settings")})


def run_sweep(grid: SweepGrid, settings: dict, out_dir, base_seed: int = 0,
              workers: int = 1, formats=("csv", "json")) -> dict:
    """Run the full grid; resumable and deterministic.

    A record file is reused only when the fingerprint in its ``meta`` (base
    seed, grid indices, sizes, settings) matches.  Records are written by this
    process in grid order, each once it and every point before it are done, so
    a crash keeps them.  Aggregates are rewritten from the full record set.
    """
    records_dir = os.path.join(out_dir, "records")
    os.makedirs(records_dir, exist_ok=True)

    tasks, cached = [], {}
    for ia, alpha in enumerate(grid.alpha_values):
        for ij, j in enumerate(grid.j_values):
            task = {"alpha": alpha, "j": j, "sizes": tuple(grid.sizes),
                    "settings": settings, "base_seed": base_seed,
                    "indices": (ia, ij)}
            path = os.path.join(records_dir, record_filename(alpha, j))
            record = rec.load_json(path) if os.path.exists(path) else {}
            if record.get("meta", {}).get("fingerprint") == _fingerprint(task):
                cached[(ia, ij)] = record
            else:
                tasks.append(task)

    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        results = pool.map(_run_point_task, tasks) if pool else map(_run_point_task, tasks)
        for task, record in zip(tasks, results):
            record["meta"]["fingerprint"] = _fingerprint(task)
            cached[task["indices"]] = record
            path = os.path.join(records_dir, record_filename(task["alpha"], task["j"]))
            rec.write_json(record, path)

    ordered = [cached[(ia, ij)]
               for ia in range(len(grid.alpha_values))
               for ij in range(len(grid.j_values))]
    written = rec.emit_records(ordered, out_dir, formats=formats)
    return {
        "computed": len(tasks),
        "skipped": grid.cardinality - len(tasks),
        "records_dir": records_dir,
        "aggregates": written,
    }
