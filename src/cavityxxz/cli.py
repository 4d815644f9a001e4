"""Command-line runner.

Subcommands: ed, spinwave, dmrg, sweep, fit-c, classify, cavity map|simulate|compare.
Every subcommand takes --config <path> and --out <dir>; ed, dmrg, sweep and
fit-c take --seed <u64>; sweep alone takes --workers <n> and
--format csv|json|both.  Exit codes: 0 success, 1 configuration error,
2 systemic runtime error.  Results go to --out as files when given,
otherwise JSON is printed to stdout.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import records as rec
from .analysis import classify_phase, fit_central_charge, order_parameters
from .cavity import (
    CavityParams,
    Trajectory,
    compare_trajectories,
    effective_params,
    simulate_effective,
    simulate_full,
)
from .config import DMRG_OPTIONS, emit_config, parse_config, section_with_defaults
from .errors import CavityXXZError, InvalidParams, ModeInstability, ParseError, Unclassifiable
from .exactdiag import cut_entanglement_entropy, global_ground_state, sector_ground_state
from .model import PERIODIC, ModelParams
from .spinwave import (
    classify_spinwave,
    excitation_density,
    fm_phase_boundary,
    fm_spectrum,
    xy_spectrum,
)
from .sweep import SweepGrid, run_sweep
from .tensornet import DmrgConfig, dmrg_ground_state


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are configuration errors (exit 1)
        raise ParseError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cavityxxz", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False):
        p.add_argument("--config", help="config file (sections per subcommand)")
        p.add_argument("--out", help="output directory")
        if seed:
            p.add_argument("--seed", type=non_negative_int, default=0)

    def model_flags(p):
        p.add_argument("--alpha", type=float)
        p.add_argument("--j", type=float)
        p.add_argument("--n", type=int)

    p_ed = sub.add_parser("ed", help="exact diagonalization at one parameter point")
    common(p_ed, seed=True)
    model_flags(p_ed)

    p_sw = sub.add_parser("spinwave", help="spin-wave spectra and classification")
    common(p_sw)
    model_flags(p_sw)

    p_dm = sub.add_parser("dmrg", help="single DMRG ground-state run")
    common(p_dm, seed=True)
    model_flags(p_dm)

    p_sweep = sub.add_parser("sweep", help="phase-diagram sweep over an (alpha, J) grid")
    common(p_sweep, seed=True)
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--format", choices=("csv", "json", "both"), default="both")

    p_fit = sub.add_parser("fit-c", help="fit S = (c/6) ln L + b to an entropy CSV")
    common(p_fit, seed=True)
    p_fit.add_argument("input", nargs="?", help="CSV with columns L, S")

    p_cls = sub.add_parser("classify", help="label a phase point from its diagnostics")
    common(p_cls)
    p_cls.add_argument("input", nargs="?", help="JSON with c and sigma_z_mean")

    p_cav = sub.add_parser("cavity", help="cavity mapping and master-equation runs")
    common(p_cav)
    p_cav.add_argument("action", choices=("map", "simulate", "compare"))
    p_cav.add_argument("inputs", nargs="*", help="trajectory CSVs (compare)")
    p_cav.add_argument("--model", choices=("full", "effective"), default="effective")

    return parser


def _sections(args):
    return parse_config(args.config) if args.config else {}


def _emit(args, payload: dict, filename: str) -> None:
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        rec.write_json(payload, os.path.join(args.out, filename))
        print(os.path.join(args.out, filename))
    else:
        sys.stdout.write(rec.dump_json(payload))


def _write_csv(path, header: str, rows) -> None:
    lines = [header] + [",".join(rec.fmt_float(x) if isinstance(x, float) else str(x)
                                 for x in row) for row in rows]
    rec.write_text("\n".join(lines) + "\n", path)


def _cmd_ed(args) -> int:
    cfg = section_with_defaults(_sections(args), "ed",
                                {"alpha": args.alpha, "j": args.j, "n": args.n})
    p = ModelParams(cfg["alpha"], cfg["j"], cfg["n"])
    cut = cfg["cut"] if cfg["cut"] is not None else cfg["n"] // 2
    if cfg["n_up"] is not None:
        state = sector_ground_state(p, cfg["n_up"], method=cfg["method"], seed=args.seed)
        payload = {"alpha": p.alpha, "j": p.j_lr, "n": p.n_sites, "n_up": state.n_up,
                   "energy": state.energy,
                   "s_cut": cut_entanglement_entropy(state, cut), "cut": cut}
    else:
        report = global_ground_state(p, method=cfg["method"], seed=args.seed)
        sigma_z_mean, plateau = order_parameters(report.observables.sz,
                                                 report.observables.cpm)
        payload = {
            "alpha": p.alpha, "j": p.j_lr, "n": p.n_sites,
            "energy": report.energy,
            "sector": report.sector,
            "degenerate_sectors": report.degenerate_sectors,
            "sector_energies": {str(k): v for k, v in report.sector_energies.items()},
            "s_cut": cut_entanglement_entropy(report.state, cut), "cut": cut,
            "sz_profile": list(report.observables.sz),
            "sigma_z_mean": sigma_z_mean,
            "xy_plateau": plateau,
        }
    payload["config"] = emit_config({"ed": cfg})
    _emit(args, payload, "ed.json")
    return 0


def _cmd_spinwave(args) -> int:
    cfg = section_with_defaults(_sections(args), "spinwave",
                                {"alpha": args.alpha, "j": args.j, "n": args.n})
    p = ModelParams(cfg["alpha"], cfg["j"], cfg["n"], boundary=PERIODIC)
    fm = fm_spectrum(p)
    xy = xy_spectrum(p)
    payload = {
        "alpha": p.alpha, "j": p.j_lr, "n": p.n_sites,
        "fm_boundary_alpha": fm_phase_boundary(p.j_lr),
        "fm_min_omega": fm.min_energy,
        "fm_stable": fm.stable,
        "xy_stable": xy.stable,
        "config": emit_config({"spinwave": cfg}),
    }
    try:
        payload["label"] = classify_spinwave(p, n_list=cfg["n_list"])
    except Unclassifiable as exc:
        payload["label"] = None
        payload["error"] = str(exc)
    try:
        density = excitation_density(p, n_list=cfg["n_list"])
        payload["excitation_density"] = {
            "classification": density.classification,
            "value": None if density.value == float("inf") else density.value,
            "slope": density.slope,
            "series": [[n, d] for n, d in density.finite_n_series],
        }
    except ModeInstability as exc:
        payload["excitation_density"] = {"error": str(exc)}

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        rows = []
        for spec in (fm, xy):
            for k, w, m, e in zip(spec.k_index, spec.omega, spec.mu, spec.energy):
                rows.append((int(k), spec.vacuum, float(w), float(m), float(e)))
        _write_csv(os.path.join(args.out, "spinwave_modes.csv"),
                   "k,vacuum,omega,mu,energy", rows)
    _emit(args, payload, "spinwave.json")
    return 0


def _cmd_dmrg(args) -> int:
    cfg = section_with_defaults(_sections(args), "dmrg",
                                {"alpha": args.alpha, "j": args.j, "n": args.n})
    p = ModelParams(cfg["alpha"], cfg["j"], cfg["n"])
    settings = {k: cfg[k] for k in DMRG_OPTIONS}
    mps, report = dmrg_ground_state(p, DmrgConfig(**settings, seed=args.seed))
    payload = {
        "alpha": p.alpha, "j": p.j_lr, "n": p.n_sites,
        "energy": report.energy,
        "energies_per_sweep": report.energies_per_sweep,
        "converged": report.converged,
        "status": report.status,
        "n_sweeps": report.n_sweeps,
        "max_truncation_error": report.max_truncation_error,
        "s_half": report.entropy_profile[p.n_sites // 2 - 1],
        "entropy_profile": report.entropy_profile,
        "bond_dims": mps.bond_dims,
        "seed": args.seed,
        "config": emit_config({"dmrg": cfg}),
    }
    _emit(args, payload, "dmrg.json")
    return 0


def _cmd_sweep(args) -> int:
    if not args.out:
        raise ParseError("sweep requires --out")
    cfg = section_with_defaults(_sections(args), "sweep")
    grid = SweepGrid(cfg["alpha_values"], cfg["j_values"], cfg["sizes"])
    print(f"grid: {len(cfg['alpha_values'])} alpha x {len(cfg['j_values'])} J "
          f"= {grid.cardinality} points, sizes {list(cfg['sizes'])}")
    formats = ("csv", "json") if args.format == "both" else (args.format,)
    settings = {k: cfg[k] for k in DMRG_OPTIONS}
    DmrgConfig(**settings)  # bad settings fail here, not once per point
    os.makedirs(args.out, exist_ok=True)
    rec.write_text(emit_config({"sweep": cfg}), os.path.join(args.out, "sweep.cfg"))
    summary = run_sweep(grid, settings, args.out, base_seed=args.seed,
                        workers=args.workers, formats=formats)
    sys.stdout.write(rec.dump_json(summary))
    return 0


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _read_entropy_csv(path):
    """(L, S) from the first two cells of each row; blank lines are skipped, and
    so is the first row when its first cell is not a number (a header)."""
    points = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [(k, line.strip()) for k, line in enumerate(fh, 1) if line.strip()]
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None
    if lines and not _is_number(lines[0][1].replace(",", " ").split()[0]):
        lines = lines[1:]
    for lineno, line in lines:
        cells = line.replace(",", " ").split()
        if len(cells) < 2 or not all(_is_number(x) for x in cells[:2]):
            raise ParseError(f"{path}: line {lineno}: expected numbers L, S, got {line!r}")
        points.append((float(cells[0]), float(cells[1])))
    return points


def _cmd_fit_c(args) -> int:
    overrides = {"input": args.input} if args.input else {}
    cfg = section_with_defaults(_sections(args), "fit-c", overrides)
    points = _read_entropy_csv(cfg["input"])
    fit = fit_central_charge(points, bootstrap=cfg["bootstrap"], seed=args.seed)
    payload = {"input": cfg["input"], "points": [[l, s] for l, s in points],
               "c": fit.c, "offset": fit.offset, "residual": fit.residual,
               "ci_halfwidth": fit.ci_halfwidth}
    _emit(args, payload, "fit_c.json")
    return 0


def _read_point(path):
    """The JSON object in ``path`` and its ``c`` and ``sigma_z_mean`` as floats.

    A sweep record of status ``ok`` or ``partial`` has both; a ``failed`` one
    holds them as null, which is an error here like any other malformed input.
    """
    try:
        point = rec.load_json(path)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ParseError(f"{path}: not a JSON file ({exc})")
    values = []
    for key in ("c", "sigma_z_mean"):
        try:
            values.append(float(point[key]))
        except (KeyError, TypeError, ValueError):
            raise ParseError(f"{path}: field '{key}' is missing, null or not a number")
    return point, values


def _cmd_classify(args) -> int:
    overrides = {"input": args.input} if args.input else {}
    cfg = section_with_defaults(_sections(args), "classify", overrides)
    point, (c, sigma_z_mean) = _read_point(cfg["input"])
    label = classify_phase(c, sigma_z_mean)
    payload = dict(point, label=label)
    _emit(args, payload, "classified.json")
    return 0


def _trajectory_csv_rows(traj: Trajectory):
    n = traj.sigma_z.shape[1]
    header = ["t", "trace_error"] + [f"sz_{i}" for i in range(n)]
    if traj.photon is not None:
        header.append("photon")
    rows = []
    for k in range(traj.times.shape[0]):
        row = [float(traj.times[k]), float(traj.trace_error[k])]
        row.extend(float(x) for x in traj.sigma_z[k])
        if traj.photon is not None:
            row.append(float(traj.photon[k]))
        rows.append(row)
    return ",".join(header), rows


def _load_trajectory_csv(path) -> Trajectory:
    """A CSV as ``cavity simulate`` writes it: columns t, trace_error, sz_<i>
    and, for the full model, photon."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        cols = {name: i for i, name in enumerate(header)}
        sz_cols = [cols[h] for h in header if h.startswith("sz_")]
        return Trajectory(
            times=data[:, cols["t"]],
            sigma_z=data[:, sz_cols],
            photon=data[:, cols["photon"]] if "photon" in cols else None,
            trace_error=data[:, cols["trace_error"]],
        )
    except (KeyError, IndexError, ValueError) as exc:
        raise ParseError(f"{path}: not a trajectory CSV ({type(exc).__name__}: {exc})")


def _cmd_cavity(args) -> int:
    if args.action == "compare":
        if len(args.inputs) != 2:
            raise ParseError("cavity compare needs two trajectory CSV paths")
        report = compare_trajectories(_load_trajectory_csv(args.inputs[0]),
                                      _load_trajectory_csv(args.inputs[1]))
        _emit(args, report, "cavity_compare.json")
        return 0

    cfg = section_with_defaults(_sections(args), "cavity")
    cp = CavityParams(cfg["g"], cfg["delta_c"], cfg["kappa"],
                      cfg["j_xx"], cfg["j_z"], cfg["n_sites"])
    if args.action == "map":
        eff = effective_params(cp)
        payload = {
            "alpha": eff.alpha,
            "j_over_n": eff.j_over_n,
            "gamma_collective": eff.gamma_collective,
            # infinite at kappa = 0 and g = 0; JSON has no infinity
            "unitarity_ratio": None if np.isinf(eff.unitarity_ratio) else eff.unitarity_ratio,
            "bad_cavity_ratio": None if np.isinf(eff.bad_cavity_ratio) else eff.bad_cavity_ratio,
            "config": emit_config({"cavity": cfg}),
        }
        _emit(args, payload, "cavity_map.json")
        return 0

    if args.model == "full":
        traj = simulate_full(cp, cfg["n_max"], cfg["t_end"], cfg["dt"],
                             initial=cfg["initial"])
    else:
        traj = simulate_effective(cp, cfg["t_end"], cfg["dt"],
                                  include_dissipator=cfg["include_dissipator"],
                                  initial=cfg["initial"])
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"cavity_{args.model}.csv")
    header, rows = _trajectory_csv_rows(traj)
    _write_csv(path, header, rows)
    meta_path = os.path.join(out, f"cavity_{args.model}_meta.json")
    rec.write_json(traj.meta, meta_path)
    print(path)
    print(meta_path)
    return 0


_COMMANDS = {
    "ed": _cmd_ed,
    "spinwave": _cmd_spinwave,
    "dmrg": _cmd_dmrg,
    "sweep": _cmd_sweep,
    "fit-c": _cmd_fit_c,
    "classify": _cmd_classify,
    "cavity": _cmd_cavity,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ParseError, InvalidParams) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CavityXXZError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
