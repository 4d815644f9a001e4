import json
import os
import subprocess
import sys

import numpy as np
import pytest

from cavityxxz import sweep
from cavityxxz.analysis import bulk_window
from cavityxxz.cli import main
from cavityxxz.config import parse_config
from cavityxxz.errors import InvalidParams
from cavityxxz.exactdiag import global_ground_state
from cavityxxz.model import ModelParams
from cavityxxz.records import load_json, write_json
from cavityxxz.sweep import SweepGrid, point_seed, run_point, run_sweep
from cavityxxz.tensornet.dmrg import chi_schedule

FAST = {"chi_max": 32, "max_sweeps": 20, "truncation_cut": 1e-6, "energy_tol": 1e-9}


def strict_json(text):
    """json.loads that rejects the NaN and Infinity literals, which are not JSON."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


def strip_meta(record):
    return {k: v for k, v in record.items() if k != "meta"}


def test_grid_validation_and_cardinality():
    grid = SweepGrid((0.5, 1.5), (0.0, 0.5, 1.0), (12,))
    assert grid.cardinality == 6
    with pytest.raises(InvalidParams):
        SweepGrid((), (0.0,), (12,))


def test_chi_schedule():
    assert chi_schedule(128) == (16, 32, 64, 128)
    assert chi_schedule(16) == (16,)
    assert chi_schedule(8) == (8,)
    assert chi_schedule(48) == (16, 32, 48)


def test_point_seed_deterministic_and_distinct():
    assert point_seed(0, 1, 2, 3) == point_seed(0, 1, 2, 3)
    assert point_seed(0, 1, 2, 3) != point_seed(0, 1, 2, 4)
    assert point_seed(1, 1, 2, 3) != point_seed(0, 1, 2, 3)


def test_run_point_fm_record():
    record = run_point(0.5, 0.5, (12, 16, 24), FAST, base_seed=0)
    assert record["status"] == "ok"
    assert record["label"] == "FM"
    assert abs(record["c"]) < 0.01
    for entry in record["sizes"]:
        assert entry["status"] == "ok"
        assert abs(entry["energy"] - (-(entry["n"] - 1) / 4.0)) < 1e-7
        assert entry["s_half"] <= 1e-6
        assert entry["sigma_z_mean"] > 0.99
        assert isinstance(entry["local_matvecs"], int) and entry["local_matvecs"] >= 0


def test_run_point_labels_critical_and_broken_phases():
    settings = dict(FAST, chi_max=64)
    tll = run_point(1.5, 0.0, (16, 24, 32), settings, base_seed=0)
    assert tll["label"] == "TLL"
    assert abs(tll["c"] - 1.0) <= 0.15
    assert tll["sigma_z_mean"] < 0.01
    ssb = run_point(1.5, 0.5, (16, 24, 32), settings, base_seed=0)
    assert ssb["label"] == "XY_SSB"
    assert ssb["c"] > 1.2
    assert ssb["xy_plateau"] > 0.1


@pytest.mark.slow
def test_run_point_enforces_truncation_cut():
    settings = dict(FAST, chi_max=8)
    record = run_point(1.5, 0.5, (16, 24, 32), settings, base_seed=0)
    for entry in record["sizes"]:
        assert entry["max_truncation_error"] > settings["truncation_cut"]
        assert entry["status"] == "truncation_exceeded"
    # no size is left for the c fit
    assert record["status"] == "failed"
    assert record["c"] is None and record["label"] is None
    # sizes up to 7 fit in chi 8 exactly; only N = 16 is cut and left out of the fit
    record = run_point(1.5, 0.5, (5, 6, 7, 16), settings, base_seed=0)
    assert [e["status"] for e in record["sizes"]] == ["ok"] * 3 + ["truncation_exceeded"]
    assert record["status"] == "partial"
    assert record["c"] is not None


@pytest.mark.parametrize("alpha, j", [(1.5, 0.5), (1.5, 0.0), (0.5, 0.5)])
def test_run_point_xy_plateau_matches_ed(alpha, j):
    record = run_point(alpha, j, (8, 10, 12), dict(FAST, max_sweeps=30), base_seed=0)
    for entry in record["sizes"]:
        n = entry["n"]
        lo, hi = bulk_window(n)
        exact = global_ground_state(ModelParams(alpha, j, n)).observables.cpm[lo, hi - 1]
        assert abs(entry["xy_plateau"] - exact) < 1e-6, (n, entry["xy_plateau"], exact)


def test_run_point_captures_errors():
    bad = dict(FAST, chi_max=0)  # invalid DMRG config must not escape
    record = run_point(0.5, 0.5, (12,), bad, base_seed=0)
    assert record["status"] == "failed"
    assert record["sizes"][0]["status"].startswith("error:")
    assert record["label"] is None


def test_run_point_with_one_distinct_size_fails():
    record = run_point(1.5, 0.5, (8, 8, 8), dict(FAST, chi_max=16), base_seed=0)
    assert [e["status"] for e in record["sizes"]] == ["ok"] * 3
    assert record["status"] == "failed" and record["c"] is None


def test_run_sweep_resume_and_determinism(tmp_path):
    grid = SweepGrid((0.5,), (0.5,), (12, 16, 24))
    out_a = tmp_path / "a"
    summary = run_sweep(grid, FAST, out_a, base_seed=11)
    assert summary["computed"] == 1 and summary["skipped"] == 0
    again = run_sweep(grid, FAST, out_a, base_seed=11)
    assert again["computed"] == 0 and again["skipped"] == 1

    record_path = os.path.join(summary["records_dir"], "point_a0.5_j0.5.json")
    record = load_json(record_path)
    assert record["label"] == "FM"

    # a fresh run elsewhere reproduces the records byte-for-byte modulo meta
    out_b = tmp_path / "b"
    run_sweep(grid, FAST, out_b, base_seed=11)
    other = load_json(os.path.join(out_b, "records", "point_a0.5_j0.5.json"))
    assert strip_meta(other) == strip_meta(record)
    assert (out_a / "records.csv").read_bytes() == (out_b / "records.csv").read_bytes()
    assert (out_a / "records.json").read_bytes() == (out_b / "records.json").read_bytes()


def test_run_sweep_keeps_finished_records_after_a_crash(tmp_path, monkeypatch):
    calls = []
    run_task = sweep._run_point_task

    def crash_on_second(task):
        calls.append(task["j"])
        if len(calls) == 2:
            raise RuntimeError("worker died")
        return run_task(task)

    monkeypatch.setattr(sweep, "_run_point_task", crash_on_second)
    grid = SweepGrid((0.5,), (0.0, 0.5, 1.0), (8, 10, 12))
    with pytest.raises(RuntimeError):
        run_sweep(grid, FAST, tmp_path, base_seed=5, workers=1)
    records = tmp_path / "records"
    assert (records / "point_a0.5_j0.json").exists()
    assert not (records / "point_a0.5_j0.5.json").exists()
    assert not (records / "point_a0.5_j1.json").exists()


def test_run_sweep_recomputes_records_from_other_settings(tmp_path):
    grid = SweepGrid((0.5,), (0.5,), (8, 10, 12))
    path = tmp_path / "records" / "point_a0.5_j0.5.json"
    run_sweep(grid, FAST, tmp_path, base_seed=11)
    seed_11 = load_json(path)

    # same seed and settings: skipped, the file is left as it was
    before = path.read_bytes()
    assert run_sweep(grid, FAST, tmp_path, base_seed=11)["computed"] == 0
    assert path.read_bytes() == before

    # another chi_max, then another base seed: each is recomputed, not reused
    other = dict(FAST, chi_max=16)
    assert run_sweep(grid, other, tmp_path, base_seed=11)["computed"] == 1
    assert load_json(path)["meta"]["fingerprint"]["settings"]["chi_max"] == 16
    assert run_sweep(grid, other, tmp_path, base_seed=12)["computed"] == 1
    seed_12 = load_json(path)
    assert seed_12["seed"] == 12 and seed_11["seed"] == 11

    # a record without a fingerprint is recomputed too
    del seed_12["meta"]["fingerprint"]
    path.write_text(json.dumps(seed_12))
    assert run_sweep(grid, other, tmp_path, base_seed=12)["computed"] == 1
    assert strip_meta(load_json(path)) == strip_meta(seed_12)


def test_run_sweep_parallel_matches_serial(tmp_path):
    grid = SweepGrid((1.5,), (0.0, 0.5), (10, 12))
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    run_sweep(grid, FAST, serial, base_seed=3, workers=1)
    run_sweep(grid, FAST, parallel, base_seed=3, workers=2)
    for j in ("0", "0.5"):
        a = load_json(serial / "records" / f"point_a1.5_j{j}.json")
        b = load_json(parallel / "records" / f"point_a1.5_j{j}.json")
        assert strip_meta(a) == strip_meta(b)
    assert (serial / "records.csv").read_bytes() == (parallel / "records.csv").read_bytes()


def test_cli_ed(tmp_path, capsys):
    assert main(["ed", "--alpha", "1.5", "--j", "0.5", "--n", "8",
                 "--out", str(tmp_path)]) == 0
    payload = load_json(tmp_path / "ed.json")
    assert payload["sector"] == 4
    assert payload["xy_plateau"] > 0.0
    assert "sector_energies" in payload


def test_cli_ed_stdout(capsys):
    assert main(["ed", "--alpha", "0.5", "--j", "0.0", "--n", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["degenerate_sectors"] == [0, 6]
    assert abs(payload["energy"] + 1.25) < 1e-12


def test_cli_spinwave(tmp_path):
    assert main(["spinwave", "--alpha", "1.5", "--j", "0.5", "--n", "64",
                 "--out", str(tmp_path)]) == 0
    payload = load_json(tmp_path / "spinwave.json")
    assert payload["label"] == "XY_SSB"
    modes = (tmp_path / "spinwave_modes.csv").read_text().strip().splitlines()
    assert modes[0] == "k,vacuum,omega,mu,energy"
    assert len(modes) == 1 + 2 * 64  # both vacua


def test_cli_dmrg_from_a_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[dmrg]\nalpha = 1.5\nj = 0.5\nn = 10\nchi_max = 32\n")
    assert main(["dmrg", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    payload = load_json(tmp_path / "dmrg.json")
    assert payload["converged"] is True


def test_cli_dmrg_rejects_the_removed_checkpoint_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[dmrg]\nalpha = 1.5\nj = 0.5\nn = 10\n"
                   f"checkpoint = {tmp_path / 'state.mps'}\n")
    assert main(["dmrg", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: line 5: unknown key 'checkpoint' in section [dmrg]\n"
    assert not (tmp_path / "dmrg.json").exists()


def test_cli_dmrg_reports_truncation_status(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[dmrg]\nalpha = 1.5\nj = 0.5\nn = 16\nchi_max = 8\n")
    assert main(["dmrg", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    payload = load_json(tmp_path / "dmrg.json")
    assert payload["max_truncation_error"] > 1e-6
    assert payload["status"] == "truncation_exceeded"


@pytest.mark.parametrize("line", ["truncation_cut = nan", "truncation_cut = -1e-9",
                                  "energy_tol = nan", "energy_tol = inf", "energy_tol = 0"])
def test_cli_dmrg_and_sweep_reject_gates_that_are_not_finite_and_in_range(tmp_path, capsys,
                                                                           line):
    # chi_max = 2 discards 2e-3 at N = 16; a NaN cut used to report status "ok"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[dmrg]\nalpha = 1.5\nj = 0.5\nn = 16\nchi_max = 2\n{line}\n"
                   f"[sweep]\nalpha_values = 1.5\nj_values = 0.5\nsizes = 8, 10\n{line}\n")
    assert main(["dmrg", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")]) == 1
    key = line.split()[0]
    assert capsys.readouterr().err.count(f"error: {key} must") == 2
    assert not (tmp_path / "dmrg.json").exists()
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("command", [["dmrg"], ["ed"], ["ed", "--seed", "1"]])
@pytest.mark.parametrize("alpha, j", [("nan", "0.5"), ("1.5", "inf"), ("-inf", "0.5")])
def test_cli_rejects_couplings_that_are_not_finite(capsys, command, alpha, j):
    assert main(command + [f"--alpha={alpha}", f"--j={j}", "--n", "8"]) == 1
    assert capsys.readouterr().err.startswith("error: alpha and j_lr must be finite")


@pytest.mark.parametrize("command", ["ed", "dmrg"])
def test_cli_rejects_a_negative_seed(capsys, command):
    assert main([command, "--alpha", "1.5", "--j", "0.5", "--n", "6", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: argument --seed: must be >= 0, got -1\n"


def test_cli_sweep_requires_out_and_runs(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[sweep]\nalpha_values = 0.5\nj_values = 0.5\nsizes = 12, 16, 24\n"
                   "chi_max = 32\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    printed = capsys.readouterr().out
    assert "= 1 points" in printed  # cardinality reported before execution
    assert (tmp_path / "out" / "records.csv").exists()
    assert (tmp_path / "out" / "records.json").exists()


def test_resumed_sweep_writes_the_records_of_a_fresh_run(tmp_path, capsys):
    def sweep_cfg(alphas):
        cfg = tmp_path / f"sweep_{len(alphas)}.cfg"
        cfg.write_text(f"[sweep]\nalpha_values = {alphas}\nj_values = 0.5\n"
                       "sizes = 8, 10, 12\nchi_max = 16\n")
        return str(cfg)

    resumed, fresh = tmp_path / "resumed", tmp_path / "fresh"
    assert main(["sweep", "--config", sweep_cfg("0.5"), "--out", str(resumed)]) == 0
    assert main(["sweep", "--config", sweep_cfg("0.5, 1.5"), "--out", str(resumed)]) == 0
    assert main(["sweep", "--config", sweep_cfg("0.5, 1.5"), "--out", str(fresh)]) == 0
    printed = capsys.readouterr().out.split("grid: ")[1:]
    assert [json.loads(run[run.index("{"):])["computed"] for run in printed] == [1, 1, 2]
    assert (resumed / "records.json").read_bytes() == (fresh / "records.json").read_bytes()
    for name in ("point_a0.5_j0.5.json", "point_a1.5_j0.5.json"):
        assert (strip_meta(load_json(resumed / "records" / name))
                == strip_meta(load_json(fresh / "records" / name)))
    # the echoed config lives once per output directory, not in the records
    assert parse_config(resumed / "sweep.cfg")["sweep"]["alpha_values"] == (0.5, 1.5)
    assert "config" not in load_json(resumed / "records" / "point_a0.5_j0.5.json")


def test_cli_rejects_flags_the_subcommand_does_not_read(tmp_path):
    spinwave = ["spinwave", "--alpha", "1.5", "--j", "0.5", "--n", "64"]
    assert main(spinwave + ["--out", str(tmp_path)]) == 0
    assert main(spinwave + ["--workers", "2"]) == 1
    assert main(spinwave + ["--seed", "3"]) == 1
    assert main(["ed", "--alpha", "1.5", "--n", "6", "--format", "csv"]) == 1
    assert main(["cavity", "map", "--seed", "3"]) == 1


def test_cli_fit_and_classify(tmp_path, capsys):
    csv = tmp_path / "entropy.csv"
    ls = (16, 24, 32, 48, 64)
    csv.write_text("L,S\n" + "\n".join(f"{l},{np.log(l) / 6.0 + 0.2}" for l in ls))
    assert main(["fit-c", str(csv)]) == 0
    fit = json.loads(capsys.readouterr().out)
    assert abs(fit["c"] - 1.0) < 1e-9

    point = tmp_path / "point.json"
    point.write_text(json.dumps({"alpha": 1.5, "j": 0.5, "c": 1.6,
                                 "sigma_z_mean": 0.01, "xy_plateau": 0.2}))
    assert main(["classify", str(point)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["label"] == "XY_SSB"


def test_cli_classify_rejects_records_it_cannot_label(tmp_path, capsys):
    failed = run_point(0.5, 0.5, (12,), dict(FAST, chi_max=0), base_seed=0)
    assert failed["status"] == "failed" and failed["c"] is None
    path = tmp_path / "failed.json"
    write_json(failed, path)
    assert main(["classify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err and "'c'" in err

    garbage = tmp_path / "garbage.json"
    garbage.write_text("alpha = 1.5\n")
    assert main(["classify", str(garbage)]) == 1
    assert str(garbage) in capsys.readouterr().err

    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"c": 1.6}))
    assert main(["classify", str(partial)]) == 1
    assert "'sigma_z_mean'" in capsys.readouterr().err


def test_cli_fit_c_rejects_malformed_rows(tmp_path, capsys):
    rows = [f"{l},{np.log(l) / 6.0 + 0.2}" for l in (16, 24, 32, 48)]
    csv = tmp_path / "entropy.csv"
    csv.write_text("\n".join(rows) + "\n\n")  # no header, trailing blank line
    assert main(["fit-c", str(csv)]) == 0
    assert len(json.loads(capsys.readouterr().out)["points"]) == 4
    for bad, lineno in (("16", 3), ("16,abc", 3), ("L,S", 3)):
        csv.write_text("\n".join(["L,S", rows[0], bad] + rows[1:]) + "\n")
        assert main(["fit-c", str(csv)]) == 1
        assert f"line {lineno}:" in capsys.readouterr().err


@pytest.mark.parametrize("bootstrap", [0, -3])
def test_cli_fit_c_rejects_a_bootstrap_below_one(tmp_path, capsys, bootstrap):
    csv = tmp_path / "entropy.csv"
    csv.write_text("L,S\n16,0.6\n24,0.7\n32,0.8\n")
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(f"[fit-c]\ninput = {csv}\nbootstrap = {bootstrap}\n")
    assert main(["fit-c", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: bootstrap must be >= 1")


@pytest.mark.parametrize("cut", [0, 9])
def test_cli_ed_rejects_a_cut_outside_the_chain(tmp_path, capsys, cut):
    cfg = tmp_path / "ed.cfg"
    cfg.write_text(f"[ed]\nalpha = 1.5\nj = 0.5\nn = 8\ncut = {cut}\n")
    assert main(["ed", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: cut must lie in 1..7, got {cut}\n"


@pytest.mark.parametrize("model", ["effective", "full"])
@pytest.mark.parametrize("grid", ["t_end = 1.0\ndt = 0", "t_end = 1.0\ndt = -0.01",
                                  "t_end = -1\ndt = 0.001"])
def test_cli_cavity_simulate_rejects_a_time_grid_that_is_not_positive(tmp_path, capsys,
                                                                     model, grid):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[cavity]\ng = 0.25\ndelta_c = 100\nkappa = 5\nj_xx = 1\nj_z = 1\n"
                   f"n_sites = 2\nn_max = 3\n{grid}\n")
    out = tmp_path / "traj"
    assert main(["cavity", "simulate", "--config", str(cfg), "--model", model,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: dt and t_end must be > 0")
    assert not out.exists()


def test_cli_reports_input_that_is_not_utf8(tmp_path, capsys):
    utf16 = "[ed]\nalpha = 1.0\n".encode("utf-16")  # starts with the bytes ff fe
    assert utf16[:2] == b"\xff\xfe"
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(utf16)
    assert main(["ed", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: not UTF-8 text\n"


def test_cli_fit_c_reports_input_that_is_not_utf8(tmp_path, capsys):
    csv = tmp_path / "entropy.csv"
    csv.write_bytes("L,S\n16,0.6\n24,0.7\n32,0.8\n".encode("utf-16"))
    assert main(["fit-c", str(csv)]) == 1
    assert capsys.readouterr().err == f"error: {csv}: not UTF-8 text\n"


@pytest.mark.parametrize("rows, message", [
    ("16,0.5\n16,0.6\n16,0.7\n", "two distinct sizes"),
    ("16,nan\n24,0.6\n32,0.7\n", "finite"),
    ("16,0.5\n24,inf\n32,0.7\n", "finite"),
    ("0,0.5\n24,0.6\n32,0.7\n", "positive"),
], ids=["one_size", "S_nan", "S_inf", "L_zero"])
def test_cli_fit_c_rejects_rows_it_cannot_fit(tmp_path, rows, message):
    # a fresh process with a timeout, so a fit that never ends fails the test
    # instead of hanging the suite
    csv = tmp_path / "entropy.csv"
    csv.write_text("L,S\n" + rows)
    src = os.path.dirname(os.path.dirname(sweep.__file__))
    out = subprocess.run([sys.executable, "-m", "cavityxxz.cli", "fit-c", str(csv)],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 1
    assert out.stderr.startswith("error:") and message in out.stderr
    assert out.stdout == ""


@pytest.mark.parametrize("n_list", ["", "64", "64, 63"], ids=["empty", "one", "odd"])
@pytest.mark.parametrize("alpha", [0.5, 1.5])
@pytest.mark.parametrize("j", [0.0, 0.5])
def test_cli_spinwave_rejects_a_bad_n_list_at_every_point(tmp_path, capsys, j, alpha, n_list):
    cfg = tmp_path / "sw.cfg"
    cfg.write_text(f"[spinwave]\nalpha = {alpha}\nj = {j}\nn = 64\nn_list = {n_list}\n")
    assert main(["spinwave", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: n_list must be")
    assert not (tmp_path / "out" / "spinwave.json").exists()


def test_cli_cavity_compare_rejects_different_site_counts(tmp_path, capsys):
    two = tmp_path / "two.csv"
    three = tmp_path / "three.csv"
    two.write_text("t,trace_error,sz_0,sz_1\n0,0,1,-1\n1,0,0.5,-0.5\n")
    three.write_text("t,trace_error,sz_0,sz_1,sz_2\n0,0,1,-1,1\n1,0,0.5,-0.5,0.5\n")
    assert main(["cavity", "compare", str(three), str(two)]) == 2
    assert "sites" in capsys.readouterr().err


def test_cli_cavity_compare_rejects_malformed_csv(tmp_path, capsys):
    good = tmp_path / "good.csv"
    good.write_text("t,trace_error,sz_0\n0,0,1\n1,0,0.5\n")
    for name, text in (("no_t.csv", "time,trace_error,sz_0\n0,0,1\n"),
                       ("text.csv", "t,trace_error,sz_0\n0,0,abc\n")):
        bad = tmp_path / name
        bad.write_text(text)
        assert main(["cavity", "compare", str(good), str(bad)]) == 1
        assert str(bad) in capsys.readouterr().err


def test_cli_cavity_map_simulate_compare(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[cavity]\ng = 0.25\ndelta_c = 100\nkappa = 5\nj_xx = 1\nj_z = 1\n"
                   "n_sites = 2\nn_max = 3\nt_end = 1.0\ndt = 0.001\n")
    assert main(["cavity", "map", "--config", str(cfg)]) == 0
    mapped = json.loads(capsys.readouterr().out)
    assert abs(mapped["j_over_n"] - 4 * 0.25**2 / 100) < 1e-12

    out = tmp_path / "traj"
    assert main(["cavity", "simulate", "--config", str(cfg), "--model", "effective",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["cavity", "simulate", "--config", str(cfg), "--model", "full",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    eff_csv = out / "cavity_effective.csv"
    full_csv = out / "cavity_full.csv"
    assert eff_csv.exists() and full_csv.exists()
    for model, entries in (("effective", 5), ("full", 10)):
        meta = load_json(out / f"cavity_{model}_meta.json")
        assert meta["model"] == model and meta["entries"] == entries
        assert meta["dt"] == 0.001 and meta["halved"] is False
        assert 0.0 <= meta["trace_worst"] < 1e-6
    assert load_json(out / "cavity_effective_meta.json")["dropped_uniform_field"] > 0.0

    assert main(["cavity", "compare", str(eff_csv), str(eff_csv),
                 "--out", str(out)]) == 0
    report = load_json(out / "cavity_compare.json")
    assert all(v["max_abs_deviation"] == 0.0 for v in report.values())
    assert main(["cavity", "compare", str(eff_csv), str(full_csv),
                 "--out", str(out)]) == 0


@pytest.mark.parametrize("rates, nulls", [
    ("g = 0.25\nkappa = 0", ["unitarity_ratio"]),
    ("g = 0\nkappa = 5", ["bad_cavity_ratio"]),
    ("g = 0\nkappa = 0", ["bad_cavity_ratio", "unitarity_ratio"]),
])
def test_cli_cavity_map_writes_null_for_an_infinite_ratio(tmp_path, capsys, rates, nulls):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[cavity]\n{rates}\ndelta_c = 100\nj_xx = 1\nj_z = 1\n")
    assert main(["cavity", "map", "--config", str(cfg)]) == 0
    mapped = strict_json(capsys.readouterr().out)
    assert sorted(k for k, v in mapped.items() if v is None) == nulls


@pytest.mark.parametrize("key", ["g", "delta_c", "kappa", "j_xx", "j_z"])
@pytest.mark.parametrize("action", ["map", "simulate"])
def test_cli_cavity_rejects_rates_that_are_not_finite(tmp_path, capsys, key, action):
    rates = {"g": "0.25", "delta_c": "100", "kappa": "5", "j_xx": "1", "j_z": "1", key: "nan"}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[cavity]\n" + "".join(f"{k} = {v}\n" for k, v in rates.items())
                   + "n_max = 2\nt_end = 0.1\n")
    out = tmp_path / "traj"
    assert main(["cavity", action, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: g, delta_c, kappa, j_xx and j_z must be finite")
    assert not out.exists()


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[ed]\nalpa = 1.0\n")
    assert main(["ed", "--config", str(bad)]) == 1          # unknown key
    assert main(["ed", "--j", "0.1"]) == 1                   # missing required alpha/n
    assert main(["ed", "--alpha", "1.0", "--j", "0.1", "--n", "1"]) == 1  # invalid n
    assert main(["fit-c", str(tmp_path / "missing.csv")]) == 2  # io failure
    assert main([]) == 1  # usage errors are configuration errors
