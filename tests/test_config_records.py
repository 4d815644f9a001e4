import json

import pytest

from cavityxxz.config import emit_config, parse_config, section_with_defaults
from cavityxxz.errors import ParseError
from cavityxxz.records import (
    CSV_HEADER,
    dump_json,
    emit_records,
    fmt_float,
    load_json,
    quantize,
    record_rows,
)


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_minimal_config_fills_documented_defaults(tmp_path):
    path = write(tmp_path, "[dmrg]\nalpha = 1.5\nn = 16\n")
    cfg = section_with_defaults(parse_config(path), "dmrg")
    assert cfg["alpha"] == 1.5
    assert cfg["j"] == 0.0
    assert cfg["chi_max"] == 128
    assert cfg["max_sweeps"] == 30
    assert cfg["truncation_cut"] == 1e-6
    assert cfg["energy_tol"] == 1e-9


def test_unknown_key_is_an_error_with_context(tmp_path):
    path = write(tmp_path, "[ed]\nalpa = 1.5\n")
    with pytest.raises(ParseError) as err:
        parse_config(path)
    assert "alpa" in str(err.value)
    assert "line 2" in str(err.value)


def test_unknown_section_and_duplicates(tmp_path):
    with pytest.raises(ParseError, match="unknown section"):
        parse_config(write(tmp_path, "[edd]\nalpha = 1\n"))
    with pytest.raises(ParseError, match="duplicate key"):
        parse_config(write(tmp_path, "[ed]\nalpha = 1\nalpha = 2\n"))
    with pytest.raises(ParseError, match="duplicate section"):
        parse_config(write(tmp_path, "[ed]\nalpha = 1\n[ed]\nj = 2\n"))
    with pytest.raises(ParseError, match="outside any section"):
        parse_config(write(tmp_path, "alpha = 1\n"))
    with pytest.raises(ParseError, match="cannot parse"):
        parse_config(write(tmp_path, "[ed]\nalpha = soup\n"))
    with pytest.raises(ParseError, match="not one of"):
        parse_config(write(tmp_path, "[ed]\nalpha = 1\nn = 4\nmethod = magic\n"))


def test_missing_required_key(tmp_path):
    path = write(tmp_path, "[ed]\nalpha = 1.0\n")
    with pytest.raises(ParseError, match="missing required key 'n'"):
        section_with_defaults(parse_config(path), "ed")


def test_sweep_grid_section_cardinality(tmp_path):
    path = write(tmp_path, """
# phase-diagram style grid
[sweep]
alpha_values = 0.0, 0.25, 0.5, 0.75, 1.0
j_values = -0.5, 0.0, 0.5
sizes = 16, 24, 32
""")
    cfg = section_with_defaults(parse_config(path), "sweep")
    assert len(cfg["alpha_values"]) * len(cfg["j_values"]) == 15
    assert cfg["sizes"] == (16, 24, 32)


def test_config_round_trips_through_emitter(tmp_path):
    path = write(tmp_path, "[spinwave]\nalpha = 1.5\nj = 0.25\nn = 64\n"
                           "[cavity]\ng = 1.0\ndelta_c = 100\nkappa = 5\n"
                           "j_xx = 1\nj_z = 1\ninclude_dissipator = false\n")
    parsed = parse_config(path)
    emitted = emit_config(parsed)
    path2 = write(tmp_path, emitted)
    assert parse_config(path2) == parsed
    # and a fully defaulted section also round-trips
    full = {"dmrg": section_with_defaults({}, "dmrg", {"alpha": 1.0, "n": 8})}
    again = parse_config(write(tmp_path, emit_config(full)))
    assert section_with_defaults(again, "dmrg") == full["dmrg"]


def test_quantize_and_float_format():
    assert fmt_float(1 / 3) == "0.333333333333"
    assert quantize({"x": [1 / 3, 1.0, None, True]}) == {
        "x": [0.333333333333, 1.0, None, True]
    }


def make_record(alpha=0.5, j=0.5):
    return {
        "schema_version": "1",
        "alpha": alpha,
        "j": j,
        "seed": 7,
        "config": {"chi_max": 32},
        "sizes": [
            {"n": 12, "energy": -2.75, "s_half": 1e-9, "sigma_z_mean": 1.0,
             "xy_plateau": 0.0, "converged": True, "max_truncation_error": 0.0,
             "n_sweeps": 3, "seed": 123, "status": "ok"},
            {"n": 16, "energy": -3.75, "s_half": 2e-9, "sigma_z_mean": 1.0,
             "xy_plateau": 0.0, "converged": True, "max_truncation_error": 0.0,
             "n_sweeps": 3, "seed": 456, "status": "ok"},
        ],
        "c": 0.0, "c_offset": 0.0, "c_residual": 0.0, "c_ci_halfwidth": 0.0,
        "sigma_z_mean": 1.0, "xy_plateau": 0.0, "label": "FM", "status": "ok",
        "meta": {"written_at": "sometime"},
    }


def test_emit_records_empty_is_header_only(tmp_path):
    paths = emit_records([], tmp_path, formats=("csv",))
    assert (tmp_path / "records.csv").read_text() == CSV_HEADER + "\n"
    assert len(paths) == 1


def test_emit_records_rows_and_roundtrip(tmp_path):
    record = make_record()
    assert len(record_rows(record)) == 2
    emit_records([record], tmp_path, formats=("csv", "json"))
    csv_text = (tmp_path / "records.csv").read_text()
    assert csv_text.startswith(CSV_HEADER)
    assert len(csv_text.strip().splitlines()) == 3
    # JSON re-ingested and re-emitted is byte-identical
    first = (tmp_path / "records.json").read_bytes()
    loaded = load_json(tmp_path / "records.json")
    (tmp_path / "records.json").unlink()
    out = dump_json(loaded)
    assert out.encode() == first
    # meta is excluded from aggregates
    assert "written_at" not in json.dumps(loaded)
