"""Deterministic persistence of sweep records as CSV and JSON.

Floating-point values are quantized to 12 significant digits before
serialization, JSON keys are sorted, and timestamps live only in the ``meta``
field of a record, so identical runs produce byte-identical files once
``meta`` is excluded.  Every file is written by ``write_text``: to a temporary
name, then renamed.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone

SCHEMA_VERSION = "1"

CSV_HEADER = (
    "alpha,j,n,energy,s_half,c,c_residual,sigma_z_mean,xy_plateau,label,status,seed"
)


def fmt_float(x) -> str:
    return f"{float(x):.12g}"


def quantize(obj):
    """Round every float in a JSON-like tree to 12 significant digits."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, float):
        return float(fmt_float(obj))
    if isinstance(obj, dict):
        return {k: quantize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [quantize(v) for v in obj]
    return obj


def dump_json(obj) -> str:
    return json.dumps(quantize(obj), sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def write_text(text: str, path):
    """Write through a temporary file and rename, so ``path`` is never partial."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_json(obj, path):
    write_text(dump_json(obj), path)


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


def record_rows(record: dict) -> list[str]:
    """One CSV row per chain size of a sweep record."""
    rows = []
    for size in record["sizes"]:
        cells = [
            _cell(record["alpha"]),
            _cell(record["j"]),
            _cell(size["n"]),
            _cell(size.get("energy")),
            _cell(size.get("s_half")),
            _cell(record.get("c")),
            _cell(record.get("c_residual")),
            _cell(size.get("sigma_z_mean")),
            _cell(size.get("xy_plateau")),
            _cell(record.get("label")),
            _cell(size.get("status")),
            _cell(size.get("seed")),
        ]
        rows.append(",".join(cells))
    return rows


def emit_records(records: list[dict], out_dir, formats=("csv", "json")) -> list[str]:
    """Write the aggregate records.csv and/or records.json; returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if "csv" in formats:
        path = os.path.join(out_dir, "records.csv")
        lines = [CSV_HEADER]
        for record in records:
            lines.extend(record_rows(record))
        write_text("\n".join(lines) + "\n", path)
        written.append(path)
    if "json" in formats:
        path = os.path.join(out_dir, "records.json")
        stripped = [{k: v for k, v in r.items() if k != "meta"} for r in records]
        write_json({"schema_version": SCHEMA_VERSION, "records": stripped}, path)
        written.append(path)
    return written
