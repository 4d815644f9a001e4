"""Flat key-value configuration files, one section per subcommand.

Format: INI-like sections ``[name]`` holding ``key = value`` lines; ``#`` or
``;`` start comment lines.  Parsing is strict: unknown sections or keys are
errors (with line context), as are duplicates and type mismatches.  Defaults
are listed in the schemas and filled by ``section_with_defaults``; a default or
choice list that a library module owns is read from that module, not restated.
``emit_config`` writes a canonical file that round-trips through the parser.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import BOOTSTRAP_SAMPLES
from .cavity import INITIAL_STATES
from .errors import ParseError
from .exactdiag import METHODS
from .spinwave import DEFAULT_N_LADDER
from .tensornet import DmrgConfig

REQUIRED = object()


@dataclass(frozen=True)
class Option:
    kind: str  # float | int | bool | str | floats | ints
    default: object = REQUIRED
    choices: tuple = ()


# The DmrgConfig fields a run takes from its [dmrg] or [sweep] section.
DMRG_OPTIONS: dict[str, Option] = {
    "chi_max": Option("int", DmrgConfig.chi_max),
    "max_sweeps": Option("int", DmrgConfig.max_sweeps),
    "truncation_cut": Option("float", DmrgConfig.truncation_cut),
    "energy_tol": Option("float", DmrgConfig.energy_tol),
}

SCHEMAS: dict[str, dict[str, Option]] = {
    "ed": {
        "alpha": Option("float"),
        "j": Option("float", 0.0),
        "n": Option("int"),
        "n_up": Option("int", None),
        "method": Option("str", "auto", choices=METHODS),
        "cut": Option("int", None),
    },
    "spinwave": {
        "alpha": Option("float"),
        "j": Option("float", 0.0),
        "n": Option("int", 256),
        "n_list": Option("ints", DEFAULT_N_LADDER),
    },
    "dmrg": {
        "alpha": Option("float"),
        "j": Option("float", 0.0),
        "n": Option("int"),
        **DMRG_OPTIONS,
    },
    "sweep": {
        "alpha_values": Option("floats"),
        "j_values": Option("floats"),
        "sizes": Option("ints", (16, 24, 32, 48, 64)),
        **DMRG_OPTIONS,
    },
    "cavity": {
        "g": Option("float"),
        "delta_c": Option("float"),
        "kappa": Option("float"),
        "j_xx": Option("float"),
        "j_z": Option("float"),
        "n_sites": Option("int", 2),
        "n_max": Option("int", 6),
        "t_end": Option("float", 10.0),
        "dt": Option("float", 1e-3),
        "initial": Option("str", "neel", choices=INITIAL_STATES),
        "include_dissipator": Option("bool", True),
    },
    "fit-c": {
        "input": Option("str"),
        "bootstrap": Option("int", BOOTSTRAP_SAMPLES),
    },
    "classify": {
        "input": Option("str"),
    },
}


def _convert(opt: Option, key: str, raw: str, lineno: int):
    try:
        if opt.kind == "float":
            return float(raw)
        if opt.kind == "int":
            return int(raw)
        if opt.kind == "bool":
            low = raw.lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        if opt.kind == "floats":
            return tuple(float(x) for x in raw.replace(",", " ").split())
        if opt.kind == "ints":
            return tuple(int(x) for x in raw.replace(",", " ").split())
        value = raw
    except ValueError:
        raise ParseError(f"line {lineno}: key '{key}': cannot parse {raw!r} as {opt.kind}")
    if opt.choices and value not in opt.choices:
        raise ParseError(
            f"line {lineno}: key '{key}': {value!r} not one of {', '.join(opt.choices)}"
        )
    return value


def parse_config(path) -> dict[str, dict]:
    """Parse a config file into {section: {key: typed value}}; strict."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None
    sections: dict[str, dict] = {}
    current = None
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in SCHEMAS:
                raise ParseError(f"line {lineno}: unknown section [{name}]")
            if name in sections:
                raise ParseError(f"line {lineno}: duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ParseError(f"line {lineno}: key outside any section")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in SCHEMAS[current]:
            raise ParseError(f"line {lineno}: unknown key '{key}' in section [{current}]")
        if key in sections[current]:
            raise ParseError(f"line {lineno}: duplicate key '{key}' in section [{current}]")
        sections[current][key] = _convert(SCHEMAS[current][key], key, raw_value, lineno)
    return sections


def section_with_defaults(sections: dict, name: str, overrides: dict | None = None) -> dict:
    """Fill defaults for one section; missing required keys are errors.

    ``overrides`` (e.g. command-line flags) take precedence over file values.
    """
    schema = SCHEMAS[name]
    given = dict(sections.get(name, {}))
    for key, value in (overrides or {}).items():
        if value is not None:
            given[key] = value
    out = {}
    for key, opt in schema.items():
        if key in given:
            out[key] = given[key]
        elif opt.default is REQUIRED:
            raise ParseError(f"section [{name}]: missing required key '{key}'")
        else:
            out[key] = opt.default
    return out


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, (tuple, list)):
        return ", ".join(_format_value(v) for v in value)
    return str(value)


def emit_config(sections: dict) -> str:
    """Canonical text form; parse(emit(parse(f))) == parse(f)."""
    chunks = []
    for name in SCHEMAS:
        if name not in sections:
            continue
        body = [f"[{name}]"]
        for key in SCHEMAS[name]:
            if key in sections[name] and sections[name][key] is not None:
                body.append(f"{key} = {_format_value(sections[name][key])}")
        chunks.append("\n".join(body))
    return "\n\n".join(chunks) + "\n"
