"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from cavityxxz.cli import _build_parser
from cavityxxz.config import parse_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.S | re.M)


def test_readme_config_blocks_parse(tmp_path):
    blocks = _blocks("ini")
    assert blocks
    for k, text in enumerate(blocks):
        path = tmp_path / f"example{k}.cfg"
        path.write_text(text, encoding="utf-8")
        assert parse_config(path)


def test_readme_library_example_runs():
    blocks = _blocks("python")
    assert blocks
    for text in blocks:
        exec(compile(text, "README.md", "exec"), {})


def test_readme_cli_lines_parse():
    commands = [shlex.split(line, comments=True)
                for text in _blocks("sh") for line in text.splitlines()
                if line.startswith("cavityxxz ")]
    assert commands
    for argv in commands:
        _build_parser().parse_args(argv[1:])  # a usage error raises ParseError
