"""README.md's Layout and examples against the package they describe."""

import ast
import importlib
import json
import re
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

from sdah.cli import build_parser
from sdah.network import ModelConfig, micro_config
from sdah.training import TrainConfig

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
LAYOUT_MAX_LINES = 70
ENTRY_MAX_LINES = 4


def _section(title: str) -> str:
    """The text under a `## title` heading, up to the next one."""
    m = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", README, re.M | re.S)
    assert m, f"README has no '## {title}' section"
    return m.group(1)


def _blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.M | re.S)


def _layout_entries() -> dict[str, list[str]]:
    """Each Layout entry's lines by name: an entry starts at a name in the
    first columns (`tensor.py`, `tests/`) followed by its description, and
    runs on over the lines indented past it.  The bare `src/sdah/` heading
    is not an entry."""
    (block,) = _blocks(_section("Layout"), "")
    entries: dict[str, list[str]] = {}
    current = None
    for line in block.splitlines():
        m = re.match(r"^ {0,2}(\S+) {2,}\S", line)
        if m:
            current = m.group(1)
            assert current not in entries, f"{current} is listed twice"
            entries[current] = [line]
        elif line.startswith("   ") and current is not None:
            entries[current].append(line)
        else:
            assert line.rstrip() == "src/sdah/", f"unexpected Layout line {line!r}"
            current = None
    return entries


def test_layout_lists_every_module_tests_and_scripts_once():
    modules = {p.name for p in (ROOT / "src" / "sdah").glob("*.py")} - {"__init__.py"}
    assert set(_layout_entries()) == modules | {"tests/", "scripts/"}


def test_layout_entries_stay_short():
    entries = _layout_entries()
    assert {name: len(lines) for name, lines in entries.items()
            if len(lines) > ENTRY_MAX_LINES} == {}
    assert len(_section("Layout").splitlines()) <= LAYOUT_MAX_LINES


def _sdah_commands() -> list[list[str]]:
    """Every `sdah ...` command in README's bash blocks, with continuation
    lines joined and comments dropped, as argv after `sdah`."""
    out = []
    for block in _blocks(README, "bash"):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["sdah"]:
                out.append(argv[1:])
    return out


def test_readme_shows_every_command():
    shown = {argv[0] for argv in _sdah_commands()}
    assert shown == {"synth", "train", "infer", "eval", "explain", "count", "selfcheck"}


@pytest.mark.parametrize("argv", _sdah_commands(), ids=lambda a: " ".join(a[:2]))
def test_readme_command_parses(argv):
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]


def test_readme_config_schema_loads_as_the_micro_config():
    (block,) = _blocks(_section("CLI"), "json")
    raw = json.loads(block)
    assert set(raw) == {"model", "train"}
    assert set(raw["model"]) == {f.name for f in fields(ModelConfig)}
    assert set(raw["train"]) == {f.name for f in fields(TrainConfig)}
    assert ModelConfig.from_dict(raw["model"]) == micro_config()
    TrainConfig.from_dict(raw["train"])


def test_readme_quick_start_imports_exist():
    (block,) = _blocks(_section("Library quick start"), "python")
    imports = [node for node in ast.walk(ast.parse(block))
               if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "sdah"]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        missing = [a.name for a in node.names if not hasattr(module, a.name)]
        assert missing == [], f"{node.module} has no {missing}"
