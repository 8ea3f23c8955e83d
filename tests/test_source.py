"""Static checks on the package source, with the standard library's ast."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sdah"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# Test and script file names never repeat a module's, so each id stays short.
LINTED = [*MODULES, *sorted((ROOT / "tests").glob("*.py")),
          *sorted((ROOT / "scripts").glob("*.py"))]


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", LINTED, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_unused_import_is_reported():
    tree = ast.parse("import os\nfrom a import b, c as d\nfrom __future__ import annotations\n"
                     "os.getcwd()\nd()\n")
    assert _unused_imports(tree) == ["b (line 2)"]


def _constants(tree: ast.Module) -> list[str]:
    """Module-level ALL-CAPS names the module assigns, private ones too."""
    targets = [t for n in tree.body if isinstance(n, (ast.Assign, ast.AnnAssign))
               for t in (n.targets if isinstance(n, ast.Assign) else [n.target])]
    return [t.id for t in targets
            if isinstance(t, ast.Name) and t.id.lstrip("_").isupper()]


def _reads(tree: ast.Module) -> set[str]:
    """Names loaded bare or as a module attribute (`B.DW_KERNEL`)."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out.add(n.attr)
    return out


def test_every_constant_is_read():
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    read = set().union(*(_reads(t) for t in trees.values()))
    unread = [f"{name}.{c}" for name, t in trees.items()
              for c in _constants(t) if c not in read]
    assert unread == []


def test_unread_constant_is_reported():
    tree = ast.parse("A_B = 1\nC: int = 2\nlower = 3\n_D = 4\nprint(m.C, _D)\n")
    assert _constants(tree) == ["A_B", "C", "_D"]
    assert {"C", "_D"} <= _reads(tree) and "A_B" not in _reads(tree)
