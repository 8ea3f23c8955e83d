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


def _callerless(trees: dict[str, ast.Module], module: str) -> list[str]:
    """Public functions of `module` whose bare name no code in `trees`
    loads, their own bodies aside."""
    loads = [n for t in trees.values() for n in ast.walk(t)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)]
    out = []
    for f in trees[module].body:
        if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"):
            own = {id(n) for n in ast.walk(f)}
            if not any(n.id == f.name and id(n) not in own for n in loads):
                out.append(f.name)
    return out


# Kept without a caller only because perfbench/tracing.py lists them in
# TENSOR_PRIMITIVES; they go when the benchmark's list drops them.
TRACER_ONLY_PRIMITIVES = {"swap_last", "tmean", "broadcast_to", "narrow"}


def test_every_tensor_primitive_has_a_src_caller():
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    assert set(_callerless(trees, "tensor.py")) == TRACER_ONLY_PRIMITIVES


def test_callerless_function_is_reported():
    trees = {"m": ast.parse("def a():\n    return a()\n\ndef b():\n    return 1\n\n"
                            "def _c():\n    return b\n"),
             "n": ast.parse("from m import a\nx = 'a'\n")}
    assert _callerless(trees, "m") == ["a"]


def _grad_flag_reads(tree: ast.Module) -> list[int]:
    """Lines that load a `.requires_grad` attribute."""
    return sorted(n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                  and n.attr == "requires_grad" and isinstance(n.ctx, ast.Load))


def test_only_the_engine_reads_requires_grad():
    """Every primitive hands `_make` one VJP per operand and the engine picks
    which to run, so no other module decides on a gradient flag."""
    found = {p.name: _grad_flag_reads(ast.parse(p.read_text(), str(p)))
             for p in MODULES if p.name != "tensor.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_requires_grad_read_is_reported():
    tree = ast.parse("t = Tensor(x, requires_grad=True)\nt.requires_grad = False\n"
                     "if t.requires_grad:\n    pass\n")
    assert _grad_flag_reads(tree) == [3]


def _defaulted(f: ast.FunctionDef) -> list[tuple[str, int | None]]:
    """(name, position) of each parameter with a default; None for keyword-only."""
    pos = f.args.posonlyargs + f.args.args
    first = len(pos) - len(f.args.defaults)
    return ([(a.arg, i) for i, a in enumerate(pos) if i >= first]
            + [(a.arg, None) for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults)
               if d is not None])


def _sets(call: ast.Call, name: str, pos: int | None) -> bool:
    """Whether `call` passes parameter `name`: by keyword, at its position, or
    possibly through a `*args` or `**kwargs` unpacking."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return pos is not None and (len(call.args) > pos
                                or any(isinstance(a, ast.Starred) for a in call.args))


def _unset_options(defs: dict[str, ast.Module], callers: list[ast.Module]) -> list[str]:
    """`module.function(param)` for each defaulted parameter of a public
    module-level function in `defs` that no call in `callers` sets.  A call
    matches by the callee's bare or attribute name (`f(...)`, `mod.f(...)`)."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in callers:
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                callee = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
                calls.setdefault(callee, []).append(n)
    return [f"{module}.{f.name}({name})"
            for module, tree in defs.items() for f in tree.body
            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
            for name, pos in _defaulted(f)
            if not any(_sets(c, name, pos) for c in calls.get(f.name, []))]


# Options that no code outside the tests sets, each kept for its reason.
OPTIONS_WITHOUT_A_CALLER = {
    "metrics.evaluate_pairs(spacing)": "pixel spacing is a property of the data",
    "gradcheck.grad_check(seed)": "a testing tool, set by the tests",
    "gradcheck.grad_check(name)": "a testing tool, set by the tests",
    "explain.export_bundle(roi_mask)": "the ROI that seg_grad_cam requires",
    "tensor.tmean(axis)": "tmean is kept for perfbench/tracing.py, which lists it",
    "tensor.tmean(keepdims)": "tmean is kept for perfbench/tracing.py, which lists it",
}


def test_every_public_option_has_a_caller():
    """An option that every caller leaves at its default is a constant."""
    defs = {p.stem: ast.parse(p.read_text(), str(p)) for p in MODULES}
    callers = [ast.parse(p.read_text(), str(p))
               for p in [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
                         *(ROOT / "perfbench").glob("*.py")]]
    assert sorted(_unset_options(defs, callers)) == sorted(OPTIONS_WITHOUT_A_CALLER)


def test_unset_option_is_reported():
    defs = {"m": ast.parse("def f(a, b=1, c=2, *, d=3, e=4):\n    return f(a, e=0)\n\n"
                           "def _g(x=1):\n    pass\n\n"
                           "class K:\n    def h(self, y=1):\n        pass\n")}
    callers = [ast.parse("f(0, 5)\n"), ast.parse("import m\nm.f(0, d=1)\n"),
               ast.parse("g(*xs)\n")]
    assert _unset_options(defs, callers) == ["m.f(c)", "m.f(e)"]
    assert _unset_options(defs, [ast.parse("f(*xs, **kw)\n")]) == []
