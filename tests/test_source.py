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


def _module_aliases(tree: ast.Module) -> dict[str, str]:
    """Local names bound to a package module (`import sdah.tensor as T`,
    `from . import blocks as B`, `from sdah import io`), mapped to its stem."""
    out = {}
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            out.update((a.asname, a.name.split(".")[-1]) for a in n.names
                       if a.asname and a.name.startswith("sdah."))
        elif isinstance(n, ast.ImportFrom) and n.module in (None, "sdah"):  # None: `from .`
            out.update((a.asname or a.name, a.name) for a in n.names)
    return out


def _callerless(defs: dict[str, ast.Module], callers: list[ast.Module],
                exported: set[str]) -> list[str]:
    """`module.function` for each public function of `defs` that `exported`
    does not list and no code in `callers` loads, its own body aside: by
    its bare name (`f`), or as an attribute of an alias bound to its module
    (`mod.f`)."""
    loads: dict[str, list] = {}  # name -> (module, or None for a bare name; node id)
    for tree in callers:
        alias = _module_aliases(tree)
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                loads.setdefault(n.id, []).append((None, id(n)))
            elif (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                  and isinstance(n.value, ast.Name) and n.value.id in alias):
                loads.setdefault(n.attr, []).append((alias[n.value.id], id(n)))
    out = []
    for module, tree in defs.items():
        for f in tree.body:
            if (isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
                    and f.name not in exported):
                own = {id(n) for n in ast.walk(f)}
                if not any(mod in (None, module) and i not in own
                           for mod, i in loads.get(f.name, ())):
                    out.append(f"{module}.{f.name}")
    return out


# Kept without a caller only because perfbench/tracing.py lists them in
# TENSOR_PRIMITIVES; they go when the benchmark's list drops them.
TRACER_ONLY_PRIMITIVES = {"swap_last", "tmean", "broadcast_to", "narrow", "tanh", "clip",
                          "reshape"}


def _all(init: ast.Module) -> set[str]:
    """The names a package `__init__` lists in `__all__`."""
    return {name for n in init.body if isinstance(n, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in n.targets)
            for name in ast.literal_eval(n.value)}


def test_every_public_function_has_a_caller():
    """A public function is called from the package, a script or the
    benchmark, or is exported; test-only helpers live in the tests."""
    defs = {p.stem: ast.parse(p.read_text(), str(p)) for p in MODULES}
    callers = [ast.parse(p.read_text(), str(p))
               for p in [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
                         *(ROOT / "perfbench").glob("*.py")]]
    exported = _all(ast.parse((SRC / "__init__.py").read_text()))
    assert set(_callerless(defs, callers, exported)) == {
        f"tensor.{name}" for name in TRACER_ONLY_PRIMITIVES}


def test_callerless_function_is_reported():
    defs = {"m": ast.parse("def a():\n    return a()\n\ndef b():\n    return 1\n\n"
                           "def _c():\n    return b\n\ndef d():\n    pass\n\n"
                           "def e():\n    pass\n\ndef f():\n    pass\n"),
            "n": ast.parse("def e():\n    pass\n\ndef g():\n    pass\n")}
    callers = [*defs.values(), ast.parse("from m import a\nx = 'a'\n"),
               ast.parse("import sdah.m as M\nimport sdah.n as N\nM.d()\nN.e()\n")]
    assert _callerless(defs, callers, {"f"}) == ["m.a", "m.e", "n.g"]
    assert _module_aliases(ast.parse("from . import blocks as B\nfrom sdah import io\n"
                                     "import sdah.tensor as T\nimport numpy as np\n"
                                     "from .tensor import add\n")) == {
        "B": "blocks", "io": "io", "T": "tensor"}
    assert _all(ast.parse("__all__ = ['f', 'g']\nx = 1\n")) == {"f", "g"}


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


def _definitions(tree: ast.Module, name: str) -> list[str]:
    """Each function or method called `name`, as `Class.name(args)` inside a
    class body and `name(args)` elsewhere."""
    owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
             for f in c.body}
    return [f"{owner[id(f)] + '.' if id(f) in owner else ''}{name}"
            f"({', '.join(a.arg for a in f.args.args)})"
            for f in ast.walk(tree)
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and f.name == name]


def test_only_params_names_tensors():
    """Checkpoint names are field paths, walked in one place; a hand-written
    `named_tensors` table would restate a dataclass field by field."""
    found = {p.name: _definitions(ast.parse(p.read_text(), str(p)), "named_tensors")
             for p in LINTED}
    assert {name: defs for name, defs in found.items() if defs} == {
        "tensor.py": ["Params.named_tensors(self)"]}


def test_named_tensors_definition_is_reported():
    tree = ast.parse("class A:\n    def named_tensors(self, x):\n        pass\n\n"
                     "def named_tensors():\n    pass\n\n"
                     "def f():\n    def named_tensors(y):\n        pass\n")
    assert sorted(_definitions(tree, "named_tensors")) == [
        "A.named_tensors(self, x)", "named_tensors()", "named_tensors(y)"]


def _check_policy_sites(tree: ast.Module) -> list[str]:
    """Each place that turns the per-op finite checks or numpy's float
    warnings off, by the innermost function around it (`<module>` outside
    any): a store to `_checks`, a function named `_unchecked`, and a `with
    np.errstate(all="ignore")`."""
    out = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == "_unchecked":
                out.add(f"def _unchecked in {where}")
            where = node.name
        if (isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store)
                and getattr(node, "id", getattr(node, "attr", None)) == "_checks"):
            out.add(f"_checks = in {where}")
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for e in (item.context_expr for item in node.items):
                if (isinstance(e, ast.Call) and getattr(e.func, "attr", None) == "errstate"
                        and any(k.arg == "all" and getattr(k.value, "value", None) == "ignore"
                                for k in e.keywords)):
                    out.add(f"errstate(all='ignore') in {where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return sorted(out)


def test_one_owner_turns_the_checks_off():
    """`tensor._checked_once` alone turns the per-op checks off, numpy's
    float warnings with them, and replays to name the op; `cli.main`
    silences the warnings for a whole command."""
    found = {p.name: _check_policy_sites(ast.parse(p.read_text(), str(p))) for p in LINTED}
    assert {name: sites for name, sites in found.items() if sites} == {
        "cli.py": ["errstate(all='ignore') in main"],
        "tensor.py": ["_checks = in <module>", "_checks = in _checked_once",
                      "errstate(all='ignore') in _checked_once"]}


def test_check_policy_site_is_reported():
    tree = ast.parse("_checks = True\n\n@contextmanager\ndef _unchecked():\n"
                     "    global _checks\n    old, _checks = _checks, False\n\n"
                     "def f():\n    with _unchecked(), np.errstate(all='ignore'):\n"
                     "        T._checks = False\n"
                     "    with np.errstate(over='ignore'):\n        pass\n")
    assert _check_policy_sites(tree) == [
        "_checks = in <module>", "_checks = in _unchecked", "_checks = in f",
        "def _unchecked in <module>", "errstate(all='ignore') in f"]
