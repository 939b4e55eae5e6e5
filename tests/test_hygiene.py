"""Source hygiene checks that need no linter: a stdlib AST scan."""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "blscales"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def test_scan_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import numpy as np\n"
        "from typing import Optional, Sequence\n"
        "def f(x: Optional[int]):\n"
        "    return np.sqrt(x)\n"
    )
    assert unused_imports(source) == ["Sequence (line 4)", "math (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def definitions(source: str) -> set:
    """Names of the functions, methods and classes a module defines, dunders
    excepted."""
    return {
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def mentions(source: str) -> set:
    """Names a module reads, attribute and imported names, and the words of
    its string constants (the bench tracer names what it wraps in strings)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(re.findall(r"\w+", node.value))
    return out


def test_every_definition_is_referenced():
    mentioned = set()
    for top in ("src", "tests", "demos", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            mentioned |= mentions(path.read_text(encoding="utf-8"))
    unreferenced = [
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for name in sorted(definitions(path.read_text(encoding="utf-8")) - mentioned)
    ]
    assert unreferenced == []


# the one raise that may name another class: the JSON writer's `default`
# hook must raise TypeError for an object it cannot encode
RAISE_EXCEPTIONS = {("cli.py", "_np_default", "TypeError")}


def value_error_classes(sources: list) -> set:
    """ValueError and the classes of the sources that derive from it."""
    bases = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {b.id for b in node.bases if isinstance(b, ast.Name)}
    out = {"ValueError"}
    while True:
        more = {name for name, b in bases.items() if b & out} - out
        if not more:
            return out
        out |= more


def raised_names(source: str) -> list:
    """(top-level definition, raised class name) of each raise statement; a
    bare re-raise gives None."""
    out = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
                out.append((getattr(top, "name", None), name))
    return out


def test_scan_finds_raises_outside_value_error():
    source = (
        "class AError(ValueError): pass\n"
        "class BError(AError): pass\n"
        "def f(x):\n"
        "    if x:\n"
        "        raise BError('b')\n"
        "    raise RuntimeError('r')\n"
    )
    allowed = value_error_classes([source])
    assert allowed == {"ValueError", "AError", "BError"}
    assert [r for r in raised_names(source) if r[1] not in allowed] == [("f", "RuntimeError")]


def test_every_raise_is_a_value_error():
    """cli.main turns ValueError and its subclasses into exit 1 or 2, so an
    error of any other class would escape it as a traceback."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    allowed = value_error_classes(list(sources.values()))
    stray = [
        (module, top, name)
        for module, source in sources.items()
        for top, name in raised_names(source)
        if name not in allowed and (module, top, name) not in RAISE_EXCEPTIONS
    ]
    assert stray == []


def readers(source: str, name: str) -> set:
    """Top-level definitions of a module that read `name` (None for a
    statement outside any definition)."""
    return {
        getattr(top, "name", None)
        for top in ast.parse(source).body
        for node in ast.walk(top)
        if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
    }


def test_scan_finds_readers():
    source = (
        "def w(x): pass\n"
        "def a(): w(1)\n"
        "def b(): return [w]\n"
        "def c(): pass\n"
        "w(2)\n"
    )
    assert readers(source, "w") == {"a", "b", None}


def test_cli_writes_artifacts_through_the_report_and_table_writers():
    """One report writer records the provenance flags of every JSON artifact,
    and one table writer lays out every CSV artifact."""
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert readers(source, "_write_json") == {"_write_report"}
    assert readers(source, "_write_text") == {"_write_json", "_write_table"}
    commands = {name for name in definitions(source) if name.startswith("cmd_")}
    writers = readers(source, "_write_report") | readers(source, "_write_table")
    assert commands and commands <= writers


SUBMODULES = {p.stem for p in MODULES}


def root_names(source: str) -> list:
    """Names other than submodules that a module takes from the package
    root: `from blscales import X`, `from . import X` and `blscales.X`."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            (node.level == 0 and node.module == "blscales")
            or (node.level == 1 and node.module is None)
        ):
            out += [alias.name for alias in node.names]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "blscales"
            and not node.attr.startswith("__")
        ):
            out.append(node.attr)
    return sorted(set(out) - SUBMODULES)


def test_scan_finds_root_names():
    source = (
        "import blscales\n"
        "from blscales import cli, solve_extremiser\n"
        "from . import mc, Box\n"
        "from .datum import BLDatum\n"
        "print(blscales.__file__, blscales.gaussians, blscales.young_constant)\n"
    )
    assert root_names(source) == ["Box", "solve_extremiser", "young_constant"]


def test_package_root_binds_nothing():
    """One name per function: the API is imported from its module, and the
    package root is its docstring only."""
    body = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8")).body
    assert len(body) == 1 and isinstance(body[0], ast.Expr)
    assert isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)
    stray = {
        str(path.relative_to(ROOT)): names
        for top in ("src", "tests", "demos", "bench")
        for path in sorted((ROOT / top).rglob("*.py"))
        if (names := root_names(path.read_text(encoding="utf-8")))
    }
    assert stray == {}
