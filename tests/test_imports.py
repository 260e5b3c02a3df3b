"""Every module-level import is read by its module.

The scan covers the library modules in `src/clckit` (except `__init__.py`,
whose imports are the exports) and the test modules, conftest.py included.
A name bound by `import` or `from ... import`, at the top level or inside a
function, must be read somewhere in that module, as a bare name or as the
base of an attribute (`np.array`); `from __future__` imports are exempt. A
name that conftest.py imports also counts as read when a test module
imports it from conftest.

Between library modules the boundary is the public name: no module imports
a `_name` from another clckit module, or reads one off an imported clckit
module (`jsonio._load`), anywhere in its body.
"""
import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "clckit"


def _bound(tree) -> dict[str, int]:
    """{name: line} of the names the module's imports bind, wherever they are."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _read(tree) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _from_conftest(tree) -> set[str]:
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "conftest"
        for alias in node.names
    }


def unused_imports(paths) -> list[str]:
    """"path:line name" for each import that its module never reads."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    reexported = set().union(*(_from_conftest(tree) for tree in trees.values()))
    unused = []
    for path, tree in trees.items():
        read = _read(tree) | (reexported if path.name == "conftest.py" else set())
        unused += [f"{path.name}:{line} {name}" for name, line in _bound(tree).items() if name not in read]
    return unused


def private_imports(paths) -> list[str]:
    """"path:line name" for each `_name` a module imports from a relative
    or `clckit` module, or reads as an attribute of a clckit module it
    imported (`from . import jsonio`)."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()  # names bound to clckit modules
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or not (node.level or node.module.split(".")[0] == "clckit"):
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{path.name}:{node.lineno} {alias.name}")
                if node.level and node.module is None:
                    modules.add(alias.asname or alias.name)
        found += [
            f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.startswith("__")
            and isinstance(node.value, ast.Name) and node.value.id in modules
        ]
    return found


def test_every_import_is_read():
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"] + sorted(TESTS.glob("*.py"))
    assert len(paths) > 20
    unused = unused_imports(paths)
    assert not unused, f"imported but never read: {unused}"


def test_scan_finds_an_unread_import(tmp_path):
    # the scan itself: an unread import is reported, a read one, an
    # attribute base and a conftest name imported by a test are not
    (tmp_path / "conftest.py").write_text("from os import path, sep\nimport json\n")
    (tmp_path / "test_x.py").write_text(
        "from conftest import path\nimport math\nprint(math.pi, path.sep)\n"
        "def f():\n    from fractions import Fraction\n    import re\n    return re\n"
    )
    paths = [tmp_path / "conftest.py", tmp_path / "test_x.py"]
    assert unused_imports(paths) == ["conftest.py:1 sep", "conftest.py:2 json", "test_x.py:5 Fraction"]


def test_no_private_name_crosses_a_library_module():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 10
    crossing = private_imports(paths)
    assert not crossing, f"private names imported from another clckit module: {crossing}"


def test_scan_finds_a_private_import(tmp_path):
    # the scan itself: a private name imported or read off a sibling module
    # is reported, in a function body too; a public one, a dunder and a
    # private name from another package are not
    (tmp_path / "m.py").write_text(
        "from . import jsonio as j\n"
        "from .setfn import ZERO, _scaled\n"
        "from json import _default_decoder\n"
        "def f():\n"
        "    from clckit.bitsets import _low\n"
        "    return j._load, j.load, j.__name__\n"
    )
    assert private_imports([tmp_path / "m.py"]) == ["m.py:2 _scaled", "m.py:5 _low", "m.py:6 j._load"]
