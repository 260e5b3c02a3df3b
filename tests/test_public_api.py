"""The library holds only what its commands and library callers run.

Every name `clckit/__init__.py` exports, and every public module-level
function or class in `src/clckit`, must be referenced somewhere in the
library outside `__init__.py` and outside its own definition. Code that only
tests use belongs in tests/conftest.py. The functions the benchmark traces
(`LAYER_FUNCTIONS` in perfbench/tracing.py) are exempt while it traces them.

A reference is a name read bare or as an attribute (`jsonio.load_matroid`),
found by parsing the source; the scan does not resolve scopes, so a local
variable can stand in for a function of the same name, but a function the
library calls is never reported.
"""
import ast
from collections import Counter
from pathlib import Path

from conftest import layer_functions

SRC = Path(__file__).resolve().parent.parent / "src" / "clckit"


def _names(node) -> Counter:
    """How often each name is read in the tree under node."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def _scan():
    """(exports, defined, used): the exports and the public module-level
    functions and classes, each as (module, name), and the set of names the
    library reads outside `__init__.py` and outside their own definitions."""
    exports, defined = [], []
    reads, own = Counter(), Counter()  # own: reads of a name inside its definition
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "__init__.py":
            exports += [
                (node.module, alias.name)
                for node in tree.body
                if isinstance(node, ast.ImportFrom)
                for alias in node.names
            ]
            continue
        reads += _names(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append((path.stem, node.name))
                own[node.name] += _names(node)[node.name]
    used = {name for name, count in reads.items() if count > own[name]}
    return exports, defined, used


def test_every_public_name_is_used_by_the_library():
    traced = {(mod, fn) for mod, fns in layer_functions().items() for fn in fns}
    exports, defined, used = _scan()
    unused_exports = [f"{mod}.{name}" for mod, name in exports if name not in used and (mod, name) not in traced]
    unused = [f"{mod}.{name}" for mod, name in defined if name not in used and (mod, name) not in traced]
    assert exports and defined
    assert not unused_exports, f"exported but used by nothing in the library: {unused_exports}"
    assert not unused, f"defined but used by nothing in the library: {unused}"
