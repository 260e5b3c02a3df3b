"""The library holds only what its commands and library callers run.

Every name `clckit/__init__.py` exports, and every public module-level
function or class in `src/clckit`, must be referenced somewhere in the
library outside `__init__.py` and outside its own definition. Code that only
tests use belongs in tests/conftest.py. The functions the benchmark traces
(`LAYER_FUNCTIONS` in perfbench/tracing.py) are exempt while it traces them.

The same holds one level down: every public method, property, classmethod
and annotated field of a public library class must be read as an attribute
(`obj.name`) somewhere in the library outside its own definition.

A reference is a name read bare or as an attribute (`jsonio.load_matroid`),
found by parsing the source; the scan does not resolve scopes or types, so a
local variable can stand in for a function of the same name, and any
object's attribute for a member of the same name, but a function or member
the library reads is never reported.
"""
import ast
from collections import Counter
from pathlib import Path

from conftest import layer_functions

SRC = Path(__file__).resolve().parent.parent / "src" / "clckit"

# Members kept although the library never reads them, each with its reason.
UNREAD_MEMBERS = {
    # the LP pivot count: test_oracles compares it with the phase-1 oracle,
    # and the planned --stats flag reports it (ROADMAP item 4)
    ("simplex", "LPFeasibility", "pivots"),
}


def _names(node) -> Counter:
    """How often each name is read in the tree under node."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def _attributes(node) -> Counter:
    """How often each name is read as an attribute (`obj.name`) under node."""
    return Counter(
        sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    )


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


def _member(node) -> str | None:
    """The name a class-body statement defines as a method, property,
    classmethod or annotated field, if it is public."""
    if isinstance(node, ast.FunctionDef):
        name = node.name
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        name = node.target.id
    else:
        return None
    return None if name.startswith("_") else name


def unread_members(paths) -> list[str]:
    """"module.Class.member" for each public member of a public class in the
    modules at `paths` that no attribute read outside its own definition
    reaches."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    reads, own, members = Counter(), Counter(), []
    for module, tree in trees.items():
        reads += _attributes(tree)
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                for node in cls.body:
                    if (name := _member(node)) is not None:
                        members.append((module, cls.name, name))
                        own[name] += _attributes(node)[name]
    return [".".join(m) for m in members if reads[m[2]] <= own[m[2]] and m not in UNREAD_MEMBERS]


def test_every_public_name_is_used_by_the_library():
    traced = {(mod, fn) for mod, fns in layer_functions().items() for fn in fns}
    exports, defined, used = _scan()
    unused_exports = [f"{mod}.{name}" for mod, name in exports if name not in used and (mod, name) not in traced]
    unused = [f"{mod}.{name}" for mod, name in defined if name not in used and (mod, name) not in traced]
    assert exports and defined
    assert not unused_exports, f"exported but used by nothing in the library: {unused_exports}"
    assert not unused, f"defined but used by nothing in the library: {unused}"


def test_every_public_member_is_read_by_the_library():
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    unread = unread_members(paths)
    assert not unread, f"public members the library never reads: {unread}"


def test_member_scan_finds_an_unread_member(tmp_path):
    # the scan itself: a field, a method, a property and a classmethod read
    # by nothing outside themselves are reported; a member read elsewhere,
    # a private member and a member of a private class are not
    (tmp_path / "m.py").write_text(
        "class A:\n"
        "    kept: int\n"
        "    dropped: int\n"
        "    _private: int\n"
        "    def method(self):\n"
        "        return self.method()\n"
        "    @property\n"
        "    def prop(self):\n"
        "        return self.kept\n"
        "    @classmethod\n"
        "    def of(cls):\n"
        "        return cls()\n"
        "class _B:\n"
        "    hidden: int\n"
        "def f(a):\n"
        "    a.dropped = 1\n"
        "    return a.kept\n"
    )
    assert unread_members([tmp_path / "m.py"]) == ["m.A.dropped", "m.A.method", "m.A.prop", "m.A.of"]
