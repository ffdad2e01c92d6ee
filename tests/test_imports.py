"""Every name a module of ``onephase`` imports is used in that module, and
every module-level function and class is named somewhere in the package,
and every decoded field, method and property of a class is read outside it.

No linter runs on this tree, so these checks catch the imports a deletion
leaves behind and the definitions only tests call.  A name counts as used
when a module reads it (in code or an annotation, or as an attribute) or
lists it in ``__all__``.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

from helpers import run_python

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "onephase"

def _exported(tree: ast.Module) -> set[str]:
    """The names the ``__all__`` assignment of ``tree`` lists."""
    return {name for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)}


def unused_imports(source: str) -> dict[str, int]:
    """The names ``source`` imports and never uses, with their lines."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    return {name: line for name, line in imported.items() if name not in used}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, unused


def test_check_flags_an_unused_import():
    source = "import os\nfrom math import pi, tau\n__all__ = ['tau']\nprint(pi)\n"
    assert unused_imports(source) == {"os": 1}


def unused_definitions(sources: dict[str, str]) -> dict[str, int]:
    """The module-level functions and classes of ``sources`` (module name to
    text) that no module names and no ``__all__`` lists, as
    ``{"module:name": line}``."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    named = set()
    for tree in trees.values():
        named |= _exported(tree)
        named |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return {f"{module}:{node.name}": node.lineno
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in named}


def test_no_definition_only_tests_use():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert not unused_definitions(sources)


def test_check_flags_an_unused_definition():
    sources = {"a": "def used():\n    pass\n\ndef orphan():\n    pass\n\nclass Public:\n    pass\n"
                    "__all__ = ['Public']\n",
               "b": "import a\na.used()\n"}
    assert unused_definitions(sources) == {"a:orphan": 4}


def _attribute_reads(tree: ast.AST) -> Counter:
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))


def _declares_decoded_field(node: ast.stmt) -> bool:
    """``node`` is ``name: type = field(..., init=False, ...)``."""
    return (isinstance(node, ast.AnnAssign) and isinstance(node.value, ast.Call)
            and any(kw.arg == "init" and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False for kw in node.value.keywords))


def _unread_outside_class(sources: dict[str, str], declared) -> dict[str, int]:
    """The names ``declared(class_node)`` yields, as ``(name, line)``, for the
    classes of ``sources`` (module name to text) that no code outside the
    declaring class reads as an attribute, as ``{"module:Class.name": line}``."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    everywhere = sum(map(_attribute_reads, trees.values()), Counter())
    unread = {}
    for module, tree in trees.items():
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            inside = _attribute_reads(cls)
            for name, line in declared(cls):
                if everywhere[name] == inside[name]:
                    unread[f"{module}:{cls.name}.{name}"] = line
    return unread


def unread_fields(sources: dict[str, str]) -> dict[str, int]:
    """The ``field(init=False)`` attributes of the classes of ``sources``
    that nothing outside their class reads: a decoded field that nothing
    reads is a decode left behind."""
    return _unread_outside_class(sources, lambda cls: (
        (node.target.id, node.lineno) for node in cls.body if _declares_decoded_field(node)))


def unread_members(sources: dict[str, str]) -> dict[str, int]:
    """The methods and properties of the classes of ``sources``, dunders
    aside, that nothing outside their class reads: a member only tests
    call is computed for no reader."""
    return _unread_outside_class(sources, lambda cls: (
        (node.name, node.lineno) for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))))


def test_every_decoded_field_is_read():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert not unread_fields(sources)


def test_check_flags_an_unread_field():
    sources = {"a": "@dataclass\nclass P:\n    n: int\n"
                    "    _read: int = field(init=False)\n"
                    "    _orphan: int = field(init=False, repr=False)\n"
                    "    k: int = field(default=0)\n"
                    "    def __post_init__(self):\n"
                    "        self._read = self._orphan = self.n\n"
                    "        print(self._orphan.real)\n",
               "b": "def f(p):\n    return p._read + p.k\n"}
    assert unread_fields(sources) == {"a:P._orphan": 5}


def test_every_member_is_read():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert not unread_members(sources)


def test_check_flags_an_unread_member():
    sources = {"a": "class It:\n"
                    "    def __init__(self):\n        self.v = self.helper()\n"
                    "    def helper(self):\n        return 1\n"
                    "    @property\n    def read(self):\n        return self.orphan\n"
                    "    @cached_property\n    def orphan(self):\n        return 2\n",
               "b": "def f(it):\n    return it.read\n"}
    assert unread_members(sources) == {"a:It.helper": 4, "a:It.orphan": 10}


def test_import_loads_no_scipy():
    # scipy.linalg was most of the import time, loaded for one LAPACK
    # routine that numpy's own OpenBLAS provides.
    done = run_python("import sys, onephase, onephase.cli; "
                      "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
