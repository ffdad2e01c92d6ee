"""Every name a module of ``onephase`` imports is used in that module.

No linter runs on this tree, so this check catches the imports a deletion
leaves behind.  A name counts as used when the module reads it (in code or
an annotation) or lists it in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "onephase"

# Imported only to be re-exported from where README documents them.
RE_EXPORTS = {"steps.py": {"THETA_P_LINEAR", "THETA_P_NONLINEAR"}}


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
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return {name: line for name, line in imported.items() if name not in used}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    for name in RE_EXPORTS.get(path.name, ()):
        unused.pop(name, None)
    assert not unused, unused


def test_check_flags_an_unused_import():
    source = "import os\nfrom math import pi, tau\n__all__ = ['tau']\nprint(pi)\n"
    assert unused_imports(source) == {"os": 1}
