"""Source hygiene checks that stand in for a linter.

Every `__all__` must name only what its module defines, and no module may
import a name it never uses.
"""

import ast
import pkgutil
from pathlib import Path

import pytest

import confoundsim

SOURCES = sorted(p for p in Path(confoundsim.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("module", ["confoundsim"] + [
    f"confoundsim.{info.name}" for info in pkgutil.iter_modules(confoundsim.__path__)])
def test_star_import_resolves_every_exported_name(module):
    # a name left in __all__ after its definition is deleted breaks import *
    exec(f"from {module} import *", {})


def unused_imports(source: str) -> list[str]:
    """Names the module imports but never references (its __all__ counts)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_unused_import_detector_bites():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == [
        "os (line 1)", "tau (line 2)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
