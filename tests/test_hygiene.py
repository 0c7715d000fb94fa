"""Source hygiene checks that stand in for a linter.

Every `__all__` must name only what its module defines, no module may
import a name it never uses, and no module-level private name may go
unreferenced by the whole package.
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


def dead_private_helpers(sources: dict[str, str]) -> list[str]:
    """Module-level `_names` that no module of the given sources references.

    A reference is a name read anywhere in any module, its own included;
    `sources` maps module names to their text.
    """
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, name, node.lineno) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        used.update(node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
    return [f"{module}.{name} (line {line})" for module, name, line in defined
            if name not in used]


def test_dead_private_helper_detector_bites():
    sources = {"a": "_LIMIT = 1\ndef _used():\n    return _LIMIT\n"
                    "def _dead():\n    pass\nclass _Gone:\n    pass\n",
               "b": "from a import _used\nprint(_used())\n"}
    assert dead_private_helpers(sources) == ["a._dead (line 4)", "a._Gone (line 6)"]


def test_no_dead_private_helpers():
    package = Path(confoundsim.__file__).parent
    assert dead_private_helpers({path.stem: path.read_text(encoding="utf-8")
                                 for path in sorted(package.glob("*.py"))}) == []
