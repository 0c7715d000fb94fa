"""Source hygiene checks that stand in for a linter.

Every `__all__` must name only what its module defines, no module may
import a name it never uses, no module-level private name may go
unreferenced by the whole package, and no public dataclass field or
property may go unread by it.
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def unread_public_attributes(sources: dict[str, str]) -> list[str]:
    """Public dataclass fields and properties that no module of the sources reads.

    A read is an attribute load `obj.name` anywhere in any module.  Every
    field of a class whose instances are written whole through `asdict`
    counts as read; such a class is the annotation of the argument that a
    function hands to `asdict`.  `sources` maps module names to their text.
    """
    defined, read, whole = [], set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for item in cls.body:
                if (_is_dataclass(cls) and isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)):
                    defined.append((module, cls.name, item.target.id, item.lineno))
                elif (isinstance(item, ast.FunctionDef)
                      and any(isinstance(d, ast.Name) and d.id == "property"
                              for d in item.decorator_list)):
                    defined.append((module, cls.name, item.name, item.lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                annotations = {a.arg: a.annotation for a in node.args.args
                               + node.args.kwonlyargs}
                for call in ast.walk(node):
                    if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                            and call.func.id == "asdict" and call.args
                            and isinstance(call.args[0], ast.Name)):
                        annotation = annotations.get(call.args[0].id)
                        if isinstance(annotation, ast.Name):
                            whole.add(annotation.id)
    return [f"{module}.{cls}.{name} (line {line})" for module, cls, name, line in defined
            if not name.startswith("_") and name not in read and cls not in whole]


def test_unread_attribute_detector_bites():
    sources = {"a": "from dataclasses import dataclass\n"
                    "@dataclass(frozen=True)\nclass Point:\n    x: int\n    y: int\n"
                    "    @property\n    def norm(self):\n        return self.x\n"
                    "@dataclass\nclass Row:\n    z: int\n"
                    "class Plain:\n    w: int\n",
               "b": "from dataclasses import asdict\nfrom a import Point, Row\n"
                    "def dump(row: Row, point):\n    return asdict(row), asdict(point)\n"}
    assert unread_public_attributes(sources) == ["a.Point.y (line 5)",
                                                 "a.Point.norm (line 7)"]


def test_no_unread_public_attributes():
    package = Path(confoundsim.__file__).parent
    assert unread_public_attributes({path.stem: path.read_text(encoding="utf-8")
                                     for path in sorted(package.glob("*.py"))}) == []
