"""Source hygiene checks that stand in for a linter.

Every `__all__` must name only what its module defines, the package must
export each name once, no module of the package or of its tests may import
a name it never uses, no module-level private name may go unreferenced by
the whole package, no module may import another's private name unless it is
listed here, no public dataclass field, property or method may go unread by
it, the README's library tour must run as written, its command lines must
parse and it must name every command-line option.
"""

import argparse
import ast
import dataclasses
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import confoundsim
from confoundsim import cli

SOURCES = sorted(p for p in Path(confoundsim.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("module", ["confoundsim"] + [
    f"confoundsim.{info.name}" for info in pkgutil.iter_modules(confoundsim.__path__)])
def test_star_import_resolves_every_exported_name(module):
    # a name left in __all__ after its definition is deleted breaks import *
    exec(f"from {module} import *", {})


def test_package_exports_each_name_once():
    # a name in two modules' __all__ would be shadowed by one star import
    assert len(set(confoundsim.__all__)) == len(confoundsim.__all__)
    assert "__version__" in confoundsim.__all__


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


@pytest.mark.parametrize("path", SOURCES + sorted(Path(__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
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


# the private names one module of the package may import from another, as
# "importer: module._name"; a rule shared across modules is added here
ALLOWED_PRIVATE_IMPORTS = [
    "cli: glm._integer",
    "ensemble: glm._integer",
    "ensemble: metamodel._check_agreement",
    "ensemble: metamodel._check_seed",
    "metamodel: glm._integer",
]


def private_imports(sources: dict[str, str]) -> list[str]:
    """Every `_name` (not `__name__`) a module takes from a relative import,
    as "importer: module._name", sorted; `sources` maps module names to
    their text."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{module}: {node.module}.{alias.name}" for alias in node.names
                          if re.match(r"_(?!_)", alias.name)]
    return sorted(found)


def test_private_import_detector_bites():
    sources = {"a": "from . import __version__\nfrom .b import _used, shown\n",
               "c": "import os\nfrom os import _exit\nfrom .b import _kept as kept\n"}
    assert private_imports(sources) == ["a: b._used", "c: b._kept"]


def test_private_names_cross_modules_only_where_allowed():
    package = Path(confoundsim.__file__).parent
    found = private_imports({path.stem: path.read_text(encoding="utf-8")
                             for path in sorted(package.glob("*.py"))})
    assert found == ALLOWED_PRIVATE_IMPORTS


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def unread_public_attributes(sources: dict[str, str]) -> list[str]:
    """Public dataclass fields and public methods (properties included) of
    classes that no module of the sources reads.

    A read is an attribute load `obj.name` anywhere in any module, so a
    method call `obj.name()` reads its method.  Every
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
                elif isinstance(item, ast.FunctionDef):
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
                    "class Plain:\n    w: int\n"
                    "    def called(self):\n        pass\n"
                    "    def uncalled(self):\n        pass\n",
               "b": "from dataclasses import asdict\nfrom a import Plain, Point, Row\n"
                    "def dump(row: Row, point):\n    return asdict(row), asdict(point)\n"
                    "Plain().called()\n"}
    assert unread_public_attributes(sources) == ["a.Point.y (line 5)",
                                                 "a.Point.norm (line 7)",
                                                 "a.Plain.uncalled (line 16)"]


def test_no_unread_public_attributes():
    package = Path(confoundsim.__file__).parent
    assert unread_public_attributes({path.stem: path.read_text(encoding="utf-8")
                                     for path in sorted(package.glob("*.py"))}) == []


def test_readme_library_tour_runs_as_written():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"^## Library tour\n\n```python\n(.*?)^```$", readme,
                     re.MULTILINE | re.DOTALL)
    exec(compile(tour.group(1), "README.md (Library tour)", "exec"), {})


def test_readme_command_lines_parse_and_name_the_scan_columns():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
    lines = "".join(blocks).replace("\\\n", "").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("confoundsim ")]
    assert {command[1] for command in commands} == {"simulate", "scan", "fit", "ingest"}
    parser = cli._build_parser()
    for command in commands:
        # argparse exits on a flag it does not know or a missing argument
        parser.parse_args(command[1:])
    comment = re.search(r"^# grid sweep; CSV columns:\n((?:#   .*\n)+)", readme,
                        re.MULTILINE)
    columns = "".join(line.removeprefix("#   ") for line in comment.group(1).splitlines())
    assert columns.split(",") == ["N" if field.name == "n_respondents" else field.name
                                  for field in dataclasses.fields(confoundsim.GridCell)]


def options_missing_from(parser: argparse.ArgumentParser, text: str) -> list[str]:
    """Option strings of the parser and its subparsers that the text never names."""
    parsers = [parser] + [sub for action in parser._actions
                          if isinstance(action, argparse._SubParsersAction)
                          for sub in action.choices.values()]
    # argparse gives every parser -h and --help; a name such as --n must not
    # be found inside --n-list
    return [f"{sub.prog} {option}" for sub in parsers for action in sub._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
            and not re.search(re.escape(option) + r"(?![\w-])", text)]


def test_readme_option_detector_bites():
    parser = argparse.ArgumentParser(prog="tool")
    parser.add_argument("--n-list")
    sub = parser.add_subparsers().add_parser("run", prog="tool run")
    sub.add_argument("--n")
    sub.add_argument("-q", "--quiet", action="store_true")
    assert options_missing_from(parser, "tool --n-list; tool run -q") == [
        "tool run --n", "tool run --quiet"]


def test_readme_names_every_command_line_option():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    assert options_missing_from(cli._build_parser(), readme) == []
