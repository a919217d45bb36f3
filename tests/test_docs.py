import ast
import importlib
import inspect
import re
from pathlib import Path

import multishape as ms

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "multishape"
# Sphinx cross-references to code objects
REFERENCE = re.compile(r":(?:func|meth|class|mod):`([^`]+)`")


def entry_points():
    """Names in README's "Key entry points" sentence."""
    text = README.read_text(encoding="utf-8")
    listing = text.split("Key entry points:", 1)[1].split(". ", 1)[0]
    return re.findall(r"`(\w+)`", listing)


def test_readme_entry_points_exist():
    names = entry_points()
    assert len(names) >= 10
    missing = [name for name in names if not hasattr(ms, name)]
    assert missing == []


def docstring_references():
    """(module name, target) of every reference in the package docstrings."""
    for path in sorted(PACKAGE.glob("*.py")):
        name = ("multishape" if path.stem == "__init__"
                else f"multishape.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                for target in REFERENCE.findall(ast.get_docstring(node) or ""):
                    yield name, target


def resolves(root, dotted):
    for part in dotted.split("."):
        if not hasattr(root, part):
            return False
        root = getattr(root, part)
    return True


def test_docstring_references_resolve():
    """A reference names an attribute path of its module, of one of the
    module's classes, or of the package; a full ``multishape.`` path
    resolves from the package alone."""
    references = list(docstring_references())
    assert len(references) >= 30
    stale = []
    for name, target in references:
        module = importlib.import_module(name)
        if target.startswith("multishape."):
            roots = [ms]
            path = target.removeprefix("multishape.")
        else:
            roots = [module, *(value for value in vars(module).values()
                               if inspect.isclass(value)
                               and value.__module__ == name), ms]
            path = target
        if not any(resolves(root, path) for root in roots):
            stale.append(f"{name}: {target}")
    assert stale == []


def imported_names(tree):
    """The names a module's import statements bind, __future__ aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def test_no_unused_imports():
    """Every module but ``__init__`` (which re-exports) uses each name it
    imports; an attribute chain such as ``np.zeros`` uses its first name."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in imported_names(tree)
                   if name not in used]
    assert unused == []
