"""Module boundaries of the package."""

import ast
import re
from pathlib import Path

import strandcode

PACKAGE = Path(strandcode.__file__).parent


def _private_sibling_imports(path: Path) -> list[str]:
    """Underscore names a module imports from its sibling modules.

    ``from . import _bitops`` names the shared bit-kernel module itself and
    is allowed; any other underscore name is private to the module that
    defines it.
    """
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom) or node.level == 0:
            continue
        for alias in node.names:
            if not alias.name.startswith("_"):
                continue
            if node.module is None and alias.name == "_bitops":
                continue
            found.append(f"{node.module or ''}.{alias.name}")
    return found


def test_no_module_imports_private_names_from_a_sibling():
    offenders = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := _private_sibling_imports(path))
    }
    assert offenders == {}


REPO = Path(__file__).resolve().parents[1]
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _trees(*dirs: str):
    for d in dirs:
        for path in sorted((REPO / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _references(tree: ast.AST) -> set[str]:
    """Every name a module could reach a function by: bare names, attributes,
    imported names and their aliases, and the parts of dotted string
    constants (``__all__`` entries, perfbench's layer paths)."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.update(node.name.split("."))
            if node.asname:
                refs.add(node.asname)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _DOTTED.fullmatch(node.value)
        ):
            refs.update(node.value.split("."))
    return refs


def test_every_function_in_the_package_is_referenced():
    refs = set()
    defined = []
    for path, tree in _trees("src", "tests", "perfbench"):
        refs |= _references(tree)
        if path.parent == REPO / "src" / "strandcode":
            defined += [
                f"{path.name}:{node.lineno} {node.name}"
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (node.name.startswith("__") and node.name.endswith("__"))
            ]
    unused = [d for d in defined if d.rpartition(" ")[2] not in refs]
    assert unused == []
