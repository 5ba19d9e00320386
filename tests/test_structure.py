"""Module boundaries of the package."""

import ast
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
