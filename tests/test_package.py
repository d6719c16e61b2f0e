"""The public surface stays what the package and the acceptance gate use."""
import ast
from pathlib import Path

import bernray

SRC = Path(bernray.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def _names_used(tree):
    """Names a module reads or imports; a definition alone does not count."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_export_is_used_by_the_package_or_the_acceptance_gate():
    used = set()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            used |= _names_used(ast.parse(path.read_text()))
    acceptance = ast.parse(ACCEPTANCE.read_text())
    for node in ast.walk(acceptance):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bernray"):
            used.update(alias.name for alias in node.names)
    assert sorted(set(bernray.__all__) - used) == []
