"""The demo scripts parse and import only names the package has.

Nothing else runs the demos, so a removed or renamed name would otherwise
break them unseen.  The demos are parsed, not run.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def package_imports(tree):
    """(module, name) for each name imported from coopdetect; name is None for a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "coopdetect":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "coopdetect":
                    yield alias.name, None


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imports = list(package_imports(tree))
    assert imports, f"{path.name} imports nothing from coopdetect"
    for module, name in imports:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{path.name}: {module} has no {name}"
