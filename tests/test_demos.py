"""The demo scripts import only names the package has, and the fast ones run.

Nothing else runs the demos, so a removed or renamed name would otherwise
break them unseen.  Every demo is parsed for its imports and for the modes
its ``modes=`` literals name.  Demos 01, 02 and 04 (about a second each) are
also run to exit 0; demos 03 (about 5 s) and 05 (about 85 s) are too slow for
the suite and are only parsed.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coopdetect.harness import MODES

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
FAST_DEMOS = [p for p in DEMOS if p.name[:3] in ("01_", "02_", "04_")]


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
    assert len(FAST_DEMOS) == 3


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imports = list(package_imports(tree))
    assert imports, f"{path.name} imports nothing from coopdetect"
    for module, name in imports:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{path.name}: {module} has no {name}"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_modes_exist(path):
    # Demos 03 and 05 are only parsed, so a stale mode in them would otherwise pass.
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "modes" \
                and isinstance(node.value, (ast.Tuple, ast.List)):
            named = [ast.literal_eval(elt) for elt in node.value.elts]
            unknown = [m for m in named if m not in MODES]
            assert not unknown, f"{path.name}: line {node.value.lineno} names {unknown}"


@pytest.mark.parametrize("path", FAST_DEMOS, ids=lambda p: p.name)
def test_fast_demo_runs(path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, f"{path.name} exited {done.returncode}:\n{done.stderr}"
