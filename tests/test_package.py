"""The package's public names and what importing it loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import coopdetect


def test_every_exported_name_resolves():
    missing = [name for name in coopdetect.__all__ if not hasattr(coopdetect, name)]
    assert not missing
    assert len(set(coopdetect.__all__)) == len(coopdetect.__all__)


def test_import_loads_no_scipy():
    # The kernels need numpy alone.  A fresh interpreter, so that no other
    # test's imports count; every module of the package is imported.
    code = """
import importlib, pkgutil, sys
import coopdetect
for module in pkgutil.iter_modules(coopdetect.__path__):
    importlib.import_module(f"coopdetect.{module.name}")
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(coopdetect.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_import_loads_only_known_stdlib_modules():
    # Every process pays for what `import coopdetect` loads beyond numpy, so
    # a new dependency of the import shows here first.
    code = """
import sys
import numpy
before = set(sys.modules)
import coopdetect
print(" ".join(sorted(set(sys.modules) - before)))
"""
    known = {"__future__", "_blake2", "_csv", "_hashlib", "_json", "copy", "csv", "dataclasses",
             "hashlib", "json", "json.decoder", "json.encoder", "json.scanner"}
    env = {**os.environ, "PYTHONPATH": str(Path(coopdetect.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    loaded = out.stdout.split()
    assert "coopdetect" in loaded
    assert sorted(m for m in loaded if m.split(".")[0] != "coopdetect" and m not in known) == []


def test_every_import_is_used():
    # A name bound by an import and never read is left over from deleted
    # code.  Names that __init__ exports in __all__ count as read.
    unused = []
    for path in sorted(Path(coopdetect.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            read |= set(coopdetect.__all__)
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items()
                   if name not in read]
    assert not unused


def _sources() -> dict:
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(Path(coopdetect.__file__).parent.glob("*.py"))}


def test_only_errors_tells_a_bool_from_a_number():
    # errors.is_number, is_integer and is_finite own the rule that a bool is
    # not a number; an isinstance(..., bool) elsewhere writes it a second time.
    found = []
    for name, tree in _sources().items():
        for node in ast.walk(tree):
            if (name != "errors.py" and isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                    and len(node.args) == 2):
                kinds = node.args[1]
                kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
                if any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds):
                    found.append(f"{name}:{node.lineno}")
    assert not found


def test_only_errors_words_a_document_check():
    # errors.check_keys owns the non-object and unknown-key checks of every reader.
    phrases = ("has unknown keys", "must be a JSON object")
    found = [f"{name}:{node.lineno}" for name, tree in _sources().items() if name != "errors.py"
             for node in ast.walk(tree) if isinstance(node, ast.Constant)
             and isinstance(node.value, str) and any(p in node.value for p in phrases)]
    assert not found


def test_only_errors_words_the_seed_rule():
    # errors.seed_problems owns the rule numpy's SeedSequence puts on a seed.
    found = [f"{name}:{node.lineno}" for name, tree in _sources().items() if name != "errors.py"
             for node in ast.walk(tree) if isinstance(node, ast.Constant)
             and isinstance(node.value, str) and "must be a nonnegative integer" in node.value]
    assert not found


def test_only_netsim_words_the_neighbor_rule():
    # netsim.neighbor_problems owns the neighbor-set rule of scenario files and solves.
    phrases = ("distinct ids of other APs", "whose neighbors do not list")
    found = [f"{name}:{node.lineno}" for name, tree in _sources().items() if name != "netsim.py"
             for node in ast.walk(tree) if isinstance(node, ast.Constant)
             and isinstance(node.value, str) and any(p in node.value for p in phrases)]
    assert not found


def test_validate_catches_only_invalid_config_from_the_plan_reader():
    # FailurePlan raises InvalidConfig for every malformed plan, so a wider
    # except would hide a defect of the plan's own checks.
    tree = _sources()["harness.py"]
    validate = next(node for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name == "validate")
    reads = [node for node in ast.walk(validate) if isinstance(node, ast.Try)
             and "FailurePlan.from_dict" in "".join(map(ast.unparse, node.body))]
    caught = [ast.unparse(handler.type) for node in reads for handler in node.handlers]
    assert caught and set(caught) == {"InvalidConfig"}
