"""Package surface: every exported name exists, and every import is used."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hardy_rellich

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(str(path.relative_to(ROOT))
                 for folder in ("src", "tests") for path in (ROOT / folder).rglob("*.py"))
MODULES = ["hardy_rellich"] + [f"hardy_rellich.{info.name}"
                               for info in pkgutil.iter_modules(hardy_rellich.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # tracing tools look each __all__ entry up by name, so a stale entry breaks them
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_modules_import_numpy_alone():
    # the package depends on numpy only; an import of scipy, sympy or mpmath
    # anywhere in it would also slow every CLI start-up
    src = str(Path(hardy_rellich.__file__).resolve().parents[1])
    code = ("import importlib, json, sys\n"
            f"for name in {MODULES!r}:\n"
            "    importlib.import_module(name)\n"
            "print(json.dumps(sorted(m for m in ('scipy', 'sympy', 'mpmath') "
            "if m in sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def _unused_imports(tree: ast.Module) -> list:
    """Names bound by an import and never read, __future__ and __all__ aside."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", SOURCES)
def test_no_unused_imports(path):
    tree = ast.parse((ROOT / path).read_text(), filename=path)
    assert _unused_imports(tree) == []
