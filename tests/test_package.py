"""Package surface: every exported name exists."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hardy_rellich

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
