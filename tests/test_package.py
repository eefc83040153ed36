"""Package surface: every exported name exists, every import is used, warnings
have one source, and bad indices are refused alike."""

import ast
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hardy_rellich
from hardy_rellich import cli
from hardy_rellich.analytic import gamma_class
from hardy_rellich.functional import ProbeSpec, birman_ratio, random_polynomial_probe
from hardy_rellich.interval import IntervalProblem
from hardy_rellich.operators import ResolventPoint
from hardy_rellich.spectral import spectrum_curve

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


def _placed_warnings(tree: ast.Module) -> list:
    """Lines that call warnings.warn or pass a stacklevel= keyword."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "warn" and \
                    isinstance(func.value, ast.Name) and func.value.id == "warnings":
                found.append(f"warnings.warn (line {node.lineno})")
            found += [f"stacklevel= (line {node.lineno})"
                      for kw in node.keywords if kw.arg == "stacklevel"]
    return found


@pytest.mark.parametrize("path", [path for path in SOURCES
                                  if path.startswith("src") and not path.endswith("errors.py")])
def test_warnings_go_through_one_helper(path):
    # errors._warn places every warning at the caller's line; a hard-coded
    # stacklevel names a file inside the package when reached at another depth
    tree = ast.parse((ROOT / path).read_text(), filename=path)
    assert _placed_warnings(tree) == []


@pytest.mark.parametrize("call,value", [
    *[(call, n) for call in ("ProbeSpec", "random_polynomial_probe", "spectrum_curve",
                             "birman_ratio", "IntervalProblem")
      for n in (0, -1, 2.5, True)],
    ("ResolventPoint", math.inf), ("ResolventPoint", math.nan),
])
def test_bad_index_or_resolvent_point_is_refused(call, value):
    # every n-indexed entry point refuses as constants._check_index does, and
    # the resolvent a non-finite z, before anything is computed; True is no
    # index, though it equals 1
    calls = {"ProbeSpec": lambda n: ProbeSpec(n, 0.0),
             "random_polynomial_probe": lambda n: random_polynomial_probe(
                 n, np.random.default_rng(0)),
             "spectrum_curve": spectrum_curve,
             "birman_ratio": lambda n: birman_ratio(n, gamma_class(2.5)),
             "IntervalProblem": lambda n: IntervalProblem(n, 0.0, 1.0),
             "ResolventPoint": ResolventPoint}
    message = "must be finite" if call == "ResolventPoint" else \
        f"index n must be a positive integer, got {value!r}"
    with pytest.raises(ValueError, match=message):
        calls[call](value)


def test_numpy_integer_index_is_accepted():
    # an index taken from a numpy array is an index; the report keeps a plain int
    report = birman_ratio(np.int64(2), gamma_class(2.5))
    assert type(report.n) is int
    assert report == birman_ratio(2, gamma_class(2.5))
    problem = IntervalProblem(np.int64(3), 0.0, 1.0)
    assert type(problem.n) is int and problem.n == 3


def test_cli_refuses_index_zero_alike(capsys):
    # interval refuses n through constants._check_index, as ratio does
    lines = []
    for argv in (["ratio", "--n", "0", "--function", "gamma"],
                 ["interval", "--n", "0", "--function", "bridge"]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines.append(captured.err)
    assert lines[0] == lines[1] == "error: index n must be a positive integer, got 0\n"
