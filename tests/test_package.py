"""Package surface: every exported name exists."""

import importlib
import pkgutil

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
