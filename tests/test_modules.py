"""Every fragfield module imports, and every name its ``__all__`` lists exists."""

import importlib
import pkgutil

import pytest

import fragfield

MODULES = ["fragfield"] + sorted(
    f"fragfield.{info.name}" for info in pkgutil.iter_modules(fragfield.__path__)
)


def test_modules_found():
    assert "fragfield.cli" in MODULES and "fragfield.experiment" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
