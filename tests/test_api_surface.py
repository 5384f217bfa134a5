"""Every module's export list names objects that exist."""

import importlib
import pkgutil

import pytest

import torusdual

MODULES = ["torusdual"] + sorted(
    f"torusdual.{m.name}" for m in pkgutil.iter_modules(torusdual.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_export(name):
    module = importlib.import_module(name)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert module.__all__
    for export in module.__all__:
        assert namespace[export] is getattr(module, export)

