"""Package surface: every exported name exists."""

import importlib

import pytest

import maassforms

MODULES = ["maassforms"] + [f"maassforms.{name}" for name in maassforms.__all__]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale string in __all__ passes every other test and breaks only
    # `from module import *`
    module = importlib.import_module(name)
    exported = module.__all__
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
