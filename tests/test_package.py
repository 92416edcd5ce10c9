"""Package surface: every exported name exists, and exact rationals stay
out of the numeric modules."""

import ast
import importlib
from pathlib import Path

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


def test_only_characters_imports_fractions():
    # the mathematics is integral wherever it can be: group data, term
    # exponents and character tables are ints; characters.rational_exponent
    # keeps its Fraction as the tests' oracle
    importers = []
    for path in sorted(Path(maassforms.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = (
                [node.module] if isinstance(node, ast.ImportFrom)
                else [a.name for a in node.names] if isinstance(node, ast.Import)
                else []
            )
            if "fractions" in names:
                importers.append(path.stem)
    assert importers == ["characters"]
