"""Package surface: every exported name exists, exact rationals stay out
of the numeric modules, and the import needs numpy alone."""

import ast
import importlib
import os
import subprocess
import sys
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


def test_the_import_loads_numpy_alone():
    # the package runs on numpy alone: a fresh interpreter that imports it
    # loads no other module outside the standard library (the modules the
    # interpreter loads at startup are set aside)
    script = (
        "import sys; before = set(sys.modules); import maassforms; "
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))"
    )
    src = str(Path(maassforms.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    outside = set(out.stdout.split()) - set(sys.stdlib_module_names)
    assert outside == {"maassforms", "numpy"}
