import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
PACKAGE = ROOT / "src" / "zetalab"


def test_declared_scripts_resolve():
    # every console script that an install would create must import and call
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name!r} -> {target!r} is not callable"


def test_exact_half_imports_no_numerics():
    # import zetalab loads cyclotomy and witt only: exact, on Python integers
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = "import sys, zetalab; print(sorted({'mpmath', 'numpy'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_quadrature_only_in_semilocal():
    # the package computes in closed form; semilocal's checks are quadratures
    # by design, and the tests keep the other quadrature references
    for path in sorted(PACKAGE.glob("*.py")):
        calls = [
            node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("quad", "quadosc")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "mp"
        ]
        if path.stem != "semilocal":
            assert calls == [], f"{path.name} calls mp.quad at lines {calls}"
