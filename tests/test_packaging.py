import ast
import importlib
import os
import re
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


def test_no_module_imports_mpmath_matrices():
    # the eigensolve is the package's own, on Python integers: no module
    # imports from mpmath.matrices (tridiag_eigen, eigsy and the rest)
    for path in sorted(PACKAGE.glob("*.py")):
        names = []
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names.extend(f"{node.module}.{a.name}" for a in node.names)
            elif isinstance(node, ast.Import):
                names.extend(a.name for a in node.names)
        bad = [m for m in names if (m + ".").startswith("mpmath.matrices.")]
        assert bad == [], f"{path.name} imports {bad}"


def test_reduction_runs_on_integers():
    # the tridiagonal reduction is the package's own, on Python integers: no
    # module calls mpmath's reduction, its dense matrix type or its dense solver
    for path in sorted(PACKAGE.glob("*.py")):
        calls = []
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            on_mp = isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id == "mp"
            if name == "r_sy_tridiag" or on_mp and name in ("matrix", "eigsy"):
                calls.append((node.lineno, name))
        assert calls == [], f"{path.name} calls {calls}"


def test_certificate_runs_on_integers():
    # the reduction and the Sturm counts run on Python integers, and the
    # residual is an integer count of units: nothing in them comes from mpmath
    tree = ast.parse((PACKAGE / "precision.py").read_text())
    from_mpmath = {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
                   and node.module.startswith("mpmath") for a in node.names}
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("_reflect", "_tridiagonalize", "_sturm_count"):
        used = {n.id for n in ast.walk(funcs[name]) if isinstance(n, ast.Name)}
        assert not used & from_mpmath, f"{name} uses {sorted(used & from_mpmath)}"


# Public names that only the tests reach, kept because each checks a
# north-star identity: semilocal's checks, and EvenGaussHermite's methods,
# which no bench workload runs yet.
NORTH_STAR_CHECKS = (
    "u_arch",
    "zeta_ratio",
    "tate_arch_check",
    "semilocal_lift_check",
    "arch_trace_check",
    "EvenGaussHermite.value_at_zero",
    "EvenGaussHermite.norm_sq",
    "EvenGaussHermite.project_even_schwartz_zero",
)


def _referenced_names(paths):
    # (names, attributes): every identifier used as a name, an attribute, an
    # import, or a part of a dotted string such as the bench's span targets;
    # and the identifiers that can reach a method, an attribute (obj.name) or
    # a part after the first dot of a dotted string ("Class.method").
    # Docstrings do not count.
    dotted = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
    names, attrs = set(), set()
    for path in paths:
        tree = ast.parse(path.read_text())
        docs = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docs and dotted.fullmatch(node.value)):
                parts = node.value.split(".")
                names.update(parts)
                attrs.update(parts[1:])
    return names, attrs


def test_every_public_name_has_a_caller():
    # a public function, class or method that no package module and no bench
    # file reaches is dead surface: delete it, or move it to tests/ as a
    # helper.  A method counts as reached only through an attribute or a
    # dotted string, so a local variable of the same name does not hide it
    import zetalab

    modules = sorted(PACKAGE.glob("*.py"))
    names, attrs = _referenced_names([*modules, *sorted((ROOT / "perfbench").glob("*.py"))])
    dead = []
    for path in modules:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            members = [(node.name, node.name, names)]
            if isinstance(node, ast.ClassDef):
                members += [(f"{node.name}.{m.name}", m.name, attrs) for m in node.body
                            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
            dead += [f"{path.stem}.{qual}" for qual, name, seen in members
                     if name not in seen and qual not in zetalab.__all__
                     and qual not in NORTH_STAR_CHECKS]
    assert dead == [], f"public names with no caller in src or perfbench: {dead}"


def test_weil_computes_its_own_digamma():
    # weil's psi and psi' come from its fixed-point pass on integers, not from
    # mpmath's digamma or polygamma; semilocal keeps mp.digamma as the
    # independent route of its trace check
    calls = [
        node.lineno for node in ast.walk(ast.parse((PACKAGE / "weil.py").read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("digamma", "psi", "polygamma")
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "mp"
    ]
    assert calls == [], f"weil.py calls mp.digamma or mp.psi at lines {calls}"


def test_scaling_stands_alone():
    # the zeta-cycle check needs only the zero table from the package: the
    # pointwise map E and the guard bits it uses live in semilocal
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / "scaling.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert {m for m in imported if m.split(".")[0] == "zetalab"} == {"zetalab.zerotable"}
