import ast
import importlib.util
import inspect
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
    # the package computes in closed form; its one quadrature is
    # semilocal.quad_checked, which checks mp.quad's error estimate, and no
    # module calls the unchecked mp.quadosc
    def mp_quad_calls(tree):
        return [(node.lineno, node.func.attr) for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("quad", "quadosc")
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "mp"]

    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = [call for node in tree.body if isinstance(node, ast.FunctionDef)
                  and path.stem == "semilocal" and node.name == "quad_checked"
                  for call in mp_quad_calls(node)]
        if path.stem == "semilocal":
            assert [attr for _, attr in inside] == ["quad"]
        outside += [(path.name, *call) for call in mp_quad_calls(tree) if call not in inside]
    assert outside == [], f"mp.quad or mp.quadosc outside semilocal.quad_checked: {outside}"


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
    # the reduction, the seeding QL, the seeded bisection and the Sturm counts
    # run on Python integers, and the residual is an integer count of units:
    # nothing in them comes from mpmath
    tree = ast.parse((PACKAGE / "precision.py").read_text())
    from_mpmath = {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
                   and node.module.startswith("mpmath") for a in node.names}
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("_reflect", "_tridiagonalize", "_ql_centres", "_centres", "_sturm_count"):
        used = {n.id for n in ast.walk(funcs[name]) if isinstance(n, ast.Name)}
        assert not used & from_mpmath, f"{name} uses {sorted(used & from_mpmath)}"


def _function(module, name):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    [func] = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name]
    return tree, func


def test_gram_assembly_runs_on_integers():
    # _parity_blocks rounds its O(K) scalars to integers in its one workprec
    # block; past it, the prime recurrence and the entry loop read no mpmath
    # name and none of the block's mpf values (the band's L, alpha, c0, c2
    # and the prime-power table)
    tree, func = _function("weil", "_parity_blocks")
    from_mpmath = {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
                   and node.module.startswith("mpmath") for a in node.names}
    [at] = [i for i, node in enumerate(func.body) if isinstance(node, ast.With)]
    rest = func.body[at + 1:]
    assert sum(isinstance(node, ast.For) for node in rest) >= 2  # the recurrence and the entries
    used = {n.id for node in rest for n in ast.walk(node) if isinstance(n, ast.Name)}
    banned = from_mpmath | {"_to_mpf", "L", "alpha", "c0", "c2", "pp"}
    assert not used & banned, f"the integer assembly uses {sorted(used & banned)}"


def test_gram_reaches_the_eigensolve_as_integers():
    # past _parity_blocks no Gram entry becomes an mpf: the projection and
    # the hand-off to HPMatrix read no mpmath name and no _to_mpf
    banned = {"mp", "mpf", "_to_mpf"}
    for name in ("weil_gram", "_project_out"):
        _, func = _function("weil", name)
        used = {n.id for n in ast.walk(func) if isinstance(n, ast.Name)}
        assert not used & banned, f"{name} uses {sorted(used & banned)}"


def test_projection_bound_reads_only_its_blocks():
    # the reflector's count reads each projected block's dimension and
    # exponent: no working precision, band frame, pole functional or norm
    banned = {"mp", "mpf", "_band_frame", "_pole_functionals"}
    _, func = _function("weil", "_projection_error")
    used = {n.id for n in ast.walk(func) if isinstance(n, ast.Name)}
    assert not used & banned, f"_projection_error uses {sorted(used & banned)}"
    assert [a.arg for a in func.args.args] == ["blocks"]


def test_pair_sum_sine_runs_on_integers():
    # the zero sum's sine is the package's own, on Python integers: the pass
    # and its kernel name no mpmath sine or product, and bandfn imports none
    banned = {"mpf_sin", "mpf_mul", "sin", "cos_sin", "cos_sin_basecase"}
    for name in ("_pair_sum", "_fixed_sin"):
        _, func = _function("bandfn", name)
        used = {n.id for n in ast.walk(func) if isinstance(n, ast.Name)}
        used |= {n.attr for n in ast.walk(func) if isinstance(n, ast.Attribute)}
        assert not used & banned, f"{name} uses {sorted(used & banned)}"
    tree = ast.parse((PACKAGE / "bandfn.py").read_text())
    imported = {a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names}
    assert not imported & banned, f"bandfn imports {sorted(imported & banned)}"


def _calls(node, name):
    return [n for n in ast.walk(node) if isinstance(n, ast.Call)
            and getattr(n.func, "id", getattr(n.func, "attr", None)) == name]


def test_one_zero_sum_pass():
    # every band's zero sum is one pass with one sine per ordinate: bandfn
    # calls _fixed_sin at one site, and mellin_pair_sum calls the pass once
    tree = ast.parse((PACKAGE / "bandfn.py").read_text())
    assert len(_calls(tree, "_fixed_sin")) == 1
    [method] = [node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "mellin_pair_sum"]
    assert len(_calls(method, "_pair_sum")) == 1


def test_ql_rotations_take_no_square_root():
    # the root-free QL: its one isqrt is the Wilkinson shift, once per sweep,
    # and the rotation loop, the innermost, calls none
    _, func = _function("precision", "_ql_centres")

    loops = [n for n in ast.walk(func) if isinstance(n, ast.For)]
    innermost = [n for n in loops if not any(isinstance(m, ast.For) for m in ast.walk(n) if m is not n)]
    assert innermost and not any(_calls(n, "isqrt") for n in innermost)
    assert len(_calls(func, "isqrt")) == 1


def test_eigensolve_has_no_knob():
    # the seeding adds no option: the eigensolve takes the matrix alone, its
    # matrix the integers, their exponent and the precision, none defaulted,
    # and precision.py reads no environment variable
    from zetalab.precision import HPMatrix, jacobi_eigensystem

    assert list(inspect.signature(jacobi_eigensystem).parameters) == ["m"]
    params = inspect.signature(HPMatrix).parameters.values()
    assert [(p.name, p.default) for p in params] == [
        (name, inspect.Parameter.empty) for name in ("rows", "exponent", "precision_bits")]
    tree = ast.parse((PACKAGE / "precision.py").read_text())
    seen = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            seen.add(node.id)
        elif isinstance(node, ast.Attribute):
            seen.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            seen.update(a.name.partition(".")[0] for a in node.names)
            seen.add((getattr(node, "module", None) or "").partition(".")[0])
    assert not seen & {"os", "environ", "getenv"}, sorted(seen & {"os", "environ", "getenv"})


# Public names that only the tests reach, kept because each compares two
# independent routes to a north-star identity, which no bench workload runs
# yet: Tate's archimedean functional equation and the archimedean trace
# formula.
NORTH_STAR_CHECKS = (
    "tate_arch_check",
    "arch_trace_check",
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


def test_one_prime_helper():
    # one function decides which prime powers lie in a band: in weil.py only
    # _prime_powers reaches is_prime
    tree = ast.parse((PACKAGE / "weil.py").read_text())
    users = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
             and any(isinstance(n, ast.Name) and n.id == "is_prime" for n in ast.walk(node))}
    assert users == {"_prime_powers"}, f"is_prime reached from {sorted(users)}"


def test_zero_table_parse_has_one_route():
    # parse_zero_table reads every line on integers by the file's grammar:
    # zerotable.py hands no line to mpf (mpf(0) is its one call) and sets no
    # ambient precision
    calls = [node for node in ast.walk(ast.parse((PACKAGE / "zerotable.py").read_text()))
             if isinstance(node, ast.Call)]
    names = [getattr(c.func, "id", None) or getattr(c.func, "attr", None) for c in calls]
    by_mpf = [ast.unparse(c) for c, name in zip(calls, names) if name == "mpf"
              and not all(isinstance(a, ast.Constant) for a in c.args)]
    assert by_mpf == [] and "workdps" not in names


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
    # the zeta-cycle check needs only the zero table from the package
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / "scaling.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert {m for m in imported if m.split(".")[0] == "zetalab"} == {"zetalab.zerotable"}


def test_scaling_runs_no_complex_eigensolve():
    # the compressed Dirac operator is i S with S real skew, read by a
    # values-only SVD: scaling's one eigensolve is pswf_basis's real
    # Legendre eigh
    calls = []
    for node in ast.parse((PACKAGE / "scaling.py").read_text()).body:
        for call in ast.walk(node):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr in ("eig", "eigh", "eigvals", "eigvalsh")):
                calls.append((getattr(node, "name", None), call.func.attr))
    assert calls == [("pswf_basis", "eigh")], f"eigensolves in scaling.py: {calls}"


def test_bench_digest_reads_an_mpc_exactly(monkeypatch):
    # scripts/bench_digest.py compares two trees bit for bit; an mpc's repr
    # prints the ambient 53 bits, so two values 2^-200 apart digested alike
    from mpmath import mp, mpc, mpf

    monkeypatch.chdir(ROOT)  # the script puts src/ and perfbench/ on sys.path from the cwd
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_digest", ROOT / "scripts" / "bench_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    with mp.workprec(256):
        a = mpc(1, mpf(1) / 3)
        b = a + mpc(0, mpf(2) ** -200)
    assert digest.canonical(a) == repr(a._mpc_).encode() != digest.canonical(b)
    assert digest.canonical(a.real) == repr(a.real._mpf_).encode()
