"""Package hygiene: exact checks that survive `python -O`, one export list,
no dead imports, formula routes that take only value types from the search
oracle, and the names the benchmark traces still defined where it looks."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import enriques

PACKAGE_DIR = Path(enriques.__file__).resolve().parent
TESTS_DIR = Path(__file__).resolve().parent
BENCH_DIR = TESTS_DIR.parent / "bench"

# Names dropped from the API, dotted below their module.  Most gave way to
# one surviving function each: PhiVector.genus, sequence_combination,
# require_big, order_key, pair over standard_sequence() or a sequence's
# members, rewrite_to_fundamental, and component_of(c).name for
# component_name.  PicClass went because its torsion bit is stored on
# FundamentalCoefficients alone.  The rest had no caller outside the
# tests: the JSON readers, the simple-decomposition validator, the
# numerical-component layer, whose double-cover count held by construction,
# the component row's dict, which the CLI's row writer replaced, the report
# types that restated the dominating and bounds suites' checks, and the
# helpers that only tests called: phi is eight_lowest(L)[0], and
# phi_profiles_direct(g) is phi_profiles_by_genus(g, g)[g].
DROPPED = {
    "lattice": (
        "genus",
        "from_decomposition",
        "NumClass.of",
        "NumClass.from_json",
        "K",
        "ZERO",
        "PicClass",
    ),
    "oracle": (
        "_require_big",
        "compare_tuples",
        "pairing_tuple",
        "IsotropicSequence.values_against",
        "phi",
    ),
    "fundamental": (
        "genus_of",
        "epsilon_normalize",
        "validate_simple_decomposition",
        "Decomposition",
        "simple_decomposition_error",
        "FundamentalCoefficients.total",
    ),
    "components": (
        "component_name",
        "ModuliComponent.to_json",
        "numerical_name",
        "NumericalComponent",
        "RhoSummary",
        "numerical_components",
        "rho_fiber_structure",
        "BoundsReport",
        "classical_bounds_audit",
    ),
    "verify": (
        "DominationReport",
        "dominating_component_check",
        "phi_profiles_direct",
    ),
}


def test_no_bare_assert_in_the_package():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert not found, f"assert vanishes under python -O: {found}"


def _unused_imports(paths):
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n not in used]
    return found


def test_no_unused_import_in_the_package():
    paths = [p for p in sorted(PACKAGE_DIR.glob("*.py")) if p.name != "__init__.py"]
    found = _unused_imports(paths)
    assert not found, f"imported but never used: {found}"


def test_no_unused_import_in_the_tests():
    found = _unused_imports(sorted(TESTS_DIR.glob("*.py")))
    assert not found, f"imported but never used: {found}"


def _taken_from_the_oracle(module_name):
    path = PACKAGE_DIR / f"{module_name}.py"
    taken = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            sources = [f"{node.module or ''}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            sources = [a.name for a in node.names]
        else:
            continue
        for parts in (src.split(".") for src in sources):
            if "oracle" in parts:
                taken.add(".".join(parts[parts.index("oracle") + 1 :]) or "the module")
    return taken


def test_fundamental_takes_only_value_types_from_the_oracle():
    """The closed-form route must not call the search that certifies it."""
    taken = _taken_from_the_oracle("fundamental")
    assert taken <= {"IsotropicSequence", "PhiVector"}, sorted(taken)


def test_components_takes_only_the_profile_type_and_order_from_the_oracle():
    """The enumeration must not call the search; `verify` certifies it."""
    taken = _taken_from_the_oracle("components")
    assert taken <= {"PhiVector", "order_key"}, sorted(taken)


def test_profile_search_takes_nothing_from_components():
    """The quadratic profile search is the second route to the component
    list, so it must not lean on the coefficient walk it checks."""
    tree = ast.parse((PACKAGE_DIR / "verify.py").read_text())
    from_components = {
        a.asname or a.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "components"
        for a in node.names
    }
    assert from_components
    search = next(
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "phi_profiles_by_genus"
    )
    used = {n.id for n in ast.walk(search) if isinstance(n, ast.Name)}
    assert not used & from_components, sorted(used & from_components)


def _literal_assignment(path, name):
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name} assigns no {name}")


def test_names_the_benchmark_traces_are_plain_definitions():
    """The benchmark in bench/ wraps and imports these by module and name;
    a rename or a move breaks its per-layer metrics."""
    run, spans = BENCH_DIR / "run.py", BENCH_DIR / "spans.py"
    dotted = list(_literal_assignment(run, "FUNCTIONS").values())
    dotted += [
        f"{layer}.{name}"
        for layer, names in _literal_assignment(spans, "EXTRA").items()
        for name in names
    ]
    dotted += [".".join(pair) for pair in _literal_assignment(spans, "COUNTED").values()]
    for path in sorted(BENCH_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("enriques."):
                dotted += [f"{node.module[len('enriques.'):]}.{a.name}" for a in node.names]
    assert dotted
    for name in dotted:
        module_name, *attrs = name.split(".")
        module = importlib.import_module(f"enriques.{module_name}")
        obj = module
        for attr in attrs:
            assert attr in vars(obj), name
            obj = vars(obj)[attr]
        assert inspect.isfunction(obj) or inspect.isclass(obj), name
        assert obj.__module__ == module.__name__, name
        assert obj.__qualname__ == ".".join(attrs), name


def test_submodule_exports_are_reexported():
    for info in pkgutil.iter_modules([str(PACKAGE_DIR)]):
        module = importlib.import_module(f"enriques.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert name in enriques.__all__, f"{info.name}.{name}"
            assert getattr(enriques, name) is getattr(module, name), name
    assert len(set(enriques.__all__)) == len(enriques.__all__)
    for name in enriques.__all__:
        assert hasattr(enriques, name), name


def _dotted(node):
    """'a.b.c' for a chain of attribute reads on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _defines(stmt, name):
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return stmt.name == name
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


def test_every_export_has_a_caller_outside_the_tests():
    """An export is called from outside the tests when another package
    module or a benchmark file imports it or reads it as <module>.<name>,
    or when its own module reads it outside its own definition.  Names are
    matched with their module, since a bare name such as phi is also a
    parameter elsewhere."""
    owner = {
        a.name: node.module
        for node in ast.parse((PACKAGE_DIR / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    }
    assert set(owner) == set(enriques.__all__)
    called = set()  # (module, name); module None for `from enriques import name`
    others = [p for p in sorted(PACKAGE_DIR.glob("*.py")) if p.name != "__init__.py"]
    for path in others + sorted(BENCH_DIR.glob("*.py")):
        here = path.stem if path.parent == PACKAGE_DIR else None
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                module = (node.module or "").removeprefix("enriques").lstrip(".") or None
                called.update((module, a.name) for a in node.names if module != here)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read_on = _dotted(node.value)
                if read_on and read_on.split(".")[-1] != here:
                    called.add((read_on.split(".")[-1], node.attr))
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in others}
    uncalled = []
    for name, module in sorted(owner.items()):
        if (module, name) in called or (None, name) in called:
            continue
        rest = [stmt for stmt in trees[module].body if not _defines(stmt, name)]
        if not any(
            isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)
            for stmt in rest
            for n in ast.walk(stmt)
        ):
            uncalled.append(f"{module}.{name}")
    assert not uncalled, f"exported but called only from the tests: {uncalled}"


def test_dropped_names_are_gone():
    for module_name, names in DROPPED.items():
        module = importlib.import_module(f"enriques.{module_name}")
        for name in names:
            *owners, attr = name.split(".")
            obj = module
            for owner in owners:
                obj = getattr(obj, owner)
            assert not hasattr(obj, attr), f"{module_name}.{name}"
            assert name not in enriques.__all__ and not hasattr(enriques, name), name


def test_rewrite_identity_checks_run_under_optimize():
    """A wrong reconstruction must still raise when asserts are stripped."""
    child = textwrap.dedent(
        """
        import sys
        import enriques.fundamental as fundamental
        from enriques.lattice import D

        if not sys.flags.optimize:
            sys.exit("child is not running under -O")
        fundamental.class_from_presentation = lambda c, seq: D
        try:
            fundamental.rewrite_to_fundamental([1] * 10)
        except AssertionError as exc:
            print(exc)
            sys.exit(0)
        sys.exit("rewrite_to_fundamental accepted a wrong reconstruction")
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE_DIR.parent), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", child],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "failed to reconstruct the class" in proc.stdout


def run_with_and_without_optimize(argv):
    """The CLI run twice in child interpreters, plain and under -O."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE_DIR.parent), env.get("PYTHONPATH")) if p
    )
    return [
        subprocess.run(
            [sys.executable, *flags, "-m", "enriques.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        for flags in ([], ["-O"])
    ]


@pytest.mark.parametrize(
    "argv",
    [["--suite", "dominating"], ["--suite", "roundtrip", "--gmax", "20"]],
    ids=["dominating", "roundtrip"],
)
def test_suites_give_the_same_report_under_optimize(argv):
    """Every identity check in a suite is a plain comparison, so stripping
    asserts with -O must change neither the report nor the exit code."""
    runs = run_with_and_without_optimize(["verify", *argv])
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    plain, optimized = runs
    assert '"passed": true' in plain.stdout
    assert optimized.stdout == plain.stdout


def test_phivector_gives_the_same_output_under_optimize():
    """The reduction's identity checks raise explicitly, so -O changes
    neither the phivector report nor its exit code."""
    plain, optimized = run_with_and_without_optimize(
        ["phivector", "--class=2,0,1,0,2,2,-2,1,2,-1", "--format", "json"]
    )
    assert plain.returncode == optimized.returncode == 0, plain.stderr + optimized.stderr
    assert '"genus": 3' in plain.stdout
    assert optimized.stdout == plain.stdout
