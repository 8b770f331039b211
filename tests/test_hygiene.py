"""Package hygiene: exact checks that survive `python -O`, one export list,
no dead imports and no private names taken across modules, gc, re and sys
imported by the command line alone, one integer rule at every public
boundary, formula routes that take only value types from the search
oracle, the names the benchmark traces still defined where it looks and
wrapped by its tracer, numpy still in the import its set-up probe times,
searches and builders that leave no cyclic garbage, a README quick
start that runs, and a CI workflow with no inline program."""

import ast
import dataclasses
import gc
import importlib
import importlib.util
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import enriques
from enriques import (
    D,
    NumClass,
    box_isotropics,
    component_rows,
    eight_lowest,
    enumerate_isotropics,
    phi_vector_oracle,
)
from enriques.verify import _iter_coefficient_tuples, _profiles_by_genus

PACKAGE_DIR = Path(enriques.__file__).resolve().parent
TESTS_DIR = Path(__file__).resolve().parent
BENCH_DIR = TESTS_DIR.parent / "bench"
WORKFLOW = TESTS_DIR.parent / ".github" / "workflows" / "tier1.yml"
# a heredoc, or a python command given `-c` or `-` (its program on stdin)
INLINE_PROGRAM = re.compile(r"<<|\bpython[\d.]*\s(.*\s)?-c?(\s|$)")

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
# phi_profiles_direct(g) is _profiles_by_genus(g, g)[g].  The listing's
# private records, their converter and the unchecked PhiVector build went
# when ModuliComponent became the one row type; the to_json methods when
# the CLI wrote its JSON from templates; iter_components when every
# format of the CLI listing wrote the plain rows of component_rows; and the
# plain profile walk moved to the tests, since roundtrip takes its profiles
# from the one search; enumerate_components_by_phi(g, K) when the one
# smallest-entry filter moved into component_rows(g, K), which
# enumerate_components(g, K) wraps.  parse_coefficients and
# format_coefficients, which read and write the --coeffs form, moved to
# the command line, which owns its integer grammar.  components_by_genus
# went when roundtrip read each genus's listing (component_rows), so that
# every row comes from the one route the listings write.
# Functions that only their own module called became private:
# unirationality_flag (now _unirational, of the listing's rows), and the
# profile search and closed-form tables that only verify's suites call
# (_profiles_by_genus, _golden_low_phi).  PhiVector.total and indexing had
# no caller outside the tests; sum(p.phis) and p.phis[i] read the same.
DROPPED = {
    "lattice": (
        "genus",
        "from_decomposition",
        "NumClass.of",
        "NumClass.from_json",
        "K",
        "ZERO",
        "PicClass",
        "NumClass.to_json",
    ),
    "oracle": (
        "_require_big",
        "compare_tuples",
        "pairing_tuple",
        "IsotropicSequence.values_against",
        "phi",
        "PhiVector._trusted",
        "PhiVector.total",
        "PhiVector.__getitem__",
    ),
    "fundamental": (
        "genus_of",
        "epsilon_normalize",
        "validate_simple_decomposition",
        "Decomposition",
        "simple_decomposition_error",
        "FundamentalCoefficients.total",
        "FundamentalCoefficients.to_json",
        "iter_coefficient_tuples",
        "parse_coefficients",
        "format_coefficients",
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
        "_Record",
        "_row",
        "_genus_records",
        "unirationality_flag",
        "iter_components",
        "enumerate_components_by_phi",
        "components_by_genus",
    ),
    "verify": (
        "DominationReport",
        "dominating_component_check",
        "phi_profiles_direct",
        "iter_phi_profiles",
        "phi_profiles_by_genus",
        "golden_low_phi",
    ),
}


def test_no_bare_assert_in_the_package():
    """Nor in the helper modules the tests import: pytest rewrites asserts
    only in test modules and conftest files, so under `python -O` a bare
    assert in the reference arithmetic, in the CI gates or in the
    benchmark's checkers would drop out of the checks that tier-1 runs
    through them."""
    helpers = [TESTS_DIR / name for name in ("reference.py", "ci_gates.py")]
    helpers += [BENCH_DIR / "workloads.py", BENCH_DIR / "arith.py"]
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")) + helpers:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert not found, f"assert vanishes under python -O: {found}"


def test_the_workflow_runs_no_inline_program():
    """Every CI gate is committed code that one local command runs
    (tests/ci_gates.py holds those that are not tier-1 tests): no step of
    the workflow feeds Python a program of its own, by `python -c`, by
    `python -` or by a heredoc."""
    found = [
        f"{WORKFLOW.name}:{n}: {line.strip()}"
        for n, line in enumerate(WORKFLOW.read_text().splitlines(), 1)
        if not line.lstrip().startswith("#") and INLINE_PROGRAM.search(line)
    ]
    assert not found, f"inline program in the workflow: {found}"


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


def test_only_the_cli_imports_gc_re_or_sys():
    """The command line owns the collector pause and the integer grammar
    of its arguments, and the library flips no interpreter-wide state:
    no other module of the package imports gc, re or sys."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [(node.module or "").split(".")[0]]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n in {"gc", "re", "sys"}]
    assert found and all(f.startswith("cli.py:") for f in found), found


def test_no_module_imports_a_private_name_of_another():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                found += [
                    f"{path.name}:{node.lineno} {a.name}"
                    for a in node.names
                    if a.name.startswith("_")
                ]
    assert not found, f"private names imported: {found}"


def test_searches_and_builders_leave_no_cyclic_garbage():
    """A CLI command runs with the cyclic collector paused, so what the
    package builds must be freed by reference counting alone.  A closure
    that calls itself is a reference cycle until its name is deleted, and
    it would hold what it built (a search layer's solutions, the profile
    sets) until the collector ran again.  Each run below, with the
    collector paused, leaves nothing for it to find."""
    L = NumClass((-2, -2, -2, 0, 0, 0, 0, 0, 0, 3))
    runs = {
        "phi_vector_oracle": lambda: phi_vector_oracle(L),
        "eight_lowest": lambda: eight_lowest(L),
        "enumerate_isotropics": lambda: enumerate_isotropics(L, 5),
        "box_isotropics": lambda: box_isotropics(3 * D, 12),
        "_profiles_by_genus": lambda: _profiles_by_genus(2, 30),
        "_iter_coefficient_tuples": lambda: list(_iter_coefficient_tuples(10)),
        "component_rows": lambda: list(component_rows(300)),
    }
    gc.collect()
    gc.disable()
    try:
        left = {}
        for name, run in runs.items():
            run()
            left[name] = gc.collect()
    finally:
        gc.enable()
    assert left == dict.fromkeys(runs, 0)


def test_readme_quick_start_runs(capsys):
    """The library quick start in README.md runs against the current API
    and prints the values its comments give."""
    readme = (TESTS_DIR.parent / "README.md").read_text()
    section = readme.split("## Quick start (library)", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["(6, 7, 7, 7, 7, 7, 7, 7, 7, 7)", "27"]
    assert lines[3].startswith("E_{5;2,3,3,3,3,3,3,3,3,4} (2, 3, 3, 3, 3, 3, 3, 3, 3, 4) 0")


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


def test_components_takes_nothing_from_the_oracle():
    """The enumeration must not call the search; `verify` certifies it."""
    taken = _taken_from_the_oracle("components")
    assert not taken, sorted(taken)


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
        if isinstance(node, ast.FunctionDef) and node.name == "_profiles_by_genus"
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


def _bench_module(name):
    """A module of bench/, loaded from its file under a name of its own."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_names_the_benchmark_traces_are_plain_definitions():
    """The benchmark in bench/ wraps and imports these by module and name;
    a rename or a move breaks its per-layer metrics.  The names it reads
    span times of must also pass the tracer's own wrap rule, or the traced
    run finds no span of that name and fails."""
    spans = _bench_module("spans")
    traced = list(_literal_assignment(BENCH_DIR / "run.py", "FUNCTIONS").values())
    traced += [f"{layer}.{name}" for layer, names in spans.EXTRA.items() for name in names]
    dotted = traced + [".".join(pair) for pair in spans.COUNTED.values()]
    for path in sorted(BENCH_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("enriques."):
                dotted += [f"{node.module[len('enriques.'):]}.{a.name}" for a in node.names]
    assert traced
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
        if name in traced:
            # a name listed in EXTRA is wrapped though private, so only the
            # rest of the rule applies to it
            attr = attrs[-1]
            extra = len(attrs) == 1 and attr in spans.EXTRA.get(module_name, ())
            assert spans._traced(attr.lstrip("_") if extra else attr, obj), name


def test_importing_the_cli_loads_numpy():
    """The benchmark's set-up probe reads numpy's cumulative import time off
    `python -X importtime -c "import enriques.cli"` and fails when numpy is
    not listed, so numpy leaves that import only with a change to the probe."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE_DIR.parent), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import enriques.cli"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    imported = [line.split("|")[-1].strip() for line in proc.stderr.splitlines()]
    assert "numpy" in imported


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
    module or a benchmark file imports it or reads it as <module>.<name>.
    A class or constant also counts as called when its own module reads it
    outside its own definition (a return type such as CheckResult); a
    function does not, since a helper called only by its own module needs
    no export.  Names are matched with their module, since a bare name such
    as phi is also a parameter elsewhere."""
    owner = {
        name: node.module
        for node in ast.parse((PACKAGE_DIR / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom) and node.module
        for a in node.names
        for name in (
            importlib.import_module(f"enriques.{node.module}").__all__
            if a.name == "*"
            else [a.name]
        )
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
        if inspect.isfunction(getattr(enriques, name)):
            uncalled.append(f"{module}.{name}")
            continue
        rest = [stmt for stmt in trees[module].body if not _defines(stmt, name)]
        if not any(
            isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)
            for stmt in rest
            for n in ast.walk(stmt)
        ):
            uncalled.append(f"{module}.{name}")
    assert not uncalled, f"exported but called only from the tests: {uncalled}"


# A valid call of every public function and value type that takes an
# integer parameter, by keyword, with every integer parameter given.  The
# value types are the exported dataclasses, which check their fields;
# ModuliComponent, a named tuple of the walk's rows, checks none.
VALID_CALLS = {
    "FundamentalCoefficients": {"a0": 4, "head": (7, 6, 5, 4, 3, 2, 1), "a9": 3, "a10": 2, "eps": 0},
    "NumClass": {"coords": (0,) * 9 + (1,)},
    "PhiVector": {"phis": (1, 1) + (2,) * 8},
    "box_isotropics": {"L": 3 * D, "cap": 12, "box": 2},
    "coefficients_by_genus": {"g_lo": 2, "g_hi": 3},
    "coefficients_from_phivector": {"p": (1, 1) + (2,) * 8, "eps": 0},
    "component_rows": {"g": 2, "phi1": 1},
    "enumerate_components": {"g": 2, "phi1": 1},
    "enumerate_isotropics": {"L": 3 * D, "cap": 12, "extra_layers": 0},
    "fundamental_presentation": {"L": 3 * D, "eps": 0},
    "generator_e": {"i": 1},
    "generator_pair": {"i": 1, "j": 2},
    "phi_vector_oracle": {"L": 3 * D, "max_sequences": 1},
    "rewrite_to_fundamental": {"coeffs": (1,) * 10, "a0": 1, "eps": 0},
    "run_suite": {"name": "lattice", "gmax": 2},
    "sequence_combination": {"coeffs": (1,) * 10, "a0": 1},
}

# order_key is a sort key that the package applies to tuples it built
# itself, in the sequence search's inner loop among others; it checks
# nothing.
NOT_A_BOUNDARY = {"order_key"}


def _integer_parameters(obj):
    """(name, is a sequence of integers) for each parameter of a signature
    annotated as an integer, optional or not, or as a sequence of them."""
    found = []
    for param in inspect.signature(obj).parameters.values():
        ann = param.annotation
        if not isinstance(ann, str) or not re.search(r"\bint\b", ann):
            continue
        found.append((param.name, ann not in ("int", "int | None")))
    return found


def test_every_public_boundary_takes_integers_by_one_rule():
    """A bool, a float or a string is no integer, wherever it enters: each
    of True, 12.5 and "3" in place of an integer argument, or of one entry
    of an integer sequence, raises ValueError."""
    boundaries = {
        name: _integer_parameters(obj)
        for name in enriques.__all__
        if name not in NOT_A_BOUNDARY
        for obj in [getattr(enriques, name)]
        if inspect.isfunction(obj) or inspect.isclass(obj) and dataclasses.is_dataclass(obj)
    }
    boundaries = {name: params for name, params in boundaries.items() if params}
    assert sorted(boundaries) == sorted(VALID_CALLS)
    missed = []
    for name, params in boundaries.items():
        call = getattr(enriques, name)
        valid = VALID_CALLS[name]
        assert {p for p, _ in params} <= set(valid), name
        call(**valid)
        for param, is_sequence in params:
            for bad in (True, 12.5, "3"):
                if is_sequence:
                    t = valid[param]
                    variants = [t[:i] + (bad,) + t[i + 1 :] for i in range(len(t))]
                else:
                    variants = [bad]
                for value in variants:
                    try:
                        call(**{**valid, param: value})
                        outcome = "returned"
                    except ValueError:
                        continue
                    except Exception as exc:
                        outcome = f"raised {type(exc).__name__}"
                    missed.append(f"{name}({param}={value!r}) {outcome}")
    assert not missed, f"not rejected by ValueError: {missed}"


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
