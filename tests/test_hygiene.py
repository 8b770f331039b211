"""Package hygiene: exact checks that survive `python -O`, one export list,
no dead imports, and a formula route that takes only value types from the
search oracle."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import enriques
from enriques.fundamental import Decomposition
from enriques.lattice import NumClass

PACKAGE_DIR = Path(enriques.__file__).resolve().parent

# Names dropped from the API in favour of one surviving function each:
# PhiVector.genus, order_key, pair over standard_sequence(),
# rewrite_to_fundamental and simple_decomposition_error.
DROPPED = {
    "lattice": ("genus",),
    "oracle": ("compare_tuples", "pairing_tuple"),
    "fundamental": ("genus_of", "epsilon_normalize", "validate_simple_decomposition"),
}


def test_no_bare_assert_in_the_package():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert not found, f"assert vanishes under python -O: {found}"


def test_no_unused_import_in_the_package():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
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
    assert not found, f"imported but never used: {found}"


def test_fundamental_takes_only_value_types_from_the_oracle():
    """The closed-form route must not call the search that certifies it."""
    path = PACKAGE_DIR / "fundamental.py"
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
    assert taken <= {"IsotropicSequence", "PhiVector"}, sorted(taken)


def test_submodule_exports_are_reexported():
    for info in pkgutil.iter_modules([str(PACKAGE_DIR)]):
        module = importlib.import_module(f"enriques.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert name in enriques.__all__, f"{info.name}.{name}"
            assert getattr(enriques, name) is getattr(module, name), name
    assert len(set(enriques.__all__)) == len(enriques.__all__)
    for name in enriques.__all__:
        assert hasattr(enriques, name), name


def test_dropped_names_are_gone():
    for module_name, names in DROPPED.items():
        module = importlib.import_module(f"enriques.{module_name}")
        for name in names:
            assert not hasattr(module, name), f"{module_name}.{name}"
            assert name not in enriques.__all__ and not hasattr(enriques, name), name
    assert not hasattr(NumClass, "of")
    assert not hasattr(Decomposition, "num")


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
