"""Package hygiene: exact checks that survive `python -O`, one export list."""

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
