"""Command line behavior: formats, exit codes, determinism."""

import csv
import gc
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import enriques
import enriques.cli
import enriques.fundamental
import enriques.verify
from enriques.cli import format_coefficients, main, parse_coefficients
from enriques.components import component_of, enumerate_components
from enriques.fundamental import fundamental_presentation, quadratic_value
from enriques.lattice import NumClass
from enriques.oracle import PhiVector, phi_vector_oracle
from enriques.verify import CheckResult, _iter_coefficient_tuples

SRC_DIR = Path(enriques.__file__).resolve().parents[1]
PYPROJECT = SRC_DIR.parent / "pyproject.toml"
DIGESTS = json.loads((SRC_DIR.parent / "bench" / "digests.json").read_text())
README = SRC_DIR.parent / "README.md"


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_components_markdown(capsys):
    rc, out = run_cli(capsys, "components", "--genus", "5", "--format", "markdown")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "# genus 5: 4 component(s)"
    assert lines[1].startswith("| component | profile |")
    assert any("E^-_{5;2,2,4,4,4,4,4,4,4,4}" in l for l in lines)


@pytest.mark.parametrize("genus", DIGESTS)
def test_components_json_bytes_match_the_recorded_digest(capsys, genus):
    """Every genus whose `components --format json` SHA-256 the benchmark
    recorded in bench/digests.json, which is only read; an empty file
    leaves no case, and a run that skips one fails."""
    rc, out = run_cli(capsys, "components", "--genus", genus, "--format", "json")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[genus]


@pytest.mark.parametrize(
    ("name", "blocks"),
    [("PhivectorClasses", None), ("ComponentsLarge", 1)],
    ids=["phivector-classes", "components-large"],
)
def test_benchmark_operations_pass_the_workloads_own_check(
    capsys, workloads, benchmark_ops, name, blocks
):
    """Seed 1's CLI operations of a workload exit 0 with the output that the
    workload's own check accepts; it reads each output with bench/arith.py,
    which shares no code with the package.  phivector-classes runs the
    blocks of a run as long as BENCHMARK.json's, the ROADMAP class among
    them; components-large one block, ten genera in [250, 1000), whose
    bytes it also compares with the recorded digest where there is one."""
    workload = getattr(workloads, name)()
    ops = benchmark_ops(workload, 1) if blocks is None else workload.make_ops(1, blocks)
    assert ops
    for op in ops:
        code = main(list(op.args))
        out, err = capsys.readouterr()
        assert code == 0, (op.args, err)
        assert workload.check(op, out) is None, op.args


def _indent_encoder_bytes(genus, rows):
    """What `json.dumps(..., indent=2, sort_keys=True)` and `print` give
    for the components payload, built here from each row's fields."""
    payload = {
        "genus": genus,
        "count": len(rows),
        "components": [
            {
                "name": m.name,
                "genus": m.genus,
                "phi": list(m.phi),
                "eps": m.eps,
                "two_divisible": m.two_divisible,
                "unirational": m.unirational,
                "coefficients": {
                    "a0": m.coefficients.a0,
                    "head": list(m.coefficients.head),
                    "a9": m.coefficients.a9,
                    "a10": m.coefficients.a10,
                    "eps": m.coefficients.eps,
                },
            }
            for m in rows
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_components_json_bytes_match_the_indent_encoder(capsys):
    for g in range(2, 81):
        rows = enumerate_components(g)
        rc, out = run_cli(capsys, "components", "--genus", str(g), "--format", "json")
        assert rc == 0
        assert out == _indent_encoder_bytes(g, rows), g


@pytest.mark.parametrize(
    "genus, phi, eps_one_rows",
    [(5, 2, 1), (6, 3, 0), (17, 4, 2), (57, 8, 2), (57, 1, 0), (5, 9, 0)],
)
def test_components_phi_filter_json_bytes_match_the_indent_encoder(
    capsys, genus, phi, eps_one_rows
):
    rows = [m for m in enumerate_components(genus) if m.phi[0] == phi]
    assert sum(m.eps for m in rows) == eps_one_rows
    rc, out = run_cli(
        capsys, "components", "--genus", str(genus), "--phi", str(phi), "--format", "json"
    )
    assert rc == 0
    assert out == _indent_encoder_bytes(genus, rows)
    if not rows:
        assert '"components": [],' in out


def _reference_listing(fmt, genus, rows):
    """`components` csv or markdown for these rows, written here from each
    public row's fields."""
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["name", "genus", "phi", "eps", "two_divisible", "coefficients", "unirational"])
        for m in rows:
            w.writerow(
                [
                    m.name,
                    m.genus,
                    ",".join(str(v) for v in m.phi),
                    m.eps,
                    int(m.two_divisible),
                    format_coefficients(m.coefficients),
                    int(m.unirational),
                ]
            )
        return buf.getvalue()
    lines = [
        f"# genus {genus}: {len(rows)} component(s)",
        "| component | profile | eps | 2-divisible | coefficients | unirational |",
        "|---|---|---|---|---|---|",
    ]
    for m in rows:
        lines.append(
            f"| {m.name} | ({','.join(str(v) for v in m.phi)}) | {m.eps} "
            f"| {'yes' if m.two_divisible else 'no'} "
            f"| {format_coefficients(m.coefficients)} "
            f"| {'yes' if m.unirational else 'no'} |"
        )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "markdown"])
def test_components_csv_and_markdown_bytes_match_the_public_rows(capsys, fmt):
    """The listing's bytes must be those written here from the fields of
    the public `enumerate_components` rows, and `--phi` writes its rows
    through the same writer.  At genus 405, whose even profiles split,
    `--phi 6` keeps two eps = 1 rows; genus 934 has no eps = 1 row (an
    even profile needs g = 1 mod 4), so its case keeps the 14 rows of
    `--phi 10`."""
    for g in (*range(2, 121), 405, 934):
        rc, out = run_cli(capsys, "components", "--genus", str(g), "--format", fmt)
        assert rc == 0
        assert out == _reference_listing(fmt, g, enumerate_components(g)), g
    for g, phi in ((5, 2), (17, 4), (57, 8), (5, 9), (405, 6), (934, 10)):
        rows = enumerate_components(g, phi)
        rc, out = run_cli(
            capsys, "components", "--genus", str(g), "--phi", str(phi), "--format", fmt
        )
        assert rc == 0
        assert out == _reference_listing(fmt, g, rows), (g, phi)


def test_components_json(capsys):
    rc, out = run_cli(capsys, "components", "--genus", "3", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["genus"] == 3 and data["count"] == 2
    first = data["components"][0]
    assert set(first) == {
        "name",
        "genus",
        "phi",
        "eps",
        "two_divisible",
        "coefficients",
        "unirational",
    }


def test_components_csv_quotes_commas(capsys):
    rc, out = run_cli(capsys, "components", "--genus", "2", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "name,genus,phi,eps,two_divisible,coefficients,unirational"
    assert '"1,1,2,2,2,2,2,2,2,2"' in lines[1]


def test_components_phi_filter(capsys):
    rc, out = run_cli(
        capsys, "components", "--genus", "6", "--phi", "3", "--format", "json"
    )
    assert rc == 0
    names = [m["name"] for m in json.loads(out)["components"]]
    assert "E_{6;3,3,3,3,3,3,3,3,3,3}" in names


def test_phivector_from_coefficients(capsys):
    rc, out = run_cli(
        capsys,
        "phivector",
        "--coeffs",
        "4;7,6,5,4,3,2,1;3,2",
        "--format",
        "json",
    )
    assert rc == 0
    data = json.loads(out)
    assert data["phi"] == list(range(30, 40))
    assert data["genus"] == 621
    assert data["component"].startswith("E_{621;")
    assert data["unirational"] is False


def test_phivector_from_class_with_oracle(capsys):
    rc, out = run_cli(
        capsys,
        "phivector",
        "--class",
        "1,1,0,0,0,0,0,0,0,0",
        "--oracle",
        "--format",
        "json",
    )
    assert rc == 0
    data = json.loads(out)
    assert data["phi"] == [1, 1, 2, 2, 2, 2, 2, 2, 2, 2]
    assert data["oracle_agrees"] is True
    assert data["coefficients"]["head"] == [1, 1, 0, 0, 0, 0, 0]


def test_phivector_eps_needs_even_class(capsys):
    rc, out = run_cli(
        capsys,
        "phivector",
        "--class",
        "2,2,0,0,0,0,0,0,0,0",
        "--eps",
        "1",
        "--format",
        "json",
    )
    assert rc == 0
    data = json.loads(out)
    assert data["two_divisible"] is True and data["eps"] == 1
    assert data["component"].startswith("E^-_{5;")


PHIVECTOR_CASES = [
    ["--class=-1,-1,-2,0,0,0,0,0,0,2"],
    ["--class=5,6,4,3,5,3,3,3,3,-6"],
    ["--class=40,12,11,10,9,8,7,6,5,4"],
    ["--class=10,12,8,6,10,6,6,6,6,-12", "--eps", "1"],
    ["--class=5,6,4,3,5,3,3,3,3,-6", "--eps", "1"],
    ["--coeffs", "4;7,6,5,4,3,2,1;3,2"],
    ["--coeffs", "2;2,2,2,0,0,0,0;2,0", "--eps", "1"],
    ["--class=2,1,1,1,1,1,1,1,1,4", "--oracle"],
    ["--class=10,12,8,6,10,6,6,6,6,-12", "--eps", "1", "--oracle"],
    ["--coeffs", "4;7,6,5,4,3,2,1;3,2", "--oracle"],
]


def _phivector_fields(argv, oracle=phi_vector_oracle):
    """(class, coefficients, row, oracle profile or None) for these
    `phivector` arguments, read off the public API."""
    eps = int(argv[argv.index("--eps") + 1]) if "--eps" in argv else 0
    if argv[0] == "--coeffs":
        fc = parse_coefficients(argv[1], eps=eps)
        num = fc.divisor_class()
    else:
        num = NumClass(tuple(int(v) for v in argv[0].partition("=")[2].split(",")))
        fc, _ = fundamental_presentation(num, eps)
    profile = oracle(num, max_sequences=1)[0] if "--oracle" in argv else None
    return num, fc, component_of(fc), profile


def _reference_phivector(fmt, num, fc, m, profile):
    """`phivector` output in this format, written here from the fields;
    json through the indent encoder."""
    agrees = None if profile is None else profile.phis == m.phi
    if fmt == "json":
        payload = {
            "class": list(num.coords),
            "phi": list(m.phi),
            "genus": m.genus,
            "coefficients": {
                "a0": fc.a0,
                "head": list(fc.head),
                "a9": fc.a9,
                "a10": fc.a10,
                "eps": fc.eps,
            },
            "eps": m.eps,
            "two_divisible": m.two_divisible,
            "component": m.name,
            "unirational": m.unirational,
        }
        if profile is not None:
            payload["oracle_phi"] = list(profile.phis)
            payload["oracle_agrees"] = agrees
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    yes_no = {True: "yes", False: "no"}
    rows = [
        ("class", ",".join(str(v) for v in num.coords)),
        ("phi", ",".join(str(v) for v in m.phi)),
        ("genus", str(m.genus)),
        ("coefficients", format_coefficients(fc)),
        ("eps", str(m.eps)),
        ("two_divisible", yes_no[m.two_divisible]),
        ("component", m.name),
        ("unirational", yes_no[m.unirational]),
    ]
    if profile is not None:
        rows.append(("oracle_phi", ",".join(str(v) for v in profile.phis)))
        rows.append(("oracle_agrees", yes_no[agrees]))
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([("field", "value"), *rows])
        return buf.getvalue()
    # the longest labels, two_divisible and oracle_agrees, have 13 letters
    return "".join(f"{k:<13}  {v}\n" for k, v in rows)


@pytest.mark.parametrize("argv", PHIVECTOR_CASES)
def test_phivector_json_bytes_match_the_indent_encoder(capsys, argv):
    """The payload is written from a template that `json.dumps` laid out
    at import; its bytes must be what the indent encoder gives the same
    fields, read off the public API."""
    rc, out = run_cli(capsys, "phivector", *argv, "--format", "json")
    assert rc == 0
    assert out == _reference_phivector("json", *_phivector_fields(argv))


@pytest.mark.parametrize("fmt", ["csv", "markdown"])
@pytest.mark.parametrize("argv", PHIVECTOR_CASES)
def test_phivector_csv_and_markdown_bytes_match_the_public_fields(capsys, argv, fmt):
    rc, out = run_cli(capsys, "phivector", *argv, "--format", fmt)
    assert rc == 0
    assert out == _reference_phivector(fmt, *_phivector_fields(argv))


@pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
def test_phivector_oracle_disagreement_exits_one(monkeypatch, capsys, fmt):
    """An oracle profile other than the closed form's is reported, with
    `oracle_agrees` false, and the command exits 1."""

    def other_profile(num, max_sequences=None):
        return PhiVector((1, 4) + (5,) * 8), None

    monkeypatch.setattr(enriques.cli, "phi_vector_oracle", other_profile)
    argv = ["--class=0,0,0,0,0,0,0,0,0,1", "--oracle"]
    fields = _phivector_fields(argv, oracle=other_profile)
    assert fields[3].phis != fields[2].phi
    rc, out = run_cli(capsys, "phivector", *argv, "--format", fmt)
    assert rc == 1
    assert out == _reference_phivector(fmt, *fields)
    verdict = {
        "json": '  "oracle_agrees": false,',
        "csv": "oracle_agrees,no",
        "markdown": "oracle_agrees  no",
    }[fmt]
    assert verdict in out.splitlines()


def test_verify_markdown_and_exit(capsys):
    rc, out = run_cli(capsys, "verify", "--suite", "lattice", "--format", "markdown")
    assert rc == 0
    assert out.count("PASS") >= 8
    assert "FAIL" not in out
    assert "\x1b[" not in out  # piped: never colored


@pytest.mark.parametrize("no_color", [None, "1"])
def test_verify_on_a_terminal_colors_unless_no_color(capsys, monkeypatch, no_color):
    """On a terminal, verify defaults to markdown and colors PASS green;
    NO_COLOR turns the color off."""
    monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
    if no_color is None:
        monkeypatch.delenv("NO_COLOR", raising=False)
    else:
        monkeypatch.setenv("NO_COLOR", no_color)
    rc, out = run_cli(capsys, "verify", "--suite", "lattice")
    assert rc == 0
    lines = out.splitlines()
    assert lines[-1].endswith("check(s), 0 failed")
    if no_color is None:
        assert all(line.startswith("\x1b[32mPASS\x1b[0m  ") for line in lines[:-1])
    else:
        assert "\x1b[" not in out
        assert all(line.startswith("PASS  ") for line in lines[:-1])


def test_verify_json(capsys):
    rc, out = run_cli(capsys, "verify", "--suite", "bounds", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["suite"] == "bounds" and data["passed"] is True
    assert all(c["passed"] for c in data["checks"])


def test_verify_bounds_counts_every_component_of_the_window(capsys):
    """The bounds sweep walks g = 2..100 as one window; its count must be
    that of the genera enumerated one at a time."""
    rc, out = run_cli(capsys, "verify", "--suite", "bounds", "--gmax", "100", "--format", "json")
    assert rc == 0
    n = sum(len(enumerate_components(g)) for g in range(2, 101))
    first = json.loads(out)["checks"][0]
    assert first["name"] == (
        "no component with g <= 100 breaks the square bound or enters the gap"
    )
    assert first["passed"] is True
    assert first["detail"] == f"{n} components"


@pytest.mark.parametrize("suite, checks", [("roundtrip", 7), ("paper-tables", 6), ("bounds", 3)])
def test_verify_sweeps_pass_on_the_one_genus_window(capsys, suite, checks):
    """At `--gmax 2` each sweep's window holds genus 2 alone, so
    `coefficients_by_genus(2, 2)` takes its single-genus path, which
    flattens the profile-total strata; every check still runs and passes,
    and bounds counts the one component."""
    rc, out = run_cli(capsys, "verify", "--suite", suite, "--gmax", "2", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["suite"] == suite and data["passed"] is True
    assert len(data["checks"]) == checks
    assert all(c["passed"] for c in data["checks"])
    if suite == "bounds":
        assert len(enumerate_components(2)) == 1
        assert data["checks"][0]["detail"] == "1 components"


# Each integer flag after a command line that is valid up to it, crossed
# with values that are not integers in the ASCII grammar or that int() will
# not convert (4301 digits), and each lower bound with the value below it.
INTEGER_FLAGS = [
    ["components", "--genus"],
    ["verify", "--suite", "bounds", "--gmax"],
    ["components", "--genus", "5", "--phi"],
    ["phivector", "--class", "1,1,1,1,1,1,1,1,1,1", "--eps"],
]
BAD_INTEGER_FLAGS = [
    *(
        [*prefix, value]
        for prefix in INTEGER_FLAGS
        for value in ("1_0", " 3", "\uff13", "+", "", "1" * 4301)
    ),
    ["components", "--genus", "1"],
    ["verify", "--suite", "bounds", "--gmax", "1"],
    ["components", "--genus", "5", "--phi", "0"],
]
USAGE_ERRORS = [
    ["components", "--genus", "x"],
    ["components"],
    ["phivector"],
    ["phivector", "--class", "1,2,3"],
    ["phivector", "--coeffs", "1;2,3"],
    ["phivector", "--class", "1,1,0,0,0,0,0,0,0,0", "--coeffs", "0;1,1,0,0,0,0,0;0,0"],
    ["phivector", "--coeffs", "1;0,0,0,0,0,0,0;1,0", "--eps", "1"],
    ["verify", "--suite", "nope"],
    ["verify"],
    # integers are ASCII digits with an optional sign, nothing else, and a
    # class joins its ten with commas only
    ["phivector", "--class", "1,2,3,4,5,6,7,8,9,1_0"],
    ["phivector", "--class", " 3,1,1,1,1,1,1,1,1,1"],
    ["phivector", "--class", "3,1,1,1,1,1,1,1,1,\uff11"],
    ["phivector", "--class", "1;2,3,4,5,6,7,8,9,10"],
    ["phivector", "--coeffs", "4;7,6,5,4,3,2,1;3,2_0"],
    ["phivector", "--coeffs", "4;7,6,5,4,3,2,1;3, 2"],
    ["phivector", "--coeffs", "\uff14;7,6,5,4,3,2,1;3,2"],
    ["phivector", "--class", "1,1,1,1,1,1,1,1,1,1", "--eps", " 1"],
    ["phivector", "--class", "1,1,1,1,1,1,1,1,1,1", "--eps", "\uff11"],
    # more digits than int() converts, inside a class and a presentation
    ["phivector", "--class", "1" * 4301 + ",1,1,1,1,1,1,1,1,1"],
    ["phivector", "--coeffs", "1" * 4301 + ";1,1,0,0,0,0,0;0,0"],
    *BAD_INTEGER_FLAGS,
]


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_usage_errors_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    # argparse's and int()'s own wordings never reach the user
    for wording in ("invalid literal", "invalid parse value", "set_int_max_str_digits"):
        assert wording not in err, err
    # a value of more digits than int() converts is reported with the limit
    if any(len(arg) > 4300 for arg in argv):
        assert f"of at most {sys.get_int_max_str_digits()} digits" in err, err
    if argv[0] == "phivector":
        # value errors found after parsing report through the subparser too
        assert err.startswith("usage: enriques phivector "), err
        assert "\nenriques phivector: error: " in err, err
    # a bad value of an integer flag or a class input, given last, is
    # reported under that flag
    if argv in BAD_INTEGER_FLAGS or argv[-2:-1] in (["--class"], ["--coeffs"]):
        last = err.splitlines()[-1]
        assert last.startswith(f"enriques {argv[0]}: error: argument {argv[-2]}: "), last


NOT_BIG = "class is not big: the self-intersection is not positive"
EXIT_THREE = {
    ("phivector", "--class", "0,0,0,0,0,0,0,0,0,0"): "class is not positive: it is zero",
    ("phivector", "--class", "0,0,0,0,0,0,0,0,0,-1"): (
        "class is not positive: it pairs nonpositively with d"
    ),
    ("phivector", "--coeffs", "0;1,0,0,0,0,0,0;0,0"): NOT_BIG,
    ("phivector", "--class", "1,0,0,0,0,0,0,0,0,0"): NOT_BIG,
    ("phivector", "--class", "1,-1,0,0,0,0,0,0,0,0"): NOT_BIG,
    ("phivector", "--coeffs", "0;0,0,0,0,0,0,0;0,0"): "class is not positive: it is zero",
}


@pytest.mark.parametrize("argv", [list(argv) for argv in EXIT_THREE])
def test_domain_errors_exit_three(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    assert capsys.readouterr().err == EXIT_THREE[tuple(argv)] + "\n"


def test_only_the_big_class_check_exits_three(monkeypatch):
    """A ValueError from past the big-class check is a fault, not exit 3."""

    def broken(L, eps=0):
        raise ValueError("presentation failed")

    monkeypatch.setattr(enriques.cli, "fundamental_presentation", broken)
    with pytest.raises(ValueError, match="presentation failed"):
        main(["phivector", "--class", "1,1,0,0,0,0,0,0,0,0"])


def test_phivector_class_checks_bigness_once(monkeypatch, capsys):
    """Both `phivector` inputs leave the big-class check to the reduction:
    one `require_big` call per run."""
    calls = []
    check = enriques.fundamental.require_big

    def counting(a):
        calls.append(a)
        return check(a)

    for module in (enriques.cli, enriques.fundamental):
        if hasattr(module, "require_big"):
            monkeypatch.setattr(module, "require_big", counting)
    inputs = [
        ("--class", "1,1,0,0,0,0,0,0,0,0", "1,0,0,0,0,0,0,0,0,0"),
        ("--coeffs", "0;1,1,0,0,0,0,0;0,0", "0;1,0,0,0,0,0,0;0,0"),
    ]
    for source, big, small in inputs:
        calls.clear()
        assert main(["phivector", source, big, "--format", "json"]) == 0
        assert len(calls) == 1, source
        with pytest.raises(SystemExit) as exc:
            main(["phivector", source, small])
        assert exc.value.code == 3 and len(calls) == 2, source
        assert capsys.readouterr().err == NOT_BIG + "\n"


def test_phivector_coeffs_come_back_unchanged_through_the_reduction(capsys):
    """`--coeffs` takes the chamber reduction like `--class`; a fundamental
    presentation is unique, so every valid tuple of positive square comes
    back as given, with its eps, on eps 1 too where every entry is even."""
    n = 0
    for c in _iter_coefficient_tuples(6):
        if quadratic_value(c) < 1:
            continue
        text = format_coefficients(c)
        for eps in (0, 1) if c.all_even() else (0,):
            argv = ["phivector", "--coeffs", text, "--eps", str(eps), "--format", "json"]
            rc, out = run_cli(capsys, *argv)
            assert rc == 0, argv
            got = json.loads(out)["coefficients"]
            want = {"a0": c.a0, "head": list(c.head), "a9": c.a9, "a10": c.a10, "eps": eps}
            assert got == want, argv
            n += 1
    assert n == 61  # 55 tuples, 6 of them all even


def test_reused_parser_repeats_every_outcome(capsys):
    """The parser is built once per process; a second round of calls must
    match the first call of each kind byte for byte, exit code included."""
    kinds = [
        ["components", "--genus", "1"],
        ["phivector", "--coeffs", "1;2,3"],
        ["phivector", "--class", "1,0,0,0,0,0,0,0,0,0"],
        ["phivector", "--coeffs", "4;7,6,5,4,3,2,1;3,2", "--format", "json"],
        ["components", "--genus", "6", "--format", "json"],
        ["verify", "--suite", "bounds", "--gmax", "10", "--format", "json"],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return captured.out, captured.err, code

    enriques.cli.build_parser.cache_clear()
    first = [outcome(argv) for argv in kinds]
    assert [code for _, _, code in first] == [2, 2, 3, 0, 0, 0]
    assert all(err.startswith("usage: enriques") for _, err, _ in first[:2])
    assert first[2][1] == NOT_BIG + "\n"
    assert [outcome(argv) for argv in kinds] == first
    assert enriques.cli.build_parser() is enriques.cli.build_parser()


# Where a subcommand's parser alone could read argv otherwise than the
# top-level parser: arguments left over, help, an unknown or missing
# command, "--" first or after the options, an abbreviated option and a
# repeated one.
DISPATCH_EDGES = [
    ["phivector", "--class", "1,1,0,0,0,0,0,0,0,0", "extra", "--bogus"],
    ["-h"],
    ["phivector", "-h"],
    ["nope"],
    [],
    ["--", "components", "--genus", "5"],
    ["components", "--genus", "5", "--", "x"],
    ["components", "--gen", "5", "--format", "json"],
    ["components", "--genus", "5", "--genus", "6", "--format", "json"],
    ["phivector", "--c", "1,1,0,0,0,0,0,0,0,0"],
    ["verify", "--suite", "bounds", "--gmax", "3", "extra"],
]
VALID_RUNS = [
    ["components", "--genus", "12", "--format", "csv"],
    ["phivector", "--class=3,1,1,1,1,1,1,1,1,1", "--format", "json"],
    ["verify", "--suite", "bounds", "--gmax", "10", "--format", "json"],
]


def _reference_main(argv):
    """`main` as one pass of the top-level parser over argv."""
    args = enriques.cli.build_parser().parse_args(argv)
    run = {
        "components": enriques.cli.cmd_components,
        "phivector": enriques.cli.cmd_phivector,
        "verify": enriques.cli.cmd_verify,
    }
    return run[args.command](args)


@pytest.mark.parametrize(
    "argv", [*USAGE_ERRORS, *map(list, EXIT_THREE), *DISPATCH_EDGES, *VALID_RUNS]
)
def test_dispatch_matches_the_top_level_parser(argv, capsys, monkeypatch):
    """`main` hands argv after a subcommand name to that subcommand's
    parser; stdout, stderr and exit code stay those of the top-level
    parser's pass, also when argv is read from sys.argv."""

    def outcome(run, argv):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return captured.out, captured.err, code

    want = outcome(_reference_main, argv)
    assert outcome(main, argv) == want
    monkeypatch.setattr(sys, "argv", ["enriques", *argv])
    assert outcome(main, None) == want


def test_dispatch_takes_the_current_parser(monkeypatch, capsys):
    """After `build_parser.cache_clear()` a subcommand's arguments go, in
    one pass, to the subparser of the new parser."""
    old = enriques.cli.build_parser()
    enriques.cli.build_parser.cache_clear()
    new = enriques.cli.build_parser()
    assert new is not old
    seen = []
    for parser, label in ((old, "old"), (new, "new")):
        sub = parser.commands["components"]

        def spy(args, parse=sub.parse_known_args, label=label):
            seen.append((label, args))
            return parse(args)

        monkeypatch.setattr(sub, "parse_known_args", spy)
    assert main(["components", "--genus", "5", "--format", "json"]) == 0
    assert seen == [("new", ["--genus", "5", "--format", "json"])]
    assert json.loads(capsys.readouterr().out)["genus"] == 5


def test_identical_invocations_are_byte_identical(capsys):
    _, first = run_cli(capsys, "components", "--genus", "12", "--format", "json")
    _, second = run_cli(capsys, "components", "--genus", "12", "--format", "json")
    assert first == second


def _readme_transcripts():
    """(command, printed lines) for each `$ enriques ...` line in README.md's
    unlabeled code blocks; the output runs to the next `$` line or fence."""
    transcripts, fence, current = [], None, None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            fence = line[3:] if fence is None else None
            current = None
        elif fence == "" and line.startswith("$ "):
            current = (line[2:], [])
            transcripts.append(current)
        elif current is not None:
            current[1].append(line)
    return [(cmd, out) for cmd, out in transcripts if cmd.startswith("enriques ")]


def test_readme_cli_transcripts_match_the_output(capsys):
    """Each README transcript printed in full is what the CLI writes to a
    terminal; tests are not a tty, so a line that gives no format runs with
    --format markdown.  Abbreviated output ({ ... }) is skipped."""
    full = []
    for cmd, lines in _readme_transcripts():
        while lines and not lines[-1]:
            lines.pop()
        if not any("{ ..." in line for line in lines):
            full.append((cmd, lines))
    assert [cmd for cmd, _ in full] == [
        "enriques components --genus 5",
        'enriques phivector --class "0,0,0,0,0,0,0,0,0,1" --oracle',
        "enriques verify --suite lattice",
    ]
    for cmd, lines in full:
        argv = shlex.split(cmd)[1:]
        if "--format" not in argv:
            argv += ["--format", "markdown"]
        rc, out = run_cli(capsys, *argv)
        assert rc == 0, cmd
        assert out == "\n".join(lines) + "\n", cmd


def child_env():
    """Environment for a child interpreter that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p
    )
    return env


def script_target():
    """The `enriques` entry of `[project.scripts]` in pyproject.toml, read
    with tomllib, or on Python 3.10 (no tomllib) by a scan of that table's
    `key = "value"` lines."""
    if sys.version_info >= (3, 11):
        import tomllib

        with PYPROJECT.open("rb") as fh:
            return tomllib.load(fh)["project"]["scripts"].get("enriques")
    table = None
    for line in PYPROJECT.read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            table = line
        elif table == "[project.scripts]":
            key, sep, value = line.partition("=")
            if sep and key.strip() == "enriques":
                return value.strip().strip('"')
    return None


def run_console_script(*argv):
    """Run the `[project.scripts]` entry the way an installed script does.

    The target is read from pyproject.toml and must be `enriques.cli:main`.
    A child interpreter loads it through importlib.metadata and exits with
    `sys.exit(target())`, stdout piped. Its PYTHONPATH starts with the src/
    directory of the imported package, so it runs this checkout.
    """
    target = script_target()
    assert target == "enriques.cli:main"
    wrapper = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"entry = EntryPoint(name='enriques', value={target!r}, group='console_scripts')\n"
        "sys.exit(entry.load()())\n"
    )
    return subprocess.run(
        [sys.executable, "-c", wrapper, *argv],
        capture_output=True,
        text=True,
        env=child_env(),
    )


def test_console_script_defaults_to_json_when_piped():
    proc = run_console_script("components", "--genus", "5")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 4


def test_console_script_propagates_usage_exit():
    proc = run_console_script("components", "--genus", "1")
    assert proc.returncode == 2
    assert "usage:" in proc.stderr


def test_module_entry_matches_script():
    proc = subprocess.run(
        [sys.executable, "-m", "enriques.cli", "verify", "--suite", "bounds", "--gmax", "10"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


def run_into_closed_reader(argv, lines):
    """Run the module entry with stdout on a pipe whose reader takes
    `lines` lines and then closes it; returns (exit code, stderr)."""
    read_fd, write_fd = os.pipe()
    proc = subprocess.Popen(
        [sys.executable, "-m", "enriques.cli", *argv],
        stdout=write_fd,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as reader:
        for _ in range(lines):
            assert reader.readline()
    _, err = proc.communicate(timeout=120)
    return proc.returncode, err.decode()


@pytest.mark.parametrize(
    "argv, lines",
    [
        # 230 kB of rows: the reader closes while the CLI is still writing
        (["components", "--genus", "250", "--format", "json"], 1),
        # a few hundred bytes: the reader is gone before the final flush
        (["verify", "--suite", "lattice", "--format", "json"], 0),
        # CSV rows are written while later profile totals are still built
        (["components", "--genus", "400", "--format", "csv"], 1),
    ],
    ids=["mid-write", "at-flush", "csv-mid-write"],
)
def test_a_reader_that_closes_early_keeps_the_exit_code(argv, lines):
    """Exit code 1 means a check failed; `| head -1` must not fake one."""
    code, err = run_into_closed_reader(argv, lines)
    assert (code, err) == (0, "")


def test_a_listing_holds_one_total_of_rows_at_a_time(monkeypatch):
    """`components --genus 1000 --format json` writes its 13,743 rows as
    the listing yields them, one profile total at a time, so at its peak
    the process holds the walk's tuples and one total's rows.  A listing
    that built every row before writing peaked at about 10 MB."""
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            assert main(["components", "--genus", "1000", "--format", "json"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 6_000_000, peak


def test_phivector_class_of_low_genus_returns_promptly():
    """This genus-3 class, coordinates at most 2, once ran for minutes."""
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "enriques.cli",
            "phivector",
            "--class=2,0,1,0,2,2,-2,1,2,-1",
            "--format",
            "json",
        ],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["phi"] == [2] * 9 + [3]
    assert data["genus"] == 3
    assert data["coefficients"] == {"a0": 1, "head": [0] * 7, "a9": 1, "a10": 0, "eps": 0}


def test_phivector_oracle_on_a_far_genus_4_class_returns_promptly():
    """The raw oracle search on this class lists a pool of thousands of
    classes; the layer prune on the cheapest weight keeps it in seconds."""
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "enriques.cli",
            "phivector",
            "--class=-2,-2,-2,0,0,0,0,0,0,3",
            "--oracle",
            "--format",
            "json",
        ],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["phi"] == data["oracle_phi"] == [2, 2, 2] + [3] * 7
    assert data["oracle_agrees"] is True
    assert data["genus"] == 4


class _Interrupt(BaseException):
    """An interrupt from outside the package, as the benchmark's deadline
    raises one."""


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "paused"])
@pytest.mark.parametrize("outcome", [0, 1, 2, 3, "interrupt"])
def test_main_leaves_the_collector_as_it_found_it(monkeypatch, capsys, outcome, collecting):
    """A command runs with the cyclic collector paused, and however it ends
    (exit code 0, a failed check, a usage error, a class that is not big,
    or a BaseException raised inside the command) the collector is enabled
    again, unless the caller had paused it: that pause stays."""
    seen = []

    def suite():
        seen.append(gc.isenabled())
        if outcome == "interrupt":
            raise _Interrupt
        return [CheckResult("stand-in check", outcome == 0)]

    monkeypatch.setattr(enriques.verify, "suite_lattice", suite)
    argv = {
        2: ["verify", "--suite", "lattice", "--gmax", "1"],
        3: ["phivector", "--class=1,0,0,0,0,0,0,0,0,0"],
    }.get(outcome, ["verify", "--suite", "lattice"])
    if not collecting:
        gc.disable()
    try:
        try:
            code = main([*argv, "--format", "json"])
        except SystemExit as exc:
            code = exc.code
        except _Interrupt:
            code = "interrupt"
        assert gc.isenabled() is collecting
    finally:
        gc.enable()
    assert code == outcome
    assert seen == ([] if outcome in (2, 3) else [False])


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "paused"])
def test_running_out_of_memory_exits_four(monkeypatch, capsys, collecting):
    """A command that runs out of memory (a huge `--genus` fills its walk's
    tables first) exits 4 with one line on stderr and no traceback, writes
    nothing to stdout, and leaves the collector as it found it."""

    def exhausted(genus, phi1):
        raise MemoryError

    monkeypatch.setattr(enriques.cli, "component_rows", exhausted)
    if not collecting:
        gc.disable()
    try:
        code = main(["components", "--genus", "1000000000", "--format", "json"])
        assert gc.isenabled() is collecting
    finally:
        gc.enable()
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert err == "enriques: out of memory\n"
