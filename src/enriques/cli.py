"""Command line front end.

Three subcommands: `components` lists the irreducible components for a
genus, `phivector` reports the invariants of a single polarization class,
and `verify` runs one of the cross-checking suites. Output is a markdown
table on a terminal and json when piped (override with --format); identical
invocations print identical bytes.  JSON output is byte-identical to
`json.dumps(payload, indent=2, sort_keys=True)` plus a newline; that
encoder lays out the `components` row and the `phivector` payload once, at
import, as %-templates, since its indent mode runs in pure Python.
`components` writes JSON rows as `component_rows` yields them, plain
tuples one profile total at a time, keeping under `--phi K` the rows whose
profile starts at K.  CSV rows are the `ModuliComponent`s of
`iter_components`, written as they come, so neither listing holds every
row of its genus; markdown, whose header gives the count first, collects
them first.  Under `--phi` CSV and markdown write
`enumerate_components_by_phi`.
The argument parser is built once per process, on first use, and each
subcommand's parser binds its handler with `set_defaults(run=...)`, so
`main` ends by calling `args.run(args)`.  When the first argument names a
subcommand, `main` hands the arguments after it straight to that
subcommand's parser, which is all the top-level parser would do with them;
anything else (no arguments, `-h`, an unknown command, `--` first) goes
through the top-level parser.

Exit codes: 0 success, 1 a verification or agreement check failed,
2 unusable arguments, 3 the class fails a mathematical precondition.  A
reader that closes stdout early changes neither the exit code nor stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import re
import sys

from .components import (
    component_of,
    component_rows,
    enumerate_components_by_phi,
    iter_components,
)
from .fundamental import format_coefficients, fundamental_presentation, parse_coefficients
from .lattice import NotBigError, NumClass
from .oracle import phi_vector_oracle
from .verify import SUITES, run_suite

FORMATS = ("json", "csv", "markdown")


# An integer argument is ASCII digits with an optional sign; int() alone
# would also take underscores, surrounding whitespace and non-ASCII digits.
# A --class string is such integers joined by commas.
_INTEGER = re.compile(r"[+-]?[0-9]+")
_CLASS = re.compile(rf"{_INTEGER.pattern}(?:,{_INTEGER.pattern})*")


def _integer_arg(least: int | None = None):
    """The argparse type of an integer flag, at least `least` when given.
    Every failure is an ArgumentTypeError, which argparse reports under the
    flag's name."""
    want = "an integer" if least is None else f"an integer >= {least}"

    def parse(text: str) -> int:
        try:
            n = int(text) if _INTEGER.fullmatch(text) else None
        except ValueError as exc:  # more digits than int() converts
            raise argparse.ArgumentTypeError(f"expected {want}: {exc}")
        if n is None or (least is not None and n < least):
            raise argparse.ArgumentTypeError(f"expected {want}, got {text!r}")
        return n

    return parse


def _colorize(word: str, code: str) -> str:
    if sys.stdout.isatty() and not os.environ.get("NO_COLOR"):
        return f"\x1b[{code}m{word}\x1b[0m"
    return word


@contextlib.contextmanager
def _output(fmt: str | None):
    """Scope of a command's writes to stdout, which yields the format: `fmt`,
    or by default markdown on a terminal and json otherwise.  When the
    reader closes the pipe early (`| head -1`), the rest of the output is
    dropped: stdout is pointed at devnull, so the flush at shutdown cannot
    fail either, and the command still returns the exit code it computed."""
    try:
        yield fmt or ("markdown" if sys.stdout.isatty() else "json")
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


# The one JSON layout: `verify` writes through it, and the templates below
# are laid out by it.
_dumps = functools.partial(json.dumps, indent=2, sort_keys=True)


def _phi_str(phis) -> str:
    return ",".join(str(v) for v in phis)


def _layout(skeleton: dict, depth: int = 0) -> str:
    """`_dumps(skeleton)` as it sits inside `depth` nested containers, each
    "@" leaf a %s slot.  The slots take their values in sorted key order."""
    text = _dumps(skeleton)
    return text.replace("\n", "\n" + "  " * depth).replace('"@"', "%s")


# The fields a `components` row and the `phivector` payload share.  A
# component name holds only digits and `E^+-_{};,`, so its quoted "%s"
# leaf needs no JSON escapes.
_FIELDS = {
    "coefficients": {"a0": "@", "a10": "@", "a9": "@", "eps": "@", "head": ["@"] * 7},
    "eps": "@",
    "genus": "@",
    "phi": ["@"] * 10,
    "two_divisible": "@",
    "unirational": "@",
}
# A row sits two containers deep in the listing, whose two items split it
# into head, separator and tail; a row's first slot takes the separator.
_ROW = "%s" + _layout({**_FIELDS, "name": "%s"}, depth=2)
_LISTING = {"components": ["@", "@"], "count": "@", "genus": "@"}
_HEAD, _SEP, _TAIL = (_layout(_LISTING) + "\n").split("%s", 2)
_EMPTY = _layout({**_LISTING, "components": [], "count": 0}) + "\n"
# The `phivector` payload, indexed by --oracle; the two oracle keys sort
# between "genus" and "phi".
_PAYLOAD = {**_FIELDS, "class": ["@"] * 10, "component": "%s"}
_PHIVECTOR = (
    _layout(_PAYLOAD) + "\n",
    _layout({**_PAYLOAD, "oracle_agrees": "@", "oracle_phi": ["@"] * 10}) + "\n",
)
_JSON_BOOL = ("false", "true")


def _emit_components_json(genus: int, rows) -> None:
    """Write {"genus", "count", "components"} as `_dumps` lays it out, one
    row at a time from `_ROW` rather than through json's pure-Python indent
    encoder.  rows are `component_rows` rows, whose coefficients carry the
    row's eps.  "count" sorts after the rows, so rows may be any iterable:
    they are counted as they are written."""
    write = sys.stdout.write
    count = 0
    sep = _HEAD
    for count, row in enumerate(rows, 1):
        _, phi, eps, name, two_divisible, unirational, a0, head, a9, a10 = row
        write(
            _ROW
            % (
                sep,
                a0,
                a10,
                a9,
                eps,
                *head,
                eps,
                genus,
                name,
                *phi,
                _JSON_BOOL[two_divisible],
                _JSON_BOOL[unirational],
            )
        )
        sep = _SEP
    write(_TAIL % (count, genus) if count else _EMPTY % genus)


def cmd_components(args: argparse.Namespace) -> int:
    """Write the rows of a genus, or under `--phi K` those with smallest
    profile entry K."""
    genus, phi1 = args.genus, args.phi
    with _output(args.format) as fmt:
        if fmt == "json":
            rows = component_rows(genus)
            if phi1 is not None:
                rows = (row for row in rows if row[1][0] == phi1)
            _emit_components_json(genus, rows)
            return 0
        if phi1 is not None:
            comps = enumerate_components_by_phi(genus, phi1)
        else:
            comps = iter_components(genus)
        if fmt == "csv":
            w = csv.writer(sys.stdout, lineterminator="\n")
            w.writerow(
                ["name", "genus", "phi", "eps", "two_divisible", "coefficients", "unirational"]
            )
            w.writerows(
                [
                    m.name,
                    genus,
                    _phi_str(m.phi),
                    m.eps,
                    int(m.two_divisible),
                    format_coefficients(m.coefficients),
                    int(m.unirational),
                ]
                for m in comps
            )
        else:
            comps = tuple(comps)
            write = sys.stdout.write
            write(f"# genus {genus}: {len(comps)} component(s)\n")
            write("| component | profile | eps | 2-divisible | coefficients | unirational |\n")
            write("|---|---|---|---|---|---|\n")
            for m in comps:
                write(
                    f"| {m.name} | ({_phi_str(m.phi)}) | {m.eps} "
                    f"| {'yes' if m.two_divisible else 'no'} "
                    f"| {format_coefficients(m.coefficients)} "
                    f"| {'yes' if m.unirational else 'no'} |\n"
                )
    return 0


def _class_from_args(args: argparse.Namespace):
    """Returns (NumClass, FundamentalCoefficients) or exits 2/3; an unusable
    value exits 2 through the `phivector` subparser's usage error, under
    the flag's name as argparse reports its own flags.

    Both inputs take one route: `--coeffs` is evaluated to its class, and
    the class is reduced.  A fundamental presentation is unique, so the
    reduction gives parsed coefficients (and eps) back unchanged, after
    its exact reconstruction check."""
    flag, text = ("--class", args.cls) if args.coeffs is None else ("--coeffs", args.coeffs)
    try:
        if args.coeffs is not None:
            num = parse_coefficients(text, eps=args.eps).divisor_class()
        elif _CLASS.fullmatch(text):
            num = NumClass(tuple(int(v) for v in text.split(",")))
        else:
            raise ValueError(f"expected integers, got {text!r}")
    except ValueError as exc:
        args.usage_error(f"argument {flag}: {exc}")
    # `fundamental_presentation` checks the class once; only that check
    # exits 3, any other ValueError past it is a fault.
    try:
        fc, _seq = fundamental_presentation(num, args.eps)
    except NotBigError as exc:
        print(exc, file=sys.stderr)
        raise SystemExit(3)
    return num, fc


def cmd_phivector(args: argparse.Namespace) -> int:
    num, fc = _class_from_args(args)
    # The row's two_divisible is the parity of the coefficients, which is
    # that of the class: `_reduce` checks it.
    m = component_of(fc)

    oracle_profile = None
    agrees = None
    if args.oracle:
        oracle_profile, _ = phi_vector_oracle(num, max_sequences=1)
        agrees = oracle_profile.phis == m.phi

    with _output(args.format) as fmt:
        if fmt == "json":
            oracle = (_JSON_BOOL[agrees], *oracle_profile.phis) if args.oracle else ()
            sys.stdout.write(
                _PHIVECTOR[args.oracle]
                % (
                    *num.coords,
                    fc.a0,
                    fc.a10,
                    fc.a9,
                    fc.eps,
                    *fc.head,
                    m.name,
                    m.eps,
                    m.genus,
                    *oracle,
                    *m.phi,
                    _JSON_BOOL[m.two_divisible],
                    _JSON_BOOL[m.unirational],
                )
            )
        else:
            rows = [
                ("class", _phi_str(num.coords)),
                ("phi", _phi_str(m.phi)),
                ("genus", str(m.genus)),
                ("coefficients", format_coefficients(fc)),
                ("eps", str(m.eps)),
                ("two_divisible", "yes" if m.two_divisible else "no"),
                ("component", m.name),
                ("unirational", "yes" if m.unirational else "no"),
            ]
            if agrees is not None:
                rows.append(("oracle_phi", _phi_str(oracle_profile.phis)))
                rows.append(("oracle_agrees", "yes" if agrees else "no"))
            if fmt == "csv":
                w = csv.writer(sys.stdout, lineterminator="\n")
                w.writerow(["field", "value"])
                w.writerows(rows)
            else:
                width = max(len(k) for k, _ in rows)
                for k, v in rows:
                    print(f"{k.ljust(width)}  {v}")
    return 1 if agrees is False else 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_suite(args.suite, args.gmax)
    ok = all(r.passed for r in results)
    with _output(args.format) as fmt:
        if fmt == "json":
            payload = {"suite": args.suite, "gmax": args.gmax, "passed": ok}
            payload["checks"] = [
                {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
            ]
            print(_dumps(payload))
        elif fmt == "csv":
            w = csv.writer(sys.stdout, lineterminator="\n")
            w.writerow(["suite", "check", "passed", "detail"])
            for r in results:
                w.writerow([args.suite, r.name, int(r.passed), r.detail])
        else:
            for r in results:
                mark = _colorize("PASS", "32") if r.passed else _colorize("FAIL", "31")
                tail = f"  ({r.detail})" if (r.detail and not r.passed) else ""
                print(f"{mark}  {r.name}{tail}")
            n_fail = sum(1 for r in results if not r.passed)
            print(f"{len(results)} check(s), {n_fail} failed")
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enriques",
        description="Classify polarized Enriques moduli components by profile.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_comp = sub.add_parser(
        "components", help="list the irreducible components for a genus"
    )
    p_comp.add_argument("--genus", type=_integer_arg(2), required=True)
    p_comp.add_argument(
        "--phi", type=_integer_arg(1), help="restrict to a smallest profile entry"
    )
    p_comp.add_argument("--format", choices=FORMATS)
    p_comp.set_defaults(run=cmd_components)

    p_phi = sub.add_parser(
        "phivector", help="report the invariants of one polarization class"
    )
    src = p_phi.add_mutually_exclusive_group(required=True)
    src.add_argument(
        "--class",
        dest="cls",
        metavar="C1,...,C10",
        help="coordinates in the standard basis",
    )
    src.add_argument(
        "--coeffs",
        metavar="A0;A1,...,A7;A9,A10",
        help="fundamental coefficients",
    )
    p_phi.add_argument("--eps", type=_integer_arg(), choices=(0, 1), default=0)
    p_phi.add_argument(
        "--oracle",
        action="store_true",
        help="also run the search oracle and report agreement",
    )
    p_phi.add_argument("--format", choices=FORMATS)
    p_phi.set_defaults(run=cmd_phivector, usage_error=p_phi.error)

    p_ver = sub.add_parser("verify", help="run a cross-checking suite")
    p_ver.add_argument("--suite", choices=SUITES, required=True)
    p_ver.add_argument(
        "--gmax", type=_integer_arg(2), help="genus ceiling for the scaling suites"
    )
    p_ver.add_argument("--format", choices=FORMATS)
    p_ver.set_defaults(run=cmd_verify)

    # The subcommand parsers by name, for `main`'s direct route.
    parser.commands = sub.choices
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        # What `parse_args` does past the subcommand name: the subparser
        # parses the rest, and the top-level parser reports what is left.
        args, extra = command.parse_known_args(argv[1:])
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args.run(args)


if __name__ == "__main__":
    raise SystemExit(main())
