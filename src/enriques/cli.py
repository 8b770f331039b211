"""Command line front end.

Three subcommands: `components` lists the irreducible components for a
genus, `phivector` reports the invariants of a single polarization class,
and `verify` runs one of the cross-checking suites. Output is a markdown
table on a terminal and json when piped (override with --format); identical
invocations print identical bytes.  JSON output is byte-identical to
`json.dumps(payload, indent=2, sort_keys=True)` plus a newline; that
encoder lays out the `components` row and the `phivector` payload once, at
import, as %-templates, since its indent mode runs in pure Python.
`components` writes, in every format, the rows of `component_rows`:
plain tuples yielded one profile total at a time.  Under `--phi K` they are
the rows of `component_rows(g, K)`, whose profile starts at K; the CLI
filters nothing itself.  JSON and CSV write the rows
as they come, so neither listing holds every row of its genus; markdown,
whose header gives the count first, collects them first.
The argument parser is built once per process, on first use, and each
subcommand's parser binds its handler with `set_defaults(run=...)`, so
`main` ends by calling `args.run(args)`.  When the first argument names a
subcommand, `main` hands the arguments after it straight to that
subcommand's parser, which is all the top-level parser would do with them;
anything else (no arguments, `-h`, an unknown command, `--` first) goes
through the top-level parser.

Every integer on the command line (`--genus`, `--phi`, `--eps`, `--gmax`
and the entries of `--class` and `--coeffs`) is read here, by one grammar
and one conversion, which reports a value of more digits than int()
converts with the interpreter's limit.  `parse_coefficients` and
`format_coefficients` read and write the `--coeffs` form.

`main` runs each command with the cyclic collector paused from start to
end, and it is the one place in the package that touches the collector:
the package builds no reference cycle, so a collection during a command
would walk its values and free nothing.  The collector runs again
however the command ends, unless the caller had paused it.  What a
paused command leaves for the collector is json's pure-Python indent
encoder under `verify` (about 33 objects a run) and, once per process,
the argument parser's build.

Exit codes: 0 success, 1 a verification or agreement check failed,
2 unusable arguments, 3 the class fails a mathematical precondition, 4 the
command ran out of memory (a huge `--genus` or `--gmax`).  A reader that
closes stdout early changes neither the exit code nor stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import gc
import json
import os
import re
import sys

from .components import component_of, component_rows
from .fundamental import FundamentalCoefficients, fundamental_presentation
from .lattice import NotBigError, NumClass
from .oracle import phi_vector_oracle
from .verify import SUITES, run_suite

FORMATS = ("json", "csv", "markdown")


# An integer argument is ASCII digits with an optional sign; int() alone
# would also take underscores, surrounding whitespace and non-ASCII digits.
# A --class string is such integers joined by commas, and a --coeffs string
# such integers in the groups of `_COEFFS`.
_INTEGER = re.compile(r"[+-]?[0-9]+")
_CLASS = re.compile(rf"{_INTEGER.pattern}(?:,{_INTEGER.pattern})*")
# The --coeffs form "a0;a1,..,a7;a9,a10", as a %-format of the ten coefficients.
_COEFFS = "%d;%d,%d,%d,%d,%d,%d,%d;%d,%d"


def _integers(fields, what: str) -> tuple[int, ...]:
    """The ints of fields that match `_INTEGER`, for every integer on the
    command line.  A field of more digits than int() converts raises
    ValueError(f"{what} of at most N digits"), N the interpreter's limit."""
    try:
        return tuple(map(int, fields))
    except ValueError:  # more digits than int() converts
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"{what} of at most {limit} digits") from None


def _integer_arg(least: int | None = None):
    """The argparse type of an integer flag, at least `least` when given.
    Every failure is an ArgumentTypeError, which argparse reports under the
    flag's name."""
    want = "an integer" if least is None else f"an integer >= {least}"

    def parse(text: str) -> int:
        if _INTEGER.fullmatch(text):
            try:
                [n] = _integers((text,), f"expected {want}")
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None
            if least is None or n >= least:
                return n
        raise argparse.ArgumentTypeError(f"expected {want}, got {text!r}")

    return parse


def format_coefficients(c: FundamentalCoefficients) -> str:
    """The "a0;a1,..,a7;a9,a10" form that `parse_coefficients` reads."""
    return _COEFFS % c.as_tuple()


def parse_coefficients(text: str, eps: int = 0) -> FundamentalCoefficients:
    """The coefficients of a --coeffs string "a0;a1,..,a7;a9,a10", checked
    by `FundamentalCoefficients`; ValueError names what is wrong."""
    parts = text.split(";")
    if len(parts) != 3:
        raise ValueError('expected "a0;a1,..,a7;a9,a10"')
    a0, head, tail = parts[0], parts[1].split(","), parts[2].split(",")
    if not all(map(_INTEGER.fullmatch, (a0, *head, *tail))):
        raise ValueError("coefficients must be integers")
    if len(head) != 7:
        raise ValueError("the middle group takes exactly seven coefficients")
    if len(tail) != 2:
        raise ValueError("the last group takes exactly two coefficients")
    a0, *head, a9, a10 = _integers((a0, *head, *tail), "coefficients must be integers")
    return FundamentalCoefficients(a0=a0, head=tuple(head), a9=a9, a10=a10, eps=eps)


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
    genus = args.genus
    rows = component_rows(genus, args.phi)
    with _output(args.format) as fmt:
        if fmt == "json":
            _emit_components_json(genus, rows)
        elif fmt == "csv":
            w = csv.writer(sys.stdout, lineterminator="\n")
            w.writerow(
                ["name", "genus", "phi", "eps", "two_divisible", "coefficients", "unirational"]
            )
            w.writerows(
                [
                    name,
                    genus,
                    _phi_str(phi),
                    eps,
                    int(two_divisible),
                    _COEFFS % (a0, *head, a9, a10),
                    int(unirational),
                ]
                for _, phi, eps, name, two_divisible, unirational, a0, head, a9, a10 in rows
            )
        else:
            rows = list(rows)
            write = sys.stdout.write
            write(f"# genus {genus}: {len(rows)} component(s)\n")
            write("| component | profile | eps | 2-divisible | coefficients | unirational |\n")
            write("|---|---|---|---|---|---|\n")
            for _, phi, eps, name, two_divisible, unirational, a0, head, a9, a10 in rows:
                write(
                    f"| {name} | ({_phi_str(phi)}) | {eps} "
                    f"| {'yes' if two_divisible else 'no'} "
                    f"| {_COEFFS % (a0, *head, a9, a10)} "
                    f"| {'yes' if unirational else 'no'} |\n"
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
            num = NumClass(_integers(text.split(","), "expected integers"))
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
    """Run one command with the cyclic collector paused from start to end.
    The collector runs again however the command ends (a return, a
    SystemExit or any other exception), unless the caller had paused it.
    A command that runs out of memory exits 4 with one line on stderr."""
    collecting = gc.isenabled()
    gc.disable()
    try:
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
    except MemoryError:
        print("enriques: out of memory", file=sys.stderr)
        return 4
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
