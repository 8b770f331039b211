"""Command line front end.

Three subcommands: `components` lists the irreducible components for a
genus, `phivector` reports the invariants of a single polarization class,
and `verify` runs one of the cross-checking suites. Output is a markdown
table on a terminal and json when piped (override with --format); identical
invocations print identical bytes.

Exit codes: 0 success, 1 a verification or agreement check failed,
2 unusable arguments, 3 the class fails a mathematical precondition.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .components import (
    component_name,
    enumerate_components,
    enumerate_components_by_phi,
    unirationality_flag,
)
from .fundamental import (
    FundamentalCoefficients,
    format_coefficients,
    fundamental_presentation,
    parse_coefficients,
    phivector_from_coefficients,
    quadratic_value,
)
from .lattice import NumClass, PicClass, RANK, is_positive, is_two_divisible, self_int
from .oracle import phi_vector_oracle
from .verify import SUITES, run_suite

FORMATS = ("json", "csv", "markdown")


def _genus_arg(text: str) -> int:
    try:
        g = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"genus must be an integer, got {text!r}")
    if g < 2:
        raise argparse.ArgumentTypeError("genus must be at least 2")
    return g


def _positive_arg(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    if n < 1:
        raise argparse.ArgumentTypeError("expected a positive integer")
    return n


def _pick_format(fmt: str | None) -> str:
    if fmt is not None:
        return fmt
    return "markdown" if sys.stdout.isatty() else "json"


def _colorize(word: str, code: str) -> str:
    if sys.stdout.isatty() and not os.environ.get("NO_COLOR"):
        return f"\x1b[{code}m{word}\x1b[0m"
    return word


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _phi_str(phis) -> str:
    return ",".join(str(v) for v in phis)


def cmd_components(args: argparse.Namespace) -> int:
    if args.phi is not None:
        comps = enumerate_components_by_phi(args.genus, args.phi)
    else:
        comps = enumerate_components(args.genus)
    fmt = _pick_format(args.format)
    if fmt == "json":
        _emit_json(
            {
                "genus": args.genus,
                "count": len(comps),
                "components": [m.to_json() for m in comps],
            }
        )
    elif fmt == "csv":
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(
            ["name", "genus", "phi", "eps", "two_divisible", "coefficients", "unirational"]
        )
        for m in comps:
            w.writerow(
                [
                    m.name,
                    m.genus,
                    _phi_str(m.phi.phis),
                    m.eps,
                    int(m.two_divisible),
                    format_coefficients(m.coefficients),
                    int(m.unirational),
                ]
            )
    else:
        print(f"# genus {args.genus}: {len(comps)} component(s)")
        print("| component | profile | eps | 2-divisible | coefficients | unirational |")
        print("|---|---|---|---|---|---|")
        for m in comps:
            print(
                f"| {m.name} | ({_phi_str(m.phi.phis)}) | {m.eps} "
                f"| {'yes' if m.two_divisible else 'no'} "
                f"| {format_coefficients(m.coefficients)} "
                f"| {'yes' if m.unirational else 'no'} |"
            )
    return 0


def _class_from_args(args: argparse.Namespace, parser: argparse.ArgumentParser):
    """Returns (NumClass, FundamentalCoefficients) or exits 2/3."""
    if args.coeffs is not None:
        try:
            fc = parse_coefficients(args.coeffs, eps=args.eps)
        except ValueError as exc:
            parser.error(str(exc))
        if quadratic_value(fc) < 1:
            print(
                "class is not big: the self-intersection is not positive",
                file=sys.stderr,
            )
            raise SystemExit(3)
        return fc.divisor_class().num, fc

    try:
        coords = tuple(int(v) for v in args.cls.split(","))
        num = NumClass(coords)
    except ValueError as exc:
        parser.error(str(exc))
    if num.is_zero():
        print("class is not positive: it is zero", file=sys.stderr)
        raise SystemExit(3)
    if self_int(num) <= 0:
        print(
            "class is not big: the self-intersection is not positive",
            file=sys.stderr,
        )
        raise SystemExit(3)
    if not is_positive(num):
        print("class is not positive: it pairs nonpositively with d", file=sys.stderr)
        raise SystemExit(3)
    fc, _seq = fundamental_presentation(PicClass(num, args.eps))
    return num, fc


def cmd_phivector(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    num, fc = _class_from_args(args, parser)
    profile = phivector_from_coefficients(fc)
    g = profile.genus()
    two_div = is_two_divisible(num)
    eps = fc.eps
    name = component_name(g, profile, eps)

    oracle_profile = None
    agrees = None
    if args.oracle:
        oracle_profile, _ = phi_vector_oracle(num, max_sequences=1)
        agrees = oracle_profile == profile

    fmt = _pick_format(args.format)
    rows = [
        ("class", _phi_str(num.coords)),
        ("phi", _phi_str(profile.phis)),
        ("genus", str(g)),
        ("coefficients", format_coefficients(fc)),
        ("eps", str(eps)),
        ("two_divisible", "yes" if two_div else "no"),
        ("component", name),
        ("unirational", "yes" if unirationality_flag(profile) else "no"),
    ]
    if agrees is not None:
        rows.append(("oracle_phi", _phi_str(oracle_profile.phis)))
        rows.append(("oracle_agrees", "yes" if agrees else "no"))

    if fmt == "json":
        payload = {
            "class": num.to_json(),
            "phi": list(profile.phis),
            "genus": g,
            "coefficients": fc.to_json(),
            "eps": eps,
            "two_divisible": two_div,
            "component": name,
            "unirational": unirationality_flag(profile),
        }
        if agrees is not None:
            payload["oracle_phi"] = list(oracle_profile.phis)
            payload["oracle_agrees"] = agrees
        _emit_json(payload)
    elif fmt == "csv":
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
    fmt = _pick_format(args.format)
    if fmt == "json":
        _emit_json(
            {
                "suite": args.suite,
                "gmax": args.gmax,
                "passed": ok,
                "checks": [
                    {"name": r.name, "passed": r.passed, "detail": r.detail}
                    for r in results
                ],
            }
        )
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enriques",
        description="Classify polarized Enriques moduli components by profile.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_comp = sub.add_parser(
        "components", help="list the irreducible components for a genus"
    )
    p_comp.add_argument("--genus", type=_genus_arg, required=True)
    p_comp.add_argument(
        "--phi", type=_positive_arg, help="restrict to a smallest profile entry"
    )
    p_comp.add_argument("--format", choices=FORMATS)

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
    p_phi.add_argument("--eps", type=int, choices=(0, 1), default=0)
    p_phi.add_argument(
        "--oracle",
        action="store_true",
        help="also run the search oracle and report agreement",
    )
    p_phi.add_argument("--format", choices=FORMATS)

    p_ver = sub.add_parser("verify", help="run a cross-checking suite")
    p_ver.add_argument("--suite", choices=SUITES, required=True)
    p_ver.add_argument(
        "--gmax", type=_genus_arg, help="genus ceiling for the scaling suites"
    )
    p_ver.add_argument("--format", choices=FORMATS)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "components":
        return cmd_components(args)
    if args.command == "phivector":
        return cmd_phivector(args, parser)
    return cmd_verify(args)


if __name__ == "__main__":
    raise SystemExit(main())
