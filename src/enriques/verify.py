"""Cross-checking suites.

Every check here recomputes something the library already produces, but
along a second route: profiles are re-derived by quadratic search instead
of coefficient enumeration, the low-phi tables are rebuilt from closed
formulas, pairing numbers are recomputed entry by entry. A suite returns
plain CheckResult records; the CLI turns them into PASS/FAIL lines and an
exit code, and the test suite asserts on them at larger scales.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import isqrt
from typing import Iterator

from .components import (
    classical_bounds_audit,
    dominating_component_check,
    enumerate_components,
    enumerate_components_by_phi,
)
from .fundamental import (
    coefficients_from_phivector,
    iter_coefficient_tuples,
    phivector_from_coefficients,
    quadratic_value,
)
from .lattice import (
    D,
    RANK,
    generator_e,
    generator_pair,
    gram_determinant,
    gram_matrix,
    gram_signature,
    is_positive,
    is_primitive,
    is_two_divisible,
    pair,
    self_int,
)
from .oracle import (
    PhiVector,
    _enumerate_with_values,
    box_isotropics,
    eight_lowest,
    enumerate_isotropics,
    order_key,
)

SUITES = ("lattice", "roundtrip", "paper-tables", "dominating", "bounds")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _check(name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


# ---------------------------------------------------------------------------
# Second routes


def phi_profiles_direct(g: int) -> list[tuple[int, ...]]:
    """Profiles of genus g found by quadratic search, not via coefficients.

    A profile with entry sum 3s belongs to genus g iff its entry square
    sum is s^2 - (2g - 2). Since s is the coefficient total plus the pair
    weight, s <= 3g + sqrt(g/2) + 1, so a finite scan over s is complete.
    """
    if g < 2:
        raise ValueError("genus must be at least 2")
    found = set()
    s_hi = 3 * g + isqrt(g) + 2
    for s in range(2, s_hi + 1):
        total = 3 * s
        target = s * s - (2 * g - 2)
        if target < total:  # entries are positive integers: sum of squares >= sum
            continue
        acc: list[int] = []  # built largest entry first

        def rec(k: int, hi: int, r: int, r2: int) -> None:
            if k == 0:
                if r == 0 and r2 == 0:
                    found.add(tuple(reversed(acc)))
                return
            if len(acc) == 3 and 3 * (total - r) > total:
                return  # three largest entries exceed a third of the sum
            if r > k * hi or r < k:
                return
            q, rem = divmod(r, k)
            if r2 < (k - rem) * q * q + rem * (q + 1) * (q + 1):
                return  # even the most balanced completion squares too high
            cap, rr, most = hi, r, 0
            for slot in range(k):  # greedy concentration maximizes the square sum
                v = min(cap, rr - (k - slot - 1))
                most += v * v
                rr -= v
            if r2 > most:
                return
            lo_v = -(-r // k)  # the largest remaining entry is at least the average
            hi_v = min(hi, r - (k - 1), isqrt(r2 - (k - 1)))
            for v in range(hi_v, lo_v - 1, -1):
                acc.append(v)
                rec(k - 1, v, r - v, r2 - v * v)
                acc.pop()

        rec(RANK, total, total, target)
    return sorted(found, key=order_key)


def iter_phi_profiles(max_sum: int) -> Iterator[PhiVector]:
    """All valid profiles with entry sum <= max_sum, in order of sum.

    Walks nondecreasing positive tuples directly against the profile
    invariants, independent of the coefficient parametrization.
    """
    for total in range(12, max_sum + 1, 3):
        acc: list[int] = []

        def rec(k: int, lo: int, r: int) -> Iterator[PhiVector]:
            if k == 0:
                if r == 0:
                    yield PhiVector(tuple(acc))
                return
            if k == 3 and 3 * (total - r) < 2 * total:
                return
            if r < k * lo:
                return
            for v in range(lo, r // k + 1):
                acc.append(v)
                yield from rec(k - 1, v, r - v)
                acc.pop()

        yield from rec(RANK, 1, total)


def golden_low_phi(g: int) -> dict[int, list[tuple[tuple[int, ...], int]]]:
    """The closed-form component tables for smallest entry 1, 2 or 3.

    Each family below is written down directly and then filtered through
    profile validity and the genus identity; entries that survive are the
    expected (profile, eps) rows for genus g.
    """
    if g < 2:
        raise ValueError("genus must be at least 2")
    cands: dict[int, set[tuple[int, ...]]] = {1: set(), 2: set(), 3: set()}
    cands[1].add((1, g - 1) + (g,) * 8)
    if g % 2 == 1:
        cands[2].add((2,) + ((g + 1) // 2,) * 8 + ((g + 3) // 2,))
        cands[2].add((2, (g - 1) // 2) + ((g + 3) // 2,) * 8)
    else:
        cands[2].add((2, g // 2, g // 2) + ((g + 2) // 2,) * 7)
    if g % 3 == 0:
        cands[3].add((3,) + ((g + 3) // 3,) * 9)
        cands[3].add((3, g // 3, (g + 3) // 3) + ((g + 6) // 3,) * 7)
    elif g % 3 == 1:
        cands[3].add((3,) + ((g + 2) // 3,) * 3 + ((g + 5) // 3,) * 6)
        cands[3].add((3, (g - 1) // 3) + ((g + 8) // 3,) * 8)
    else:
        cands[3].add((3, (g + 1) // 3) + ((g + 4) // 3,) * 7 + ((g + 7) // 3,))

    out: dict[int, list[tuple[tuple[int, ...], int]]] = {1: [], 2: [], 3: []}
    for k, family in cands.items():
        for t in sorted(family, key=order_key):
            try:
                p = PhiVector(t)
            except ValueError:
                continue
            if p.genus() != g or p.phis[0] != k:
                continue
            out[k].append((t, 0))
            if p.all_even():
                out[k].append((t, 1))
    return out


# ---------------------------------------------------------------------------
# Suites


def suite_lattice() -> list[CheckResult]:
    checks = []
    checks.append(_check("gram determinant is -1", gram_determinant() == -1))
    checks.append(_check("signature is (1,9)", gram_signature() == (1, 9)))
    gm = gram_matrix()
    checks.append(
        _check("diagonal is even", all(gm[i][i] % 2 == 0 for i in range(RANK)))
    )

    es = [generator_e(i) for i in range(1, 11)]
    pairs = {(i, j): generator_pair(i, j) for i, j in combinations(range(1, 11), 2)}
    bad = []
    for i, j in combinations(range(1, 11), 2):
        if pair(es[i - 1], es[j - 1]) != 1:
            bad.append(f"e{i}.e{j}")
    for i in range(1, 11):
        if self_int(es[i - 1]) != 0:
            bad.append(f"e{i}^2")
        if pair(es[i - 1], D) != 3:
            bad.append(f"e{i}.D")
    for (i, j), f in pairs.items():
        if self_int(f) != 0:
            bad.append(f"f{i},{j}^2")
        if pair(f, D) != 4:
            bad.append(f"f{i},{j}.D")
        for k in range(1, 11):
            want = 2 if k in (i, j) else 1
            if pair(f, es[k - 1]) != want:
                bad.append(f"f{i},{j}.e{k}")
    for (i, j), (k, l) in combinations(pairs, 2):
        want = 1 if {i, j} & {k, l} else 2
        if pair(pairs[(i, j)], pairs[(k, l)]) != want:
            bad.append(f"f{i},{j}.f{k},{l}")
    n_pairs = 10 + 45 + 45 * 12 + 45 * 44 // 2
    checks.append(
        _check(
            "pairing table over all 55 standard isotropic classes",
            not bad,
            f"{n_pairs} pairings" if not bad else "; ".join(bad[:5]),
        )
    )
    checks.append(
        _check(
            "all 55 standard classes are primitive and positive",
            all(is_primitive(x) and is_positive(x) for x in es)
            and all(is_primitive(x) and is_positive(x) for x in pairs.values()),
        )
    )
    three_d = es[0]
    for e in es[1:]:
        three_d = three_d + e
    checks.append(_check("e_1 + ... + e_10 = 3 d", three_d == 3 * D))
    checks.append(
        _check(
            "exchange identity e_i + f_{i,j} = d - e_j",
            all(
                es[i - 1] + pairs[(min(i, j), max(i, j))] == D - es[j - 1]
                for i in range(1, 11)
                for j in range(1, 11)
                if i != j
            ),
        )
    )
    checks.append(
        _check("d is primitive, 2d is not", is_primitive(D) and not is_primitive(2 * D))
    )
    return checks


def suite_roundtrip(gmax: int | None = None) -> list[CheckResult]:
    gmax = 15 if gmax is None else gmax
    checks = []

    n = 0
    ok = True
    for c in iter_coefficient_tuples(10):
        if quadratic_value(c) < 1:
            continue
        n += 1
        p = phivector_from_coefficients(c)
        if coefficients_from_phivector(p, eps=c.eps).as_tuple() != c.as_tuple():
            ok = False
            break
    checks.append(_check("coefficients -> profile -> coefficients", ok, f"{n} tuples"))

    n = 0
    ok = True
    for p in iter_phi_profiles(45):
        n += 1
        if phivector_from_coefficients(coefficients_from_phivector(p)) != p:
            ok = False
            break
    checks.append(_check("profile -> coefficients -> profile", ok, f"{n} profiles"))

    n = 0
    ok = True
    for c in iter_coefficient_tuples(10):
        n += 1
        L = c.divisor_class().num
        lhs = self_int(L)
        if lhs != 2 * quadratic_value(c):
            ok = False
            break
        if quadratic_value(c) >= 1:
            p = phivector_from_coefficients(c)
            if lhs != (sum(p.phis) ** 2 - 9 * sum(v * v for v in p.phis)) // 9:
                ok = False
                break
    checks.append(_check("square equals twice the quadratic value", ok, f"{n} tuples"))

    ok = all(
        is_two_divisible(c.divisor_class().num)
        == (quadratic_value(c) >= 1 and phivector_from_coefficients(c).all_even())
        for c in iter_coefficient_tuples(8)
        if quadratic_value(c) >= 1
    )
    checks.append(_check("2-divisible exactly when the profile is even", ok))

    profiles_ok = fibers_ok = True
    worst = ""
    for g in range(2, gmax + 1):
        comps = enumerate_components(g)
        direct = phi_profiles_direct(g)
        if profiles_ok and sorted({m.phi.phis for m in comps}, key=order_key) != direct:
            profiles_ok = False
            worst = f"g={g}"
        # one component per profile, plus one more per all-even profile
        even = sum(1 for t in direct if all(v % 2 == 0 for v in t))
        if len(comps) != len(direct) + even:
            fibers_ok = False
    checks.append(
        _check(
            f"profile sets agree with quadratic search for g <= {gmax}",
            profiles_ok,
            worst,
        )
    )
    checks.append(_check(f"double-cover fiber count for g <= {gmax}", fibers_ok))

    ok = True
    for g in (5, 7):
        for m in enumerate_components(g):
            L = m.coefficients.divisor_class().num
            if eight_lowest(L) != m.phi.phis[:8]:
                ok = False
    checks.append(_check("lowest eight values match the profile head", ok))
    return checks


def suite_paper_tables(gmax: int | None = None) -> list[CheckResult]:
    gmax = 30 if gmax is None else gmax
    checks = []
    failures: dict[int, str] = {}  # smallest entry -> detail of its first failing genus
    for g in range(2, gmax + 1):
        comps = enumerate_components(g)
        golden = golden_low_phi(g)
        for k in (1, 2, 3):
            if k in failures:
                continue
            expected = golden[k]
            got = [(m.phi.phis, m.eps) for m in comps if m.phi.phis[0] == k]
            if sorted(got) != sorted(expected):
                failures[k] = f"g={g}: expected {expected}, got {got}"
    for k in (1, 2, 3):
        checks.append(
            _check(
                f"smallest-entry-{k} table matches closed formulas for g <= {gmax}",
                k not in failures,
                failures.get(k, ""),
            )
        )

    ok = True
    for g in range(3, gmax + 1, 2):
        rows = golden_low_phi(g)[2]
        has_split = any(eps == 1 for _, eps in rows)
        if has_split != (g % 4 == 1):
            ok = False
    checks.append(
        _check("odd-genus smallest-entry-2 rows split exactly when g = 1 mod 4", ok)
    )

    literal = {
        2: ["E_{2;1,1,2,2,2,2,2,2,2,2}"],
        3: ["E_{3;1,2,3,3,3,3,3,3,3,3}", "E_{3;2,2,2,2,2,2,2,2,2,3}"],
        5: [
            "E_{5;2,3,3,3,3,3,3,3,3,4}",
            "E^+_{5;2,2,4,4,4,4,4,4,4,4}",
            "E^-_{5;2,2,4,4,4,4,4,4,4,4}",
            "E_{5;1,4,5,5,5,5,5,5,5,5}",
        ],
    }
    ok = True
    for g, names in literal.items():
        got = [m.name for m in enumerate_components(g)]
        if sorted(got) != sorted(names):
            ok = False
    checks.append(_check("small-genus component names", ok))

    all3 = [m.name for m in enumerate_components_by_phi(6, 3)]
    checks.append(
        _check(
            "genus 6 has the all-threes component",
            "E_{6;3,3,3,3,3,3,3,3,3,3}" in all3,
        )
    )
    return checks


def suite_dominating(gmax: int | None = None) -> list[CheckResult]:
    report = dominating_component_check(target_phi=(1,) + (4,) + (5,) * 8)
    checks = [_check(name, ok) for name, ok in report.checks()]

    big = 3 * D
    full = enumerate_isotropics(big, 12)
    boxed = box_isotropics(big, 12, box=2)
    within = [x for x in full if max(abs(c) for c in x.coords) <= 2]
    checks.append(
        _check(
            "box scan agrees with the value-profile scan",
            boxed == within and len(full) == 55,
            f"{len(boxed)} classes in the box, {len(full)} total",
        )
    )
    lows = enumerate_isotropics(big, 9)
    checks.append(
        _check(
            "ten classes meet 3d in at most 9",
            len(lows) == 10 and all(pair(x, big) == 9 for x in lows),
        )
    )
    return checks


def suite_bounds(gmax: int | None = None) -> list[CheckResult]:
    gmax = 40 if gmax is None else gmax
    report = classical_bounds_audit(gmax)
    checks = [
        _check(
            f"no component with g <= {gmax} breaks the square bound or enters the gap",
            report.passed,
            f"{report.components_checked} components"
            if report.passed
            else "; ".join(report.violations[:5]),
        )
    ]
    checks.append(
        _check("every genus has a component", all(n >= 1 for _, n in report.counts))
    )
    spot = {2: 1, 3: 2, 5: 4}
    checks.append(
        _check(
            "component counts at g = 2, 3, 5 are 1, 2, 4",
            all(len(enumerate_components(g)) == n for g, n in spot.items()),
        )
    )
    return checks


def run_suite(name: str, gmax: int | None = None) -> list[CheckResult]:
    if name == "lattice":
        return suite_lattice()
    if name == "roundtrip":
        return suite_roundtrip(gmax)
    if name == "paper-tables":
        return suite_paper_tables(gmax)
    if name == "dominating":
        return suite_dominating(gmax)
    if name == "bounds":
        return suite_bounds(gmax)
    raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
