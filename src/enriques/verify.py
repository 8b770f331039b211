"""Cross-checking suites.

Every check here recomputes something the library already produces, but
along a second route: profiles are re-derived by quadratic search instead
of coefficient enumeration, the split of the double cover is tested on
every component against the 2-divisibility of its lattice class, the
low-phi tables are rebuilt from closed formulas, pairing numbers are
recomputed entry by entry, the dominating genus-621 class is certified
by the search oracle, and every component of a genus window is held to
Cossec's classical bounds phi_1^2 <= 2g - 2 and the forbidden gap
phi_1^2 < 2g - 2 < phi_1^2 + phi_1 - 2. Each suite builds its plain
CheckResult records itself; the CLI turns them into PASS/FAIL lines and an
exit code, and the test suite asserts on them at larger scales.

Each sweep walks the coefficients once over the window 2..gmax
(`coefficients_by_genus`), whose plain (a0, head, a9, a10) tuples are one
component each, plus an eps = 1 twin when every coefficient is even, with
phi_1 the coefficient total less a_1.  `bounds` and the closed-form
`paper-tables` checks read only those tuples, and wrap one in
`FundamentalCoefficients` only to compute its profile (a paper-tables
tuple of phi_1 <= 3) or to name its rows (a tuple that fails a bound).
`roundtrip` certifies the component rows, so it also reads the rows that
every `components` listing writes (`component_rows`), one genus at a
time, and holds them against the window's tuples and the profile search:
a tuple that either walk drops, adds or repeats fails a check.  The
`paper-tables` checks of literal names read listings too.

`run_suite` is the one entry point and checks the genus ceiling.  The
second routes (the profile search `_profiles_by_genus` and the closed-form
tables `_golden_low_phi`) are private to the suites, which pass them only
genera that `run_suite` or a listing window has already checked.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from math import isqrt
from typing import Callable, Iterator

from .components import (
    coefficients_by_genus,
    component_of,
    component_rows,
    enumerate_components,
)
from .fundamental import (
    FundamentalCoefficients,
    coefficients_from_phivector,
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
    standard_sequence,
)
from .oracle import (
    PhiVector,
    box_isotropics,
    eight_lowest,
    enumerate_isotropics,
    order_key,
    phi_vector_oracle,
)

__all__ = [
    "CheckResult",
    "SUITES",
    "run_suite",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _check(name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


# ---------------------------------------------------------------------------
# Second routes


def _most_squares(k: int, hi: int, r: int) -> int:
    """The largest sum of squares of k integers in [1, hi] that sum to r,
    for k <= r <= k hi.  Concentration maximizes it: the r - k units above
    the floor of 1 fill entries up to hi in turn, so `full` entries are
    hi, one is 1 + rem and the rest are 1.  At r = k hi that one entry is
    an hi as well (full = k, rem = 0, and the formula gives k hi^2)."""
    if hi == 1:
        return k
    full, rem = divmod(r - k, hi - 1)
    return full * hi * hi + (1 + rem) * (1 + rem) + (k - full - 1)


def _profiles_by_genus(g_lo: int, g_hi: int) -> dict[int, list[tuple[int, ...]]]:
    """Profiles of every genus 2 <= g_lo <= g <= g_hi, found by quadratic
    search, not via coefficients; each genus in profile order.

    A profile with entry sum 3s belongs to genus g iff its entry square
    sum is s^2 - (2g - 2). So one scan per s finds the profiles whose
    square sum lies in the window [s^2 - (2g_hi - 2), s^2 - (2g_lo - 2)],
    pruning partial profiles against both ends of it, and reads each
    leaf's genus off its square sum. Since s is the coefficient total plus
    the pair weight, s <= 3g + sqrt(g/2) + 1, so a finite scan over s is
    complete.

    The head/tail inequality phi_1 + ... + phi_7 >= 2(phi_8 + phi_9 +
    phi_10) says the three largest entries sum to at most s. Entries are
    placed largest first, so it prunes from the top: when the entry at
    depth j < 3 takes the value v, the three largest entries are the j
    placed ones, v, and the largest 2 - j of the k - 1 entries still to
    come. Those sum to at least (2 - j)/(k - 1) of the remainder r - v,
    since the largest m of n numbers sum to at least m times their
    average. So v is capped where placed + v + (2 - j)(r - v)/(k - 1)
    reaches s, which is increasing in v.

    The other bound prunes from the bottom of the window: the k - 1
    entries below v, each in [1, v] and summing to r - v, square to at
    most `_most_squares(k - 1, v, r - v)`, so a child whose r2 - v^2 is
    further above that than the window's width cannot reach the window.
    For fixed (k, r, r2) the child's bound v^2 + `_most_squares(k - 1, v,
    r - v)` is nondecreasing in v: from a greediest completion at v, move
    one unit from an entry x >= 2 to the leading entry, which gives a
    completion at v + 1 whose squares sum to 2(v - x + 1) > 0 more.  The
    loop runs v downwards, so it breaks at the first v that this bound
    rules out.  The loop's range already keeps k - 1 <= r - v <= (k - 1) v,
    the range of `_most_squares`.  The balanced bound, which prunes from
    the top of the window, rules out the largest v first (v^2 plus the
    least completion grows with v), so it cannot end the downward loop.

    A node checks each child before entering it: the balanced bound, and
    the greedy bound at the child's own largest entry, which the head/tail
    cap can hold far below v.  The first rules out the largest v first
    and the second is not monotone in v, so a child that fails either is
    skipped, and the loop goes on.  Most children fail there, so most
    are never entered.
    """
    found: dict[int, set[tuple[int, ...]]] = {g: set() for g in range(g_lo, g_hi + 1)}
    width = 2 * (g_hi - g_lo)  # of the square-sum window
    s_hi = 3 * g_hi + isqrt(g_hi) + 2
    acc: list[int] = []  # built largest entry first

    def rec(k: int, hi: int, r: int, r2: int) -> None:
        # k >= 1 entries to place, summing to r, the largest v at most hi;
        # r2 is what their squares may add to reach the top.  The caller
        # keeps hi <= r - (k - 1) and hi^2 <= r2 - (k - 1), so the loop
        # checks the bounds of the children only: the greedy bound of v,
        # then the rest before a child is entered.
        km1 = k - 1
        j = RANK - km1  # entries placed in a child
        low = r2 - width  # the child's squares must reach this
        for v in range(hi, -(-r // k) - 1, -1):
            rv, r2v = r - v, r2 - v * v
            if not km1:  # v = r is the last entry, and v^2 <= r2
                if r2v <= width:
                    found[g_lo + r2v // 2].add((v, *reversed(acc)))
                continue
            if low > v * v + _most_squares(km1, v, rv):
                break  # even the greediest completion squares too low
            q, rem = divmod(rv, km1)
            if r2v < (km1 - rem) * q * q + rem * (q + 1) * (q + 1):
                continue  # even the most balanced completion squares too high
            # the child's largest entry: at most v, leaving 1 to each later
            # entry in the sum and in the squares, under the head/tail cap;
            # the child places nothing unless it reaches their average
            child_hi = rv - (km1 - 1)
            if child_hi > v:
                child_hi = v
            if j < 3:
                # placed + w + (2 - j)(rv - w)/(km1 - 1) <= s solved for
                # the child's entry w; the coefficient of w is 7/(km1 - 1)
                cap = ((km1 - 1) * (s - (total - rv)) - (2 - j) * rv) // 7
                if child_hi > cap:
                    child_hi = cap
            cap = isqrt(r2v - (km1 - 1))
            if child_hi > cap:
                child_hi = cap
            if child_hi * km1 < rv:
                continue
            if km1 > 1 and r2v - width > child_hi * child_hi + _most_squares(
                km1 - 1, child_hi, rv - child_hi
            ):
                continue  # the child's greedy bound rules out its first entry
            acc.append(v)
            rec(km1, child_hi, rv, r2v)
            acc.pop()

    for s in range(2, s_hi + 1):
        total = 3 * s
        top = s * s - (2 * g_lo - 2)
        if top < total:  # entries are positive integers: sum of squares >= sum
            continue
        # the root's largest entry, bounded as a parent bounds a child's
        # (top >= total needs s >= 4, so the head/tail cap, 3s // 7, is
        # positive); the loop checks the rest
        rec(RANK, min(total - (RANK - 1), isqrt(top - (RANK - 1)), 3 * s // 7), total, top)
    # rec calls itself through its closure, a reference cycle that would
    # hold `found` until a collection; with the name gone it holds nothing
    del rec
    return {g: sorted(profiles, key=order_key) for g, profiles in found.items()}


def _golden_low_phi(g: int) -> dict[int, list[tuple[tuple[int, ...], int]]]:
    """The closed-form component tables for smallest entry 1, 2 or 3, at a
    genus g >= 2.

    Each family below is written down directly and then filtered through
    profile validity and the genus identity; entries that survive are the
    expected (profile, eps) rows for genus g.
    """
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


_DOMINATING = FundamentalCoefficients(a0=4, head=(7, 6, 5, 4, 3, 2, 1), a9=3, a10=2)


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


def _iter_coefficient_tuples(max_total: int) -> Iterator[FundamentalCoefficients]:
    """All valid coefficient tuples (eps = 0) with total at most max_total,
    in deterministic order: the roundtrip suite's sweep, and the tests'.

    The loops below keep the head nonincreasing and a9 + a10 >= a0 >=
    a9 >= a10 >= 0, so each tuple is valid by construction and skips the
    constructor's checks.  The heads are listed first, one entry at a
    time, each with the budget it leaves; a pass puts each head's
    extensions in its place, the new entry from the largest down, so the
    heads stay in decreasing lexicographic order."""
    heads = [((), max_total)]
    for _ in range(7):
        heads = [
            ((*head, v), left - v)
            for head, left in heads
            for v in range(min(left, head[-1]) if head else left, -1, -1)
        ]
    trusted = FundamentalCoefficients._trusted
    for head, left in heads:
        for a9 in range(left + 1):
            for a10 in range(min(a9, left - a9) + 1):
                for a0 in range(a9, min(a9 + a10, left - a9 - a10) + 1):
                    yield trusted(a0, head, a9, a10)


def suite_roundtrip(gmax: int | None = None) -> list[CheckResult]:
    gmax = 15 if gmax is None else gmax
    checks = []

    # one pass over the coefficient tuples feeds the three coefficient
    # checks; the positive-square ones have a profile
    n = n_big = 0
    back_ok = square_ok = parity_ok = True
    for c in _iter_coefficient_tuples(10):
        n += 1
        L = c.divisor_class()
        lhs = self_int(L)
        q = quadratic_value(c)
        square_ok &= lhs == 2 * q
        if q < 1:
            continue
        n_big += 1
        p = phivector_from_coefficients(c)
        back_ok &= coefficients_from_phivector(p, eps=c.eps).as_tuple() == c.as_tuple()
        square_ok &= lhs == p.self_intersection()
        parity_ok &= is_two_divisible(L) == p.all_even()

    checks.append(_check("coefficients -> profile -> coefficients", back_ok, f"{n_big} tuples"))

    # one profile search feeds the profile round trip and the genus checks;
    # every profile of total at most 45 has genus at most 11
    direct_by_genus = _profiles_by_genus(2, max(gmax, 11))
    n_profiles = 0
    ok = True
    for t in (t for direct in direct_by_genus.values() for t in direct if sum(t) <= 45):
        n_profiles += 1
        if phivector_from_coefficients(coefficients_from_phivector(t)).phis != t:
            ok = False
            break
    checks.append(_check("profile -> coefficients -> profile", ok, f"{n_profiles} profiles"))
    checks.append(_check("square equals twice the quadratic value", square_ok, f"{n} tuples"))
    checks.append(_check("2-divisible exactly when the profile is even", parity_ok))

    # One window walk gives every genus's tuples, and the listing of each
    # genus its rows: the listing's eps = 0 profiles, in row order, are the
    # search's profiles, and its eps = 0 coefficients are the window's
    # tuples, so a tuple dropped, added or repeated by either walk fails.
    profiles_ok = fibers_ok = True
    worst = ""
    trusted = FundamentalCoefficients._trusted
    for g, coeffs in coefficients_by_genus(2, gmax):
        rows = list(component_rows(g))
        direct = direct_by_genus[g]
        if profiles_ok and (
            [row[1] for row in rows if not row[2]] != direct
            or sorted(row[6:] for row in rows if not row[2]) != sorted(coeffs)
        ):
            profiles_ok = False
            worst = f"g={g}"
        # one component per profile, plus one more per all-even profile
        even = sum(1 for t in direct if all(v % 2 == 0 for v in t))
        if len(rows) != len(direct) + even:
            fibers_ok = False
        # The double cover splits exactly over the 2-divisible classes: on
        # every row the lattice side, the profile side and the row's flag
        # agree, and the eps = 1 rows are the eps = 0 rows of even profile,
        # with the same profile and coefficients.
        split, even_rows = [], []
        for _, phi, eps, _, two_divisible, _, a0, head, a9, a10 in rows:
            two_div = is_two_divisible(trusted(a0, head, a9, a10).divisor_class())
            if not (two_div == all(v % 2 == 0 for v in phi) == two_divisible):
                fibers_ok = False
            key = (phi, a0, head, a9, a10)
            if eps:
                split.append(key)
            elif two_div:
                even_rows.append(key)
        if sorted(split) != sorted(even_rows):
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
            L = m.coefficients.divisor_class()
            if eight_lowest(L) != m.phi[:8]:
                ok = False
    checks.append(_check("lowest eight values match the profile head", ok))
    return checks


def suite_paper_tables(gmax: int | None = None) -> list[CheckResult]:
    gmax = 30 if gmax is None else gmax
    checks = []
    failures: dict[int, str] = {}  # smallest entry -> detail of its first failing genus
    split_ok = True
    for g, coeffs in coefficients_by_genus(2, gmax):
        golden = _golden_low_phi(g)
        if g % 2:
            split_ok &= any(eps == 1 for _, eps in golden[2]) == (g % 4 == 1)
        # The (profile, eps) pairs of smallest entry at most 3, in the
        # listing's row order; phi_1 is the coefficient total less a_1.
        low = []
        for c in coeffs:
            a0, (_, h2, h3, h4, h5, h6, h7), a9, a10 = c
            if a0 + h2 + h3 + h4 + h5 + h6 + h7 + a9 + a10 <= 3:
                p = phivector_from_coefficients(FundamentalCoefficients._trusted(*c))
                low.append((p.phis, 0))
                if p.all_even():
                    low.append((p.phis, 1))
        low.sort(key=lambda pair: (sum(pair[0]), pair))
        for k in (1, 2, 3):
            if k in failures:
                continue
            expected = golden[k]
            got = [pair for pair in low if pair[0][0] == k]
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
    checks.append(
        _check("odd-genus smallest-entry-2 rows split exactly when g = 1 mod 4", split_ok)
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

    all3 = [m.name for m in enumerate_components(6, 3)]
    checks.append(
        _check(
            "genus 6 has the all-threes component",
            "E_{6;3,3,3,3,3,3,3,3,3,3}" in all3,
        )
    )
    return checks


def suite_dominating() -> list[CheckResult]:
    """Certify the facts that make the genus-621 component dominate: its
    profile is (30,...,39), computed by exactly one sequence, because all
    non-member isotropic classes meet the class in at least 38 with the
    two sub-40 values attained once each.  Then the substitution map must
    reach a chosen low profile, and on 3d the box scan must agree with the
    search."""
    L = _DOMINATING.divisor_class()
    top = tuple(range(30, 40))
    oracle_phi, seqs = phi_vector_oracle(L, max_sequences=4)
    std = standard_sequence()
    pool = enumerate_isotropics(L, 40)
    others = [(pair(f, L), f) for f in pool if f not in std]
    at38 = [f for v, f in others if v == 38]
    at39 = [f for v, f in others if v == 39]
    target = (1, 4) + (5,) * 8
    image = coefficients_from_phivector(PhiVector(target)).divisor_class()
    big = 3 * D
    full = enumerate_isotropics(big, 12)
    boxed = box_isotropics(big, 12, box=2)
    within = [x for x in full if max(abs(c) for c in x.coords) <= 2]
    lows = enumerate_isotropics(big, 9)
    return [
        _check("genus of the big class is 621", self_int(L) // 2 + 1 == 621),
        _check(
            "formula profile is (30,...,39)",
            phivector_from_coefficients(_DOMINATING).phis == top,
        ),
        _check("oracle profile agrees", oracle_phi.phis == top),
        _check(
            "computing sequence is unique",
            len(seqs) == 1 and set(seqs[0].members) == set(std),
        ),
        _check(
            "isotropic thresholds 38/39/40 as stated",
            all(v >= 38 for v, _ in others)
            and at38 == [generator_pair(9, 10)]
            and at39 == [generator_pair(8, 10)],
        ),
        _check(
            "search bound is stability-certified",
            pool == enumerate_isotropics(L, 40, extra_layers=2),
        ),
        _check(
            "substitution map hits the target profile",
            phi_vector_oracle(image, max_sequences=1)[0].phis == target,
        ),
        _check(
            "box scan agrees with the value-profile scan",
            boxed == within and len(full) == 55,
            f"{len(boxed)} classes in the box, {len(full)} total",
        ),
        _check(
            "ten classes meet 3d in at most 9",
            len(lows) == 10 and all(pair(x, big) == 9 for x in lows),
        ),
    ]


def suite_bounds(gmax: int | None = None) -> list[CheckResult]:
    """Cossec's classical bounds on every component with g <= gmax:
    phi_1^2 <= 2g - 2, and phi_1^2 < 2g - 2 < phi_1^2 + phi_1 - 2 never."""
    gmax = 40 if gmax is None else gmax
    n, violations, every_genus = 0, [], True
    for g, coeffs in coefficients_by_genus(2, gmax):
        every_genus &= bool(coeffs)
        two_g = 2 * g - 2
        bad = []
        for c in coeffs:
            a0, (h1, h2, h3, h4, h5, h6, h7), a9, a10 = c
            # one row per tuple, and its eps = 1 twin when all are even
            n += 1 if (a0 | h1 | h2 | h3 | h4 | h5 | h6 | h7 | a9 | a10) & 1 else 2
            p1 = a0 + h2 + h3 + h4 + h5 + h6 + h7 + a9 + a10
            sq = p1 * p1
            if sq > two_g or sq < two_g < sq + p1 - 2:
                bad.append(c)
        # name the violating rows, twins included, in row order
        rows = [component_of(FundamentalCoefficients._trusted(*c)) for c in bad]
        rows += [component_of(replace(m.coefficients, eps=1)) for m in rows if m.two_divisible]
        for m in sorted(rows):
            p1 = m.phi[0]
            if p1 * p1 > two_g:
                violations.append(f"{m.name}: phi_1^2 exceeds 2g-2")
            else:
                violations.append(f"{m.name}: enters the forbidden gap")
    return [
        _check(
            f"no component with g <= {gmax} breaks the square bound or enters the gap",
            not violations,
            "; ".join(violations[:5]) if violations else f"{n} components",
        ),
        _check("every genus has a component", every_genus),
        _check(
            "component counts at g = 2, 3, 5 are 1, 2, 4",
            all(len(enumerate_components(g)) == k for g, k in {2: 1, 3: 2, 5: 4}.items()),
        ),
    ]


# Each suite by name, called with the genus ceiling; lattice and dominating
# check fixed classes and ignore it.  Each entry looks its suite up when
# called, so a wrapper put on the module attribute (as tracing does) is seen.
SUITES: dict[str, Callable[[int | None], list[CheckResult]]] = {
    "lattice": lambda gmax: suite_lattice(),
    "roundtrip": lambda gmax: suite_roundtrip(gmax),
    "paper-tables": lambda gmax: suite_paper_tables(gmax),
    "dominating": lambda gmax: suite_dominating(),
    "bounds": lambda gmax: suite_bounds(gmax),
}


def run_suite(name: str, gmax: int | None = None) -> list[CheckResult]:
    """Run the named suite; gmax, when given, must be an integer >= 2, so
    that a scaling suite never passes over an empty range of genera."""
    if gmax is not None and (type(gmax) is not int or gmax < 2):
        raise ValueError(f"gmax must be an integer >= 2, got {gmax!r}")
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    return SUITES[name](gmax)
