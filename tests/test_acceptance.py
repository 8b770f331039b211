"""Acceptance criteria.

Each test prints exactly one PASS/FAIL line with its scale and timing, then
asserts. The eight criteria pin the library's headline facts: the pairing
table, the genus identity, oracle/formula agreement, the closed-form low-phi
tables, the dominating genus-621 component, the double-cover fiber counts,
the rewrite algorithm, and the classical bounds.
"""

import random
import time
from itertools import combinations

from enriques.components import enumerate_components
from enriques.fundamental import (
    class_from_presentation,
    phivector_from_coefficients,
    quadratic_value,
    rewrite_to_fundamental,
)
from enriques.lattice import (
    D,
    NumClass,
    generator_e,
    generator_pair,
    is_two_divisible,
    pair,
    self_int,
    standard_sequence,
)
from enriques.oracle import PhiVector, box_isotropics, enumerate_isotropics, phi_vector_oracle
from enriques.verify import (
    _DOMINATING,
    _iter_coefficient_tuples,
    _golden_low_phi,
    _profiles_by_genus,
    run_suite,
)


def report(n: int, desc: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {desc} ({detail})")
    assert ok, f"criterion {n} failed: {desc} ({detail})"


def test_criterion_1_pairing_table():
    t0 = time.perf_counter()
    es = [generator_e(i) for i in range(1, 11)]
    pairs = {(i, j): generator_pair(i, j) for i, j in combinations(range(1, 11), 2)}
    ok = True
    n = 0
    for i in range(10):
        ok &= self_int(es[i]) == 0 and pair(es[i], D) == 3
        n += 2
        for j in range(i + 1, 10):
            ok &= pair(es[i], es[j]) == 1
            n += 1
    for (i, j), f in pairs.items():
        ok &= self_int(f) == 0 and pair(f, D) == 4
        n += 2
        for k in range(1, 11):
            ok &= pair(f, es[k - 1]) == (2 if k in (i, j) else 1)
            n += 1
    for ij, kl in combinations(pairs, 2):
        ok &= pair(pairs[ij], pairs[kl]) == (1 if set(ij) & set(kl) else 2)
        n += 1
    dt = time.perf_counter() - t0
    ok &= dt < 1.0
    report(1, "pairing table exact for all index choices", ok, f"{n} pairings, {dt:.2f}s")


def test_criterion_2_genus_identity():
    t0 = time.perf_counter()
    ok = True
    n = 0
    for c in _iter_coefficient_tuples(12):
        n += 1
        q = quadratic_value(c)
        square = self_int(c.divisor_class())
        ok &= square == 2 * q
        if q >= 1:
            p = phivector_from_coefficients(c)
            ok &= 9 * square == sum(p.phis) ** 2 - 9 * sum(v * v for v in p.phis)
            ok &= p.genus() == q + 1
    dt = time.perf_counter() - t0
    ok &= dt < 10.0
    report(2, "genus identity on every coefficient tuple with total <= 12", ok, f"{n} tuples, {dt:.2f}s")


def test_criterion_3_oracle_matches_formula():
    t0 = time.perf_counter()
    ok = True
    n = 0
    for c in _iter_coefficient_tuples(8):
        if quadratic_value(c) < 1:
            continue
        n += 1
        L = c.divisor_class()
        got, seqs = phi_vector_oracle(L, max_sequences=1)
        ok &= got == phivector_from_coefficients(c)
        ok &= tuple(sorted(pair(f, L) for f in seqs[0].members)) == got.phis
    dt = time.perf_counter() - t0
    report(3, "search oracle equals closed form on every big tuple with total <= 8", ok, f"{n} classes, {dt:.1f}s")


def test_criterion_4_low_phi_tables():
    t0 = time.perf_counter()
    ok = True
    genera = range(2, 31)
    n = 0
    for g in genera:
        expected = _golden_low_phi(g)
        for k in (1, 2, 3):
            got = [(m.phi, m.eps) for m in enumerate_components(g, k)]
            ok &= sorted(got) == sorted(expected[k])
            n += len(got)
    # congruence shape: odd genus splits the second family exactly when g = 1 mod 4
    for g in range(3, 31, 2):
        ok &= any(e == 1 for _, e in _golden_low_phi(g)[2]) == (g % 4 == 1)
    dt = time.perf_counter() - t0
    ok &= dt < 30.0
    report(4, "low-phi component tables match the closed formulas for g <= 30", ok, f"{n} rows, {dt:.2f}s")


def test_criterion_5_dominating_component():
    t0 = time.perf_counter()
    checks = {r.name: r.passed for r in run_suite("dominating")}
    ok = all(checks.values())
    ok &= checks["genus of the big class is 621"] and checks["oracle profile agrees"]

    L = _DOMINATING.divisor_class()
    std = set(standard_sequence())
    pool = enumerate_isotropics(L, 40)
    others = [f for f in pool if f not in std]
    vals = sorted(pair(f, L) for f in others)
    ok &= vals[0] == 38 and vals[1] == 39 and all(v >= 40 for v in vals[2:])
    ok &= set(box_isotropics(L, 40, box=3)) == set(pool)
    dt = time.perf_counter() - t0
    report(5, "genus-621 class dominates: profile 30..39, unique sequence, thresholds 38/39/40", ok, f"pool of {len(pool)}, {dt:.1f}s")


def test_criterion_6_fiber_structure():
    t0 = time.perf_counter()
    ok = True
    for g in range(2, 41):
        comps = enumerate_components(g)
        hats = [m for m in comps if m.eps == 0]
        direct = _profiles_by_genus(g, g)[g]
        even = sum(1 for t in direct if all(v % 2 == 0 for v in t))
        ok &= len(hats) == len(direct)
        ok &= sum(1 for m in hats if m.two_divisible) == even
        ok &= len(comps) == len(direct) + even
        ok &= all(
            is_two_divisible(m.coefficients.divisor_class())
            == PhiVector(m.phi).all_even()
            == m.two_divisible
            for m in comps
        )
    dt = time.perf_counter() - t0
    report(6, "double-cover fiber counts exact for g <= 40 against the quadratic search", ok, f"39 genera, {dt:.1f}s")


def test_criterion_7_randomized_rewriting():
    t0 = time.perf_counter()
    rng = random.Random(20260818)
    std = standard_sequence()
    ok = True
    cases = 0
    while cases < 1000:
        cs = [rng.randrange(0, 16) for _ in range(10)]
        a0 = rng.randrange(0, 16)
        if not any(cs) and a0 == 0:
            continue
        cases += 1
        goal = NumClass((0,) * 10)
        for v, f in zip(cs, std):
            goal = goal + v * f
        goal = goal + a0 * generator_pair(9, 10)

        fc, seq = rewrite_to_fundamental(cs, a0=a0, eps=1)
        ok &= class_from_presentation(fc, seq) == goal
        ok &= fc.a9 + fc.a10 >= fc.a0 >= fc.a9 >= fc.a10
        ok &= tuple(sorted(fc.head, reverse=True)) == fc.head
        ok &= fc.all_even() == is_two_divisible(goal)
        ok &= fc.eps == (1 if fc.all_even() else 0)

        # relabeling the sequence slots must not change the output
        if a0 == 0:
            perm = cs[:]
            rng.shuffle(perm)
        else:
            perm = cs[:8]
            rng.shuffle(perm)
            tail = [cs[8], cs[9]]
            if rng.random() < 0.5:
                tail.reverse()
            perm += tail
        fc2, _ = rewrite_to_fundamental(perm, a0=a0, eps=1)
        ok &= fc2.as_tuple() == fc.as_tuple() and fc2.eps == fc.eps
    dt = time.perf_counter() - t0
    report(7, "randomized rewrites preserve the class and ignore slot labels", ok, f"{cases} cases, {dt:.1f}s")


def test_criterion_8_classical_bounds():
    t0 = time.perf_counter()
    results = run_suite("bounds", 40)
    ok = all(r.passed for r in results)
    n = 0
    for g in range(2, 41):
        comps = enumerate_components(g)
        ok &= len(comps) >= 1
        for m in comps:
            n += 1
            p1 = m.phi[0]
            ok &= p1 * p1 <= 2 * g - 2
            ok &= not (p1 * p1 < 2 * g - 2 < p1 * p1 + p1 - 2)
    ok &= results[0].detail == f"{n} components"
    dt = time.perf_counter() - t0
    report(8, "square bound and gap avoidance on every component with g <= 40", ok, f"{n} components, {dt:.1f}s")
