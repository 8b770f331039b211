"""Genus-by-genus component enumeration and its published spot values."""

import gc
from dataclasses import replace
from itertools import chain

import pytest

import enriques.components
import enriques.verify
from enriques.components import (
    ModuliComponent,
    _coefficient_tuples,
    coefficients_by_genus,
    component_of,
    component_rows,
    components_by_genus,
    enumerate_components,
    enumerate_components_by_phi,
    _unirational,
)
from enriques.fundamental import (
    FundamentalCoefficients,
    phivector_from_coefficients,
    quadratic_value,
)
from enriques.oracle import order_key
from enriques.verify import _golden_low_phi, _profiles_by_genus, run_suite
from reference import iter_phi_profiles


def test_genus_two_is_a_single_component():
    comps = enumerate_components(2)
    assert [m.name for m in comps] == ["E_{2;1,1,2,2,2,2,2,2,2,2}"]
    assert comps[0].unirational and not comps[0].two_divisible


def test_genus_three_table():
    names = [m.name for m in enumerate_components(3)]
    assert sorted(names) == [
        "E_{3;1,2,3,3,3,3,3,3,3,3}",
        "E_{3;2,2,2,2,2,2,2,2,2,3}",
    ]


def test_genus_five_table_with_torsion_split():
    comps = enumerate_components(5)
    assert [m.name for m in comps] == [
        "E_{5;2,3,3,3,3,3,3,3,3,4}",
        "E^+_{5;2,2,4,4,4,4,4,4,4,4}",
        "E^-_{5;2,2,4,4,4,4,4,4,4,4}",
        "E_{5;1,4,5,5,5,5,5,5,5,5}",
    ]
    plus = comps[1]
    minus = comps[2]
    assert plus.two_divisible and minus.two_divisible
    assert (plus.eps, minus.eps) == (0, 1)
    assert plus.coefficients.as_tuple() == minus.coefficients.as_tuple()


def test_components_sorted_by_profile_order_then_eps():
    for g in (5, 9, 13):
        comps = enumerate_components(g)
        keys = [(order_key(m.phi), m.eps) for m in comps]
        assert keys == sorted(keys)


def test_rows_sort_as_tuples_in_profile_order_then_eps():
    """Rows sort as plain tuples on (9a + 3a0, profile, eps); that must be
    the order of (order_key, eps), with each eps = 1 row right after its
    eps = 0 twin.  The window's genera hold many totals in one `_rows`
    call, the single genera one at a time."""
    listings = ((g, enumerate_components(g)) for g in (*range(2, 121), 405, 934))
    for g, rows in chain(listings, components_by_genus(249, 260)):
        assert list(rows) == sorted(rows), g
        assert list(rows) == sorted(rows, key=lambda m: (order_key(m.phi), m.eps)), g
        for before, m in zip(rows, rows[1:]):
            if m.eps:
                assert before.eps == 0 and before.phi == m.phi
                assert before.coefficients.as_tuple() == m.coefficients.as_tuple()
                assert m.coefficients.eps == 1


@pytest.fixture(scope="module")
def listings_to_400():
    """`enumerate_components(g)` for every g in 2..400, built once for the
    two tests below (about 2 s and 80 MB on a 2-core x86-64 machine)."""
    return {g: enumerate_components(g) for g in range(2, 401)}


def test_the_listing_iterator_yields_one_total_at_a_time(listings_to_400):
    """`enumerate_components(g)`, the rows of the listing iterator
    `component_rows(g)` as components, holds the rows that a window walk
    builds and sorts for g in one call, with profile totals nondecreasing."""
    for g, window_rows in components_by_genus(2, 400):
        rows = listings_to_400[g]
        assert rows == window_rows, g
        assert all(a.total <= b.total for a, b in zip(rows, rows[1:])), g


def test_components_are_the_listing_rows_gathered(listings_to_400):
    """`enumerate_components(g)` is the `ModuliComponent` of each plain row of
    `component_rows(g)`: the row's fields with the genus put in and its
    coefficients, which carry the row's eps, gathered into one checked
    object.  Each eps = 1 twin has its own coefficients object."""
    for g in range(2, 401):
        rows = list(component_rows(g))
        assert all(type(row) is tuple for row in rows), g
        want = [
            ModuliComponent(
                total, phi, eps, g, name, two_divisible, unirational,
                FundamentalCoefficients(a0, head, a9, a10, eps),
            )
            for total, phi, eps, name, two_divisible, unirational, a0, head, a9, a10 in rows
        ]
        got = list(listings_to_400[g])
        assert got == want, g
        assert len({id(m.coefficients) for m in got}) == len(got), g


def test_listing_rows_and_walk_tuples_leave_the_collector():
    """The rows of `component_rows` and the entries of the walk's buckets
    hold only ints, strings, bools and tuples of ints, so the collector
    untracks them and later full collections do not walk them.  A
    collection may reach a tuple before a tuple inside it that is as
    young (it puts the inner one, reachable only through the outer, back
    behind it), so some rows leave only on their second collection: in
    one measured run at g = 1000, one full collection left 346 of 13743
    rows tracked, and a second none."""
    rows = list(component_rows(1000))
    buckets = _coefficient_tuples(999, 999)
    gc.collect()
    gc.collect()
    assert rows and not any(map(gc.is_tracked, rows))
    entries = [c for cs in buckets.values() for c in cs]
    assert entries and not any(map(gc.is_tracked, entries))


def test_the_builders_leave_the_collector_as_they_found_it(monkeypatch):
    """The walk and the rows run with the cyclic collector paused, which
    ends when they return or raise; a collector the caller paused stays
    paused."""
    assert gc.isenabled()
    assert list(component_rows(300))
    assert gc.isenabled()
    assert list(coefficients_by_genus(2, 60))
    assert gc.isenabled()

    def fail(phi):
        raise RuntimeError("row builder failed")

    with monkeypatch.context() as mp:
        mp.setattr(enriques.components, "_unirational", fail)
        with pytest.raises(RuntimeError, match="row builder failed"):
            list(component_rows(300))
    assert gc.isenabled()

    gc.disable()
    try:
        assert list(component_rows(300))
        assert list(components_by_genus(2, 60))
        paused = gc.isenabled()
    finally:
        gc.enable()
    assert not paused


def test_every_row_agrees_with_its_coefficients():
    """Each field of a row is what the checked routes give its coefficients,
    one genus at a time and across a window."""
    window = components_by_genus(249, 260)
    for g, rows in (*((g, enumerate_components(g)) for g in range(2, 61)), *window):
        assert rows, g
        for m in rows:
            assert m.genus == g
            assert m.total == sum(m.phi)
            assert m.eps == m.coefficients.eps
            assert m.phi == phivector_from_coefficients(m.coefficients).phis
            assert m.two_divisible == m.coefficients.all_even()
            assert m.unirational == _unirational(m.phi)
            assert component_of(m.coefficients) == m


@pytest.mark.parametrize("window", [(2, 60), (37, 45), (2, 2), (9, 9), (250, 250), (5, 4)])
def test_coefficient_window_gives_the_tuples_of_the_rows(window):
    """`coefficients_by_genus` gives the genera of `components_by_genus`
    over the same window and, per genus, the coefficients of its eps = 0
    rows, one plain tuple (a0, head, a9, a10) per profile; an empty window
    gives nothing."""
    tuples = [
        (g, [(a0, *head, a9, a10) for a0, head, a9, a10 in coeffs])
        for g, coeffs in coefficients_by_genus(*window)
    ]
    rows = list(components_by_genus(*window))
    assert [g for g, _ in tuples] == [g for g, _ in rows] == list(range(window[0], window[1] + 1))
    for (g, got), (_, comps) in zip(tuples, rows):
        assert sorted(got) == sorted(m.coefficients.as_tuple() for m in comps if m.eps == 0), g


def test_enumeration_rejects_small_genus():
    with pytest.raises(ValueError):
        enumerate_components(1)
    with pytest.raises(ValueError):
        components_by_genus(1, 5)
    with pytest.raises(ValueError):
        coefficients_by_genus(1, 5)
    # the listing iterator checks its genus at the call, before any row
    with pytest.raises(ValueError):
        component_rows(1)
    with pytest.raises(ValueError):
        enumerate_components_by_phi(4, 0)


def test_phi_filter():
    # g = 9 is 1 mod 4: the even profile splits, so three rows not two
    assert [m.phi[0] for m in enumerate_components_by_phi(9, 2)] == [2, 2, 2]
    assert enumerate_components_by_phi(2, 3) == ()


def test_genus_six_all_threes():
    names = [m.name for m in enumerate_components_by_phi(6, 3)]
    assert "E_{6;3,3,3,3,3,3,3,3,3,3}" in names


def test_genus_seven_phi_three_profile():
    profs = [m.phi for m in enumerate_components_by_phi(7, 3)]
    assert (3, 3, 3, 3, 4, 4, 4, 4, 4, 4) in profs


def test_low_phi_families_match_closed_formulas():
    for g in range(2, 19):
        expected = _golden_low_phi(g)
        for k in (1, 2, 3):
            got = [(m.phi, m.eps) for m in enumerate_components_by_phi(g, k)]
            assert sorted(got) == sorted(expected[k]), (g, k)


def test_eps_split_exactly_on_even_profiles():
    for g in range(2, 21):
        by_profile = {}
        for m in enumerate_components(g):
            by_profile.setdefault(m.phi, []).append(m.eps)
        for prof, epss in by_profile.items():
            if all(v % 2 == 0 for v in prof):
                assert sorted(epss) == [0, 1]
            else:
                assert epss == [0]


def test_component_and_numerical_names():
    even = FundamentalCoefficients(a0=0, head=(2, 2, 0, 0, 0, 0, 0), a9=0, a10=0)
    assert component_of(even).name == "E^+_{5;2,2,4,4,4,4,4,4,4,4}"
    assert component_of(replace(even, eps=1)).name == "E^-_{5;2,2,4,4,4,4,4,4,4,4}"
    odd = FundamentalCoefficients(a0=0, head=(1, 1, 0, 0, 0, 0, 0), a9=0, a10=0)
    assert component_of(odd).name == "E_{2;1,1,2,2,2,2,2,2,2,2}"


def test_numerical_components_collapse_the_split():
    """The eps = 0 rows are the numerical components, one per profile; the
    double cover splits over exactly the 2-divisible one."""
    hats = [m for m in enumerate_components(5) if m.eps == 0]
    assert [h.phi for h in hats] == [
        (2, 3, 3, 3, 3, 3, 3, 3, 3, 4),
        (2, 2, 4, 4, 4, 4, 4, 4, 4, 4),
        (1, 4, 5, 5, 5, 5, 5, 5, 5, 5),
    ]
    assert [h.two_divisible for h in hats] == [False, True, False]


def test_rho_fiber_structure_spots():
    """(numerical components, components, 2-divisible ones) per genus."""

    def counts(g):
        comps = enumerate_components(g)
        hats = [m for m in comps if m.eps == 0]
        return len(hats), len(comps), sum(1 for m in hats if m.two_divisible)

    assert counts(5) == (3, 4, 1)
    assert counts(2) == (1, 1, 0)


def test_unirationality_patterns():
    # each closed-form low-phi family lands in some flat pattern
    for g in range(2, 26):
        for m in enumerate_components(g):
            if m.phi[0] <= 3:
                assert m.unirational, m.name
    assert _unirational((1, 1, 2, 2, 2, 2, 2, 2, 2, 2))
    assert _unirational((3, 3, 3, 3, 4, 4, 4, 4, 4, 4))
    assert not _unirational(tuple(range(30, 40)))
    # first profile outside every pattern shows up at genus 12
    assert not _unirational((4, 4, 4, 5, 5, 5, 5, 5, 5, 6))
    bad12 = [m for m in enumerate_components(12) if not m.unirational]
    assert [m.phi for m in bad12] == [(4, 4, 4, 5, 5, 5, 5, 5, 5, 6)]


def _flag_by_runs(p):
    """`_unirational` as first written: a run is flat when every entry
    in it equals its first."""

    def flat(lo, hi):
        return all(p[i] == p[lo] for i in range(lo, hi + 1))

    if flat(0, 6) or flat(1, 7) or flat(2, 8) or flat(3, 9):
        return True
    if flat(2, 7) and 3 * p[2] == 2 * (p[8] + p[9]) - p[0] - p[1]:
        return True
    if flat(5, 9) and 4 * p[5] == p[0] + p[1] + p[2] + p[3] + p[4]:
        return True
    return False


def test_unirationality_flag_matches_the_run_by_run_test():
    profiles = set()
    for g in range(2, 61):
        for m in enumerate_components(g):
            want = _flag_by_runs(m.phi)
            assert _unirational(m.phi) == want, m.name
            assert m.unirational == want, m.name
            profiles.add(m.phi)
    assert len(profiles) == 975


def _flag_by_closure(phi):
    """`_unirational` in its closure form: a run of the sorted profile
    is flat when its ends agree."""
    p = tuple(phi)

    def flat(lo, hi):
        return p[lo] == p[hi]

    if flat(0, 6) or flat(1, 7) or flat(2, 8) or flat(3, 9):
        return True
    if flat(2, 7) and 3 * p[2] == 2 * (p[8] + p[9]) - p[0] - p[1]:
        return True
    if flat(5, 9) and 4 * p[5] == p[0] + p[1] + p[2] + p[3] + p[4]:
        return True
    return False


def test_flat_unirationality_flag_matches_the_closure_form():
    flags = set()
    for p in iter_phi_profiles(90):
        want = _flag_by_closure(p)
        assert _unirational(p) is want, p.phis
        assert _unirational(p.phis) is want, p.phis
        flags.add(want)
    assert flags == {True, False}


def _flat(c):
    """The coefficients (a0, a1..a7, a9, a10) of a walk tuple
    (a0, head, a9, a10), as `FundamentalCoefficients.as_tuple` lists them."""
    a0, head, a9, a10 = c
    return (a0, *head, a9, a10)


def _reference_tuples(q):
    """Coefficient tuples of quadratic value q by a plain walk: nonincreasing
    heads cut only by p <= q, then a9 >= a10 and a0 in [a9, a9 + a10]
    looped directly, each candidate's value computed in full."""
    found = []

    def walk(head, p, s):
        if len(head) < 7:
            for v in range(head[-1] if head else q, -1, -1):
                if p + v * s <= q:
                    walk(head + (v,), p + v * s, s + v)
            return
        a9 = 0
        while p + 2 * a9 * s + 2 * a9 * a9 <= q:
            for a10 in range(a9 + 1):
                for a0 in range(a9, a9 + a10 + 1):
                    value = p + (a9 + a10) * s + a9 * a10 + a0 * (s + 2 * a9 + 2 * a10)
                    if value == q:
                        found.append((a0, *head, a9, a10))
            a9 += 1

    walk((), 0, 0)
    return found


@pytest.mark.parametrize(
    "kind, span",
    [
        ("genera", range(2, 121)),
        ("genera", (250, 397)),
        ("genera", (571, 750)),
        ("window", (1, 120)),
        ("window", (249, 260)),
    ],
    ids=["2-120", "250,397", "571,750", "window-1-120", "window-249-260"],
)
def test_walk_matches_a_plain_reference_walk(kind, span):
    """Genera one at a time through `enumerate_components`, or one window
    of quadratic values q through the walk itself, bucket by bucket."""
    if kind == "genera":
        got_by_q = {
            g - 1: [m.coefficients.as_tuple() for m in enumerate_components(g) if m.eps == 0]
            for g in span
        }
    else:
        buckets = _coefficient_tuples(*span)
        assert list(buckets) == list(range(span[0], span[1] + 1))
        got_by_q = {q: [_flat(c) for c in cs] for q, cs in buckets.items()}
    for q, got in got_by_q.items():
        want = _reference_tuples(q)
        assert len(set(want)) == len(want)
        assert len(set(got)) == len(got), q
        assert set(got) == set(want), q


def test_least_nonzero_tail_survives_on_the_dead_head_boundary():
    """The tail a0 = a9 = 1, a10 = 0 adds exactly 2s + 2 to a head of sum s.
    At that q each head's a_1 is the walk's cap top on its suffix, the
    last a_1 its probe pass reaches."""
    for head in ((0,) * 7, (1,) + (0,) * 6, (2, 1, 0, 0, 0, 0, 0), (3, 3, 2, 1, 1, 0, 0)):
        s = sum(head)
        p = sum(head[i] * head[j] for i in range(7) for j in range(i))
        q = p + 2 * s + 2
        # the suffix a_2..a_7 has value p_suf and sum s_suf; p = p_suf + a_1*s_suf
        s_suf = s - head[0]
        p_suf = p - head[0] * s_suf
        assert (q - p_suf - 2 * s_suf - 2) // (s_suf + 2) == head[0], head
        least = (1, *head, 1, 0)
        rows = {m.coefficients.as_tuple() for m in enumerate_components(q + 1)}
        assert least in rows, head
        for buckets in (_coefficient_tuples(q - 3, q + 3), _coefficient_tuples(1, q)):
            assert least in {_flat(c) for c in buckets[q]}, head
        assert quadratic_value(FundamentalCoefficients(a0=1, head=head, a9=1, a10=0)) == q
        # one less and the head has no tail at all
        below = {m.coefficients.head for m in enumerate_components(q)}
        assert head not in below, head


def _one_genus_walk(q):
    """The tuples of the one-value walk at q, whose buckets are keyed by
    profile total; each must sit under its own total 9a + 3a0."""
    found = []
    for total, cs in _coefficient_tuples(q, q).items():
        for c in cs:
            assert 9 * sum(_flat(c)) + 3 * c[0] == total, (q, c)
        found += cs
    return found


def test_zero_head_keeps_its_tails():
    """(k;0,...,0;k,0) adds beta = 2k^2 to the all-zero head: the tail table
    must reach a9 = k at q = 2k^2, where a bound of 2a9(a9 + 1) stops short."""
    for k in range(1, 8):
        q = 2 * k * k
        zero_head = (k, *(0,) * 7, k, 0)
        assert quadratic_value(FundamentalCoefficients(k, (0,) * 7, k, 0)) == q
        assert zero_head in {_flat(c) for c in _one_genus_walk(q)}, k
        assert zero_head in {_flat(c) for c in _coefficient_tuples(1, q)[q]}, k
        assert zero_head in {
            m.coefficients.as_tuple() for m in enumerate_components(q + 1)
        }, k


def _assert_buckets_match(buckets, want):
    """Each bucket q of want holds the tuples want[q], once each."""
    for q, tuples in want.items():
        got = [_flat(c) for c in buckets[q]]
        assert len(set(got)) == len(got), q
        assert set(got) == set(tuples), q


def test_all_zero_suffix_heads_carry_the_least_tail():
    """(k, 0, ..., 0) has value 0 and sum k, so the least tail
    a0 = a9 = 1, a10 = 0 puts it at q = 2k + 2, the largest a_1 the walk's
    all-zero suffix (s = 0) reaches at that q."""
    window = _coefficient_tuples(1, 122)
    for k in range(1, 61):
        q = 2 * k + 2
        least = (1, k, *(0,) * 6, 1, 0)
        want = {q: _reference_tuples(q)}
        assert least in want[q], k
        for buckets in ({q: _one_genus_walk(q)}, window, _coefficient_tuples(q - 3, q + 3)):
            _assert_buckets_match(buckets, want)


def test_tied_leading_entries_on_the_zero_tail():
    """(k, ..., k, 0, ...) with m equal entries has value C(m, 2) k^2 and
    solves a_1 = a_2 = k exactly: the least a_1 that its suffix admits."""
    for m in range(2, 8):
        for k in range(1, 7):
            q = m * (m - 1) // 2 * k * k
            if q > 150:
                continue
            tied = (0, *(k,) * m, *(0,) * (7 - m), 0, 0)
            want = {q: _reference_tuples(q)}
            assert tied in want[q], (m, k)
            for buckets in ({q: _one_genus_walk(q)}, _coefficient_tuples(q - 2, q + 2)):
                assert tied in {_flat(c) for c in buckets[q]}, (m, k)
                _assert_buckets_match(buckets, want)


def test_window_starts_cut_zero_tails_by_ceiling_division():
    """A window's zero tails start at a_1 = ceil((q_lo - p) / s) for a
    suffix of value p and sum s.  Every q_lo in 2..90 with a narrow window
    covers both sides of that ceiling, for every suffix sum up to the
    window."""
    want = {q: _reference_tuples(q) for q in range(2, 95)}
    cut = 0
    for q_lo in range(2, 91):
        buckets = _coefficient_tuples(q_lo, q_lo + 4)
        _assert_buckets_match(buckets, {q: want[q] for q in range(q_lo, q_lo + 5)})
        # zero-tail heads above q_lo whose a_1 - 1 (still >= a_2) falls
        # below it: their a_1 is a ceiling strictly above the floor
        cut += sum(
            head[0] > head[1] and q - sum(head[1:]) < q_lo
            for q in range(q_lo + 1, q_lo + 5)
            for _, head, a9, _ in buckets[q]
            if not a9
        )
    assert cut > 100


@pytest.mark.parametrize("window", [(1, 400), (249, 260), (500, 520), (925, 945)])
def test_window_matches_its_single_genus_walks(window):
    """A window reads the tails of each head from a range [r - width, r] of
    the tail table; bucket by bucket it must give what the walk of each q
    alone gives.  (1, 400) is the widest window the verify sweeps come
    near, where one probe per d would cost width + 1 lookups a head;
    (925, 945) holds the two probes to each other at the top of the
    benchmark's listing range (its digest genus 943 among them)."""
    q_lo, q_hi = window
    buckets = _coefficient_tuples(q_lo, q_hi)
    assert list(buckets) == list(range(q_lo, q_hi + 1))
    for q, cs in buckets.items():
        got = [_flat(c) for c in cs]
        assert len(set(got)) == len(got), q
        assert set(got) == {_flat(c) for c in _one_genus_walk(q)}, q


@pytest.mark.parametrize("window", [(249, 260), (500, 520)])
def test_window_ends_keep_their_nonzero_tails(window):
    """Nonzero tails land on both ends of a head's range: on q = q_hi
    (d = 0) and on q = q_lo (d = width), for heads whose last entry is set
    and for all-zero completions alike."""
    q_lo, q_hi = window
    buckets = _coefficient_tuples(q_lo, q_hi)
    for q in (q_lo, q_hi):
        tails = [c for c in buckets[q] if c[2]]  # a9 >= 1
        assert any(head[6] for _, head, _, _ in tails), q
        assert any(not head[6] for _, head, _, _ in tails), q
        assert {_flat(c) for c in tails} == {
            _flat(c) for c in _one_genus_walk(q) if c[2]
        }, q


def test_genus_one_thousand_count():
    """The component count at g = 1000 quoted in ROADMAP item 2."""
    assert len(enumerate_components(1000)) == 13743


def test_profiles_agree_with_quadratic_search():
    for g in range(2, 21):
        via = sorted({m.phi for m in enumerate_components(g)}, key=order_key)
        assert via == _profiles_by_genus(g, g)[g]


def test_dominating_component_report():
    results = {r.name: r.passed for r in run_suite("dominating")}
    assert results["genus of the big class is 621"]
    assert results["oracle profile agrees"]  # with the profile (30,...,39)
    assert all(results.values())
    assert results["substitution map hits the target profile"]


def test_bounds_audit(monkeypatch):
    genera = []
    walk = enriques.verify.coefficients_by_genus

    def recording_walk(g_lo, g_hi):
        for g, coeffs in walk(g_lo, g_hi):
            genera.append(g)
            assert all(type(c) is tuple and len(c) == 4 for c in coeffs), g
            yield g, coeffs

    monkeypatch.setattr(enriques.verify, "coefficients_by_genus", recording_walk)
    results = run_suite("bounds", 40)
    assert all(r.passed for r in results)
    assert genera == list(range(2, 41))
    assert results[0].detail == "435 components"


def test_component_coefficients_carry_their_genus():
    for m in enumerate_components(11):
        assert quadratic_value(m.coefficients) == 10
        assert m.coefficients.eps == m.eps


def test_enumeration_is_deterministic():
    assert enumerate_components(17) == enumerate_components(17)
