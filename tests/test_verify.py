"""Cross-check suites and the second-route enumerators behind them."""

from itertools import combinations_with_replacement
from math import isqrt

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

import enriques.components
import enriques.verify
from enriques.components import (
    coefficients_by_genus,
    components_by_genus,
    enumerate_components,
    enumerate_components_by_phi,
    iter_components,
)
from enriques.fundamental import (
    FundamentalCoefficients,
    phivector_from_coefficients,
    quadratic_value,
)
from enriques.lattice import RANK
from enriques.oracle import PhiVector, order_key
from enriques.verify import (
    SUITES,
    CheckResult,
    _iter_coefficient_tuples,
    _golden_low_phi,
    _profiles_by_genus,
    run_suite,
)
from reference import iter_phi_profiles, profiles_by_genus_unpruned


# One check that only the named suite runs.
_SUITE_MARKS = {
    "lattice": "gram determinant is -1",
    "roundtrip": "coefficients -> profile -> coefficients",
    "paper-tables": "small-genus component names",
    "dominating": "genus of the big class is 621",
    "bounds": "every genus has a component",
}


def test_every_suite_passes_at_default_scale():
    """Every name in SUITES dispatches to its own suite, and it passes."""
    assert list(SUITES) == list(_SUITE_MARKS)
    for name in SUITES:
        results = run_suite(name)
        assert _SUITE_MARKS[name] in [r.name for r in results], name
        assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_suites_dispatch_through_the_module_attributes(monkeypatch):
    """run_suite calls whatever each `suite_*` name holds when it runs, so
    a wrapper put on the module attribute sees every suite."""
    for name in SUITES:
        attr = "suite_" + name.replace("-", "_")
        monkeypatch.setattr(enriques.verify, attr, lambda *a, attr=attr: [attr])
        assert run_suite(name, 3) == [attr], name


@pytest.mark.parametrize("name", ["lattice", "dominating"])
def test_fixed_class_suites_ignore_gmax(name):
    """`verify --gmax` is accepted for every suite; these two check fixed
    classes and ignore it."""
    assert run_suite(name, 100) == run_suite(name)


def test_sweeps_enumerate_each_genus_once(monkeypatch):
    """Each sweep walks the coefficients once over the window [2, gmax], and
    roundtrip searches the profiles once over it; fixed spot checks at
    g <= 7 may add width-zero windows."""
    walks, searches = [], []
    walk = enriques.components._coefficient_tuples
    search = enriques.verify._profiles_by_genus

    def counting_walk(q_lo, q_hi):
        walks.append((q_lo + 1, q_hi + 1))  # as genera
        return walk(q_lo, q_hi)

    def counting_search(g_lo, g_hi):
        searches.append((g_lo, g_hi))
        return search(g_lo, g_hi)

    monkeypatch.setattr(enriques.components, "_coefficient_tuples", counting_walk)
    monkeypatch.setattr(enriques.verify, "_profiles_by_genus", counting_search)
    for name, gmax in (("roundtrip", 15), ("paper-tables", 30), ("bounds", 40)):
        walks.clear()
        searches.clear()
        assert all(r.passed for r in run_suite(name)), name
        assert [w for w in walks if w[1] > 7] == [(2, gmax)], (name, walks)
        assert all(lo == hi for lo, hi in walks if hi <= 7), (name, walks)
        assert searches == ([(2, gmax)] if name == "roundtrip" else []), (name, searches)


def test_roundtrip_details_count_one_pass_over_the_tuples():
    """The three coefficient checks share one pass over the tuples of total
    at most 10; the profile check walks every profile of sum at most 45."""
    tuples = list(_iter_coefficient_tuples(10))
    big = sum(1 for c in tuples if quadratic_value(c) >= 1)
    details = {r.name: r.detail for r in run_suite("roundtrip", 2)}
    assert details["coefficients -> profile -> coefficients"] == f"{big} tuples"
    assert details["square equals twice the quadratic value"] == f"{len(tuples)} tuples"
    profiles = len(list(iter_phi_profiles(45)))
    assert details["profile -> coefficients -> profile"] == f"{profiles} profiles"


@pytest.mark.parametrize("gmax", [2, 15])
def test_profile_round_trip_converts_the_profiles_of_the_plain_walk(monkeypatch, gmax):
    """The profile round trip takes the profiles of total at most 45 from
    the suite's one profile search, at any gmax: each profile that the
    plain reference walk finds, once."""
    converted = []
    convert = enriques.verify.coefficients_from_phivector

    def recording(p, eps=0):
        if isinstance(p, tuple):  # the coefficient pass converts PhiVectors
            converted.append(p)
        return convert(p, eps)

    monkeypatch.setattr(enriques.verify, "coefficients_from_phivector", recording)
    details = {r.name: r.detail for r in run_suite("roundtrip", gmax)}
    assert details["profile -> coefficients -> profile"] == "21 profiles"
    walked = [p.phis for p in iter_phi_profiles(45)]
    assert len(walked) == 21
    assert sorted(converted) == sorted(walked)


def test_split_check_sees_a_missing_split_row(monkeypatch):
    """Closed-form tables that drop the eps = 1 row at g = 9 (= 1 mod 4)
    fail the odd-genus split check inside the sweep."""
    golden = enriques.verify._golden_low_phi

    def without_split(g):
        rows = golden(g)
        if g == 9:
            assert any(eps == 1 for _, eps in rows[2])
            rows[2] = [row for row in rows[2] if row[1] == 0]
        return rows

    monkeypatch.setattr(enriques.verify, "_golden_low_phi", without_split)
    failed = [r.name for r in run_suite("paper-tables", 15) if not r.passed]
    assert failed == [
        "smallest-entry-2 table matches closed formulas for g <= 15",
        "odd-genus smallest-entry-2 rows split exactly when g = 1 mod 4",
    ]


def test_profile_window_matches_its_slice_and_the_coefficient_route():
    inner = _profiles_by_genus(37, 45)
    outer = _profiles_by_genus(2, 45)
    comps = dict(components_by_genus(37, 45))
    assert list(inner) == list(comps) == list(range(37, 46))
    for g in range(37, 46):
        assert inner[g] == outer[g], g
        assert inner[g] == sorted({m.phi for m in comps[g]}, key=order_key), g
        assert inner[g] == _profiles_by_genus(g, g)[g], g


@pytest.mark.parametrize("window", [(2, 60), (37, 45)])
def test_profile_search_matches_its_unpruned_reference_on_windows(window):
    """The search that breaks its loop at the first child the greedy bound
    rules out gives the dict of the one that enters every child."""
    assert _profiles_by_genus(*window) == profiles_by_genus_unpruned(*window)


def test_profile_search_matches_its_unpruned_reference_at_single_genera():
    """Each genus up to 150 on its own, where the square-sum window has
    width 0 and the greedy bound prunes hardest, against the reference's
    window (2, 150): both searches are complete, so a single genus of the
    reference is its slice of the window (the window test above and
    `test_profile_window_matches_its_slice_and_the_coefficient_route`)."""
    want = profiles_by_genus_unpruned(2, 150)
    for g in range(2, 151):
        assert _profiles_by_genus(g, g) == {g: want[g]}, g


@pytest.mark.parametrize("g", [300, 400])
def test_profile_search_certifies_the_listing_at_a_large_genus(g):
    """The listing of one large genus has the profiles the quadratic
    search finds for it alone."""
    listed = sorted({m.phi for m in iter_components(g)}, key=order_key)
    assert _profiles_by_genus(g, g)[g] == listed


@seed(20261020)
@settings(max_examples=300, deadline=None)
@given(st.integers(1, RANK - 1), st.integers(1, 60), st.data())
def test_the_greedy_bound_grows_with_the_leading_entry(n, v, data):
    """v^2 + `_most_squares(n, v, r - v)`, the most the leading entry v and
    n entries in [1, v] below it can square to, is nondecreasing in v on
    n <= r - v <= n v, the range the search's loop keeps: so the loop,
    which runs v downwards, may stop at the first v the bound rules out.
    Drawn with both v and v + 1 in that range."""
    most = enriques.verify._most_squares
    assume(n * v >= n + 1)
    r = v + data.draw(st.integers(n + 1, n * v), label="r - v")
    assert v * v + most(n, v, r - v) <= (v + 1) ** 2 + most(n, v + 1, r - v - 1), r


def test_most_squares_is_the_largest_square_sum():
    """Against every multiset of k entries in [1, hi]: a bound that is too
    small prunes profiles, and one that is too large prunes too little."""
    most = enriques.verify._most_squares
    for k in range(1, RANK + 1):
        for hi in range(1, 7):
            best = {}
            for entries in combinations_with_replacement(range(1, hi + 1), k):
                r = sum(entries)
                best[r] = max(best.get(r, 0), sum(v * v for v in entries))
            assert sorted(best) == list(range(k, k * hi + 1))
            for r, squares in best.items():
                assert most(k, hi, r) == squares, (k, hi, r)


def test_profile_search_matches_the_walk_to_genus_120():
    """Every genus up to 120 gives the walk's profiles.  The search prunes
    on `_most_squares` at every node, so a bound below the true largest
    square sum shows up as a missing profile somewhere in the window."""
    search = _profiles_by_genus(2, 120)
    assert list(search) == list(range(2, 121))
    for g, rows in components_by_genus(2, 120):
        assert search[g] == sorted({m.phi for m in rows}, key=order_key), g


def test_profile_search_matches_the_plain_profile_walk():
    """Against iter_phi_profiles, which walks every valid profile up to a
    total and knows nothing of the square-sum window or the prunes.  One
    walk to the bound of g = 10 covers the bound of every smaller genus."""
    window = _profiles_by_genus(2, 10)
    walked = {g: [] for g in range(2, 11)}
    for p in iter_phi_profiles(3 * (3 * 10 + isqrt(10) + 2)):
        if p.genus() in walked:
            walked[p.genus()].append(p.phis)
    assert list(window) == list(walked)
    for g, profiles in walked.items():
        assert profiles
        assert window[g] == sorted(profiles, key=order_key), g


@pytest.mark.parametrize(
    "call",
    [
        lambda: enumerate_components_by_phi(5, 2.5),
        lambda: enumerate_components(5.0),
        lambda: components_by_genus(2.0, 3),
        lambda: components_by_genus(2, 3.0),
        lambda: coefficients_by_genus(2, 3.0),
        lambda: iter_components(5.0),
        lambda: iter_components(True),
    ],
    ids=[
        "smallest-entry",
        "one-genus",
        "window-bottom",
        "window-top",
        "coefficient-window",
        "listing",
        "listing-bool",
    ],
)
def test_a_non_integer_genus_or_smallest_entry_is_rejected(call):
    """A float would otherwise fail every candidate's integer check and give
    an empty answer, or reach `range` as a bare TypeError."""
    with pytest.raises(ValueError, match="integer"):
        call()


def _walk_tuple(m):
    """The walk's plain tuple (a0, head, a9, a10) of a component row."""
    c = m.coefficients
    return (c.a0, c.head, c.a9, c.a10)


def _bounds_over(monkeypatch, edit):
    """Run the bounds suite over the real window of g <= 15 with the
    coefficient tuples of each genus passed through edit(g, coeffs)."""
    walk = enriques.verify.coefficients_by_genus
    monkeypatch.setattr(
        enriques.verify,
        "coefficients_by_genus",
        lambda g_lo, g_hi: ((g, edit(g, coeffs)) for g, coeffs in walk(g_lo, g_hi)),
    )
    return run_suite("bounds", 15)


@pytest.mark.parametrize(
    "genus, source, phi1, words",
    [(2, 5, 2, "phi_1^2 exceeds 2g-2"), (14, 15, 5, "enters the forbidden gap")],
    ids=["square-bound", "gap"],
)
def test_bounds_check_names_a_row_that_breaks_a_bound(monkeypatch, genus, source, phi1, words):
    """A genus-5 tuple with phi_1 = 2 moved to genus 2 has 4 > 2g - 2 = 2; a
    genus-15 tuple with phi_1 = 5 moved to genus 14 has 25 < 26 < 28.  Both
    are odd, so each names one row."""
    [row, *_] = enumerate_components_by_phi(source, phi1)
    results = _bounds_over(
        monkeypatch, lambda g, coeffs: coeffs + [_walk_tuple(row)] if g == genus else coeffs
    )
    assert [r.passed for r in results] == [False, True, True]
    assert results[0].detail == f"{row.name}: {words}"


def test_bounds_check_names_both_sheets_of_an_even_tuple(monkeypatch):
    """An all-even tuple stands for two rows: moved to a genus where it
    breaks a bound, it is named on both sheets, in row order, as the rows
    of the window name it."""
    comps = enumerate_components_by_phi(5, 2)
    even = [m for m in comps if m.two_divisible]
    assert [m.eps for m in even] == [0, 1]
    results = _bounds_over(
        monkeypatch, lambda g, coeffs: coeffs + [_walk_tuple(even[0])] if g == 2 else coeffs
    )
    assert [r.passed for r in results] == [False, True, True]
    assert results[0].detail == "; ".join(f"{m.name}: phi_1^2 exceeds 2g-2" for m in even)


def test_bounds_check_sees_a_genus_without_components(monkeypatch):
    results = _bounds_over(monkeypatch, lambda g, coeffs: [] if g == 7 else coeffs)
    assert [r.passed for r in results] == [True, False, True]
    assert results[1].name == "every genus has a component"


def _bounds_from_rows(gmax):
    """The bounds suite's sweep checks, read off the window's rows."""
    n, violations, every_genus = 0, [], True
    for g, comps in components_by_genus(2, gmax):
        n += len(comps)
        every_genus &= bool(comps)
        for m in comps:
            p1 = m.phi[0]
            if p1 * p1 > 2 * g - 2:
                violations.append(f"{m.name}: phi_1^2 exceeds 2g-2")
            if p1 * p1 < 2 * g - 2 < p1 * p1 + p1 - 2:
                violations.append(f"{m.name}: enters the forbidden gap")
    return [
        CheckResult(
            f"no component with g <= {gmax} breaks the square bound or enters the gap",
            not violations,
            "; ".join(violations[:5]) if violations else f"{n} components",
        ),
        CheckResult("every genus has a component", every_genus),
    ]


def _paper_tables_from_rows(gmax):
    """The paper-tables suite's closed-form checks, read off the window's
    rows."""
    failures, split_ok = {}, True
    for g, comps in components_by_genus(2, gmax):
        golden = enriques.verify._golden_low_phi(g)
        if g % 2:
            split_ok &= any(eps == 1 for _, eps in golden[2]) == (g % 4 == 1)
        for k in (1, 2, 3):
            got = [(m.phi, m.eps) for m in comps if m.phi[0] == k]
            if k not in failures and sorted(got) != sorted(golden[k]):
                failures[k] = f"g={g}: expected {golden[k]}, got {got}"
    return [
        CheckResult(
            f"smallest-entry-{k} table matches closed formulas for g <= {gmax}",
            k not in failures,
            failures.get(k, ""),
        )
        for k in (1, 2, 3)
    ] + [CheckResult("odd-genus smallest-entry-2 rows split exactly when g = 1 mod 4", split_ok)]


@pytest.mark.parametrize("gmax", [2, 3, 15, 40, 100, 150])
def test_tuple_sweeps_match_the_row_sweeps(gmax):
    """bounds and paper-tables read the walk's coefficient tuples; each of
    their sweep checks gives what the same check gives on the window's
    component rows, name, verdict and detail."""
    for name, from_rows in (("bounds", _bounds_from_rows), ("paper-tables", _paper_tables_from_rows)):
        want = from_rows(gmax)
        assert run_suite(name, gmax)[: len(want)] == want, (name, gmax)


def test_failing_tables_list_the_rows_in_row_order(monkeypatch):
    """With no closed-form rows at g = 9 every table fails there (and so
    does the split check, since 9 = 1 mod 4), and each detail lists the
    genus's rows of that smallest entry as the window's rows give them: at
    smallest entry 3, the total-39 profile (3,4,...,4) before the total-45
    profile (3,3,4,5,...,5)."""
    golden = enriques.verify._golden_low_phi
    monkeypatch.setattr(
        enriques.verify,
        "_golden_low_phi",
        lambda g: {1: [], 2: [], 3: []} if g == 9 else golden(g),
    )
    want = _paper_tables_from_rows(15)
    assert [r.passed for r in want] == [False, False, False, False]
    assert "got [((3, 4, 4, 4, 4, 4, 4, 4, 4, 4), 0), ((3, 3, 4," in want[2].detail
    assert run_suite("paper-tables", 15)[:4] == want


def test_paper_tables_see_a_missing_tuple(monkeypatch):
    """A window without the phi_1 = 1 tuple at g = 9 fails the smallest-
    entry-1 table there, and no other check."""
    walk = enriques.verify.coefficients_by_genus

    def without_phi1(g_lo, g_hi):
        for g, coeffs in walk(g_lo, g_hi):
            if g == 9:
                kept = [
                    c for c in coeffs
                    if phivector_from_coefficients(FundamentalCoefficients(*c)).phis[0] != 1
                ]
                assert len(kept) == len(coeffs) - 1
                coeffs = kept
            yield g, coeffs

    monkeypatch.setattr(enriques.verify, "coefficients_by_genus", without_phi1)
    failed = [r for r in run_suite("paper-tables", 15) if not r.passed]
    assert [r.name for r in failed] == [
        "smallest-entry-1 table matches closed formulas for g <= 15"
    ]
    assert failed[0].detail == f"g=9: expected {_golden_low_phi(9)[1]}, got []"


def test_dominating_checks_fail_on_a_wrong_oracle_profile(monkeypatch):
    oracle = enriques.verify.phi_vector_oracle

    def wrong_profile(L, max_sequences=1000):
        _, sequences = oracle(L, max_sequences)
        return PhiVector((3,) * 10), sequences

    monkeypatch.setattr(enriques.verify, "phi_vector_oracle", wrong_profile)
    failed = [r.name for r in run_suite("dominating") if not r.passed]
    assert failed == ["oracle profile agrees", "substitution map hits the target profile"]


def test_run_suite_rejects_unknown_names():
    with pytest.raises(ValueError) as exc:
        run_suite("everything")
    assert str(exc.value) == (
        "unknown suite 'everything'; choose from "
        "lattice, roundtrip, paper-tables, dominating, bounds"
    )


@pytest.mark.parametrize("gmax", [1, 0, -5, 2.5, "30"])
@pytest.mark.parametrize("name", ["roundtrip", "paper-tables", "bounds"])
def test_scaling_suites_reject_an_empty_or_malformed_genus_range(name, gmax):
    """Below 2 the swept range 2..gmax is empty, and every check would pass
    over no genus at all."""
    with pytest.raises(ValueError, match="gmax"):
        run_suite(name, gmax)


# The fields of a row as `_rows` builds it, a plain tuple.
_ROW_FIELDS = (
    "total", "phi", "eps", "name", "two_divisible", "unirational", "a0", "head", "a9", "a10",
)


def _with(row, **fields):
    """The `_rows` row with the named fields replaced."""
    return tuple(fields.get(name, v) for name, v in zip(_ROW_FIELDS, row))


def _coefficients(row):
    """The coefficient fields of a `_rows` row, by name."""
    return dict(zip(_ROW_FIELDS[6:], row[6:]))


# Each takes genus 5's eps = 1 row and its first odd row, and returns a row
# to replace and its replacement.  None changes the genus's row count or its
# set of profiles, so only a per-row check can see it.
_SPLIT_ROW_MUTATIONS = {
    "split-row-on-an-odd-profile": lambda split, odd: (
        split,
        _with(split, phi=odd[1], two_divisible=False, **_coefficients(odd)),
    ),
    "split-row-with-odd-coefficients": lambda split, odd: (
        split,
        _with(split, **_coefficients(odd)),
    ),
    "odd-row-flagged-two-divisible": lambda split, odd: (
        odd,
        _with(odd, two_divisible=True),
    ),
}


@pytest.mark.parametrize("mutation", list(_SPLIT_ROW_MUTATIONS))
def test_double_cover_check_sees_a_misplaced_split_row(monkeypatch, mutation):
    """A walk that keeps every genus's row count and profile set but breaks
    the double cover on one row of genus 5 must fail the fiber check.  The
    sweeps build a genus's rows in one call; a one-genus listing builds
    them one profile total at a time, and a total of genus 5 holds no split
    row and odd row together, so the mutation leaves those calls alone."""
    rows_of = enriques.components._rows

    def mutated_rows(g, coeffs):
        rows = rows_of(g, coeffs)
        split = next((row for row in rows if row[2] == 1), None)
        odd = next((row for row in rows if not row[4]), None)
        if g != 5 or split is None or odd is None:
            return rows
        old, new = _SPLIT_ROW_MUTATIONS[mutation](split, odd)
        return [new if row is old else row for row in rows]

    monkeypatch.setattr(enriques.components, "_rows", mutated_rows)
    # genus 5 read off a window, which builds it in one call
    [(_, rows), _] = components_by_genus(5, 6)
    direct = _profiles_by_genus(5, 5)[5]
    assert len(rows) == len(direct) + 1
    assert {m.phi for m in rows} == set(direct)
    results = {r.name: r.passed for r in run_suite("roundtrip")}
    assert results["double-cover fiber count for g <= 15"] is False
    assert results["profile sets agree with quadratic search for g <= 15"] is True


def test_direct_profiles_for_small_genus():
    assert _profiles_by_genus(2, 2)[2] == [(1, 1, 2, 2, 2, 2, 2, 2, 2, 2)]
    got = _profiles_by_genus(5, 5)[5]
    assert (2, 2, 4, 4, 4, 4, 4, 4, 4, 4) in got
    assert len(got) == 3


def test_direct_profiles_all_have_the_right_genus():
    for g in (7, 13, 22):
        for t in _profiles_by_genus(g, g)[g]:
            assert PhiVector(t).genus() == g


def test_profile_iterator_yields_valid_profiles_in_order():
    seen = list(iter_phi_profiles(36))
    assert seen
    totals = [sum(p.phis) for p in seen]
    assert totals == sorted(totals)
    assert len({p.phis for p in seen}) == len(seen)
    assert all(sum(p.phis) <= 36 for p in seen)


def test_golden_tables_at_genus_two():
    rows = _golden_low_phi(2)
    assert rows[1] == [((1, 1, 2, 2, 2, 2, 2, 2, 2, 2), 0)]
    assert rows[2] == [] and rows[3] == []


def test_golden_tables_split_even_rows():
    rows = _golden_low_phi(5)[2]
    assert ((2, 2, 4, 4, 4, 4, 4, 4, 4, 4), 0) in rows
    assert ((2, 2, 4, 4, 4, 4, 4, 4, 4, 4), 1) in rows


def test_gmax_scales_the_suites():
    deep = run_suite("roundtrip", gmax=20)
    assert any("g <= 20" in r.name for r in deep)
    assert all(r.passed for r in deep)
    tables = run_suite("paper-tables", gmax=35)
    assert all(r.passed for r in tables)
