"""Cross-check suites and the second-route enumerators behind them."""

from itertools import combinations_with_replacement
from math import isqrt

import pytest

import enriques.components
import enriques.verify
from enriques.components import (
    components_by_genus,
    enumerate_components,
    enumerate_components_by_phi,
    iter_components,
)
from enriques.fundamental import quadratic_value
from enriques.lattice import RANK
from enriques.oracle import PhiVector, order_key
from enriques.verify import (
    SUITES,
    _iter_coefficient_tuples,
    _golden_low_phi,
    _profiles_by_genus,
    run_suite,
)
from reference import iter_phi_profiles


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
        lambda: iter_components(5.0),
        lambda: iter_components(True),
    ],
    ids=[
        "smallest-entry",
        "one-genus",
        "window-bottom",
        "window-top",
        "listing",
        "listing-bool",
    ],
)
def test_a_non_integer_genus_or_smallest_entry_is_rejected(call):
    """A float would otherwise fail every candidate's integer check and give
    an empty answer, or reach `range` as a bare TypeError."""
    with pytest.raises(ValueError, match="integer"):
        call()


def _bounds_over(monkeypatch, edit):
    """Run the bounds suite over the real window of g <= 15 with the rows of
    each genus passed through edit(g, rows)."""
    walk = enriques.verify.components_by_genus
    monkeypatch.setattr(
        enriques.verify,
        "components_by_genus",
        lambda g_lo, g_hi: ((g, edit(g, rows)) for g, rows in walk(g_lo, g_hi)),
    )
    return run_suite("bounds", 15)


@pytest.mark.parametrize(
    "genus, source, phi1, words",
    [(2, 5, 2, "phi_1^2 exceeds 2g-2"), (14, 15, 5, "enters the forbidden gap")],
    ids=["square-bound", "gap"],
)
def test_bounds_check_names_a_row_that_breaks_a_bound(monkeypatch, genus, source, phi1, words):
    """A genus-5 row with phi_1 = 2 moved to genus 2 has 4 > 2g - 2 = 2; a
    genus-15 row with phi_1 = 5 moved to genus 14 has 25 < 26 < 28."""
    [row, *_] = enumerate_components_by_phi(source, phi1)
    results = _bounds_over(monkeypatch, lambda g, rows: rows + (row,) if g == genus else rows)
    assert [r.passed for r in results] == [False, True, True]
    assert results[0].detail == f"{row.name}: {words}"


def test_bounds_check_sees_a_genus_without_components(monkeypatch):
    results = _bounds_over(monkeypatch, lambda g, rows: () if g == 7 else rows)
    assert [r.passed for r in results] == [True, False, True]
    assert results[1].name == "every genus has a component"


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


# Each takes genus 5's eps = 1 row and its first odd row, and returns a row
# to replace and its replacement.  None changes the genus's row count or its
# set of profiles, so only a per-row check can see it.
_SPLIT_ROW_MUTATIONS = {
    "split-row-on-an-odd-profile": lambda split, odd: (
        split,
        split._replace(phi=odd.phi, coefficients=odd.coefficients, two_divisible=False),
    ),
    "split-row-with-odd-coefficients": lambda split, odd: (
        split,
        split._replace(coefficients=odd.coefficients),
    ),
    "odd-row-flagged-two-divisible": lambda split, odd: (
        odd,
        odd._replace(two_divisible=True),
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
        split = next((m for m in rows if m.eps == 1), None)
        odd = next((m for m in rows if not m.two_divisible), None)
        if g != 5 or split is None or odd is None:
            return rows
        old, new = _SPLIT_ROW_MUTATIONS[mutation](split, odd)
        return tuple(new if m is old else m for m in rows)

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
