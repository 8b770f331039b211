"""Cross-check suites and the second-route enumerators behind them."""

import pytest

import enriques.components
import enriques.verify
from enriques.components import components_by_genus
from enriques.oracle import PhiVector, order_key
from enriques.verify import (
    SUITES,
    golden_low_phi,
    iter_phi_profiles,
    phi_profiles_by_genus,
    phi_profiles_direct,
    run_suite,
)


def test_every_suite_passes_at_default_scale():
    for name in SUITES:
        results = run_suite(name)
        assert results, name
        assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_sweeps_enumerate_each_genus_once(monkeypatch):
    """Each sweep walks the coefficients once over the window [2, gmax], and
    roundtrip searches the profiles once over it; fixed spot checks at
    g <= 7 may add width-zero windows."""
    walks, searches = [], []
    walk = enriques.components._coefficient_tuples
    search = enriques.verify.phi_profiles_by_genus

    def counting_walk(q_lo, q_hi):
        walks.append((q_lo + 1, q_hi + 1))  # as genera
        return walk(q_lo, q_hi)

    def counting_search(g_lo, g_hi):
        searches.append((g_lo, g_hi))
        return search(g_lo, g_hi)

    monkeypatch.setattr(enriques.components, "_coefficient_tuples", counting_walk)
    monkeypatch.setattr(enriques.verify, "phi_profiles_by_genus", counting_search)
    for name, gmax in (("roundtrip", 15), ("paper-tables", 30), ("bounds", 40)):
        walks.clear()
        searches.clear()
        assert all(r.passed for r in run_suite(name)), name
        assert [w for w in walks if w[1] > 7] == [(2, gmax)], (name, walks)
        assert all(lo == hi for lo, hi in walks if hi <= 7), (name, walks)
        assert searches == ([(2, gmax)] if name == "roundtrip" else []), (name, searches)


def test_profile_window_matches_its_slice_and_the_coefficient_route():
    inner = phi_profiles_by_genus(37, 45)
    outer = phi_profiles_by_genus(2, 45)
    comps = dict(components_by_genus(37, 45))
    assert list(inner) == list(comps) == list(range(37, 46))
    for g in range(37, 46):
        assert inner[g] == outer[g], g
        assert inner[g] == sorted({m.phi.phis for m in comps[g]}, key=order_key), g
        assert inner[g] == phi_profiles_direct(g), g


def test_run_suite_rejects_unknown_names():
    with pytest.raises(ValueError):
        run_suite("everything")


def test_direct_profiles_for_small_genus():
    assert phi_profiles_direct(2) == [(1, 1, 2, 2, 2, 2, 2, 2, 2, 2)]
    got = phi_profiles_direct(5)
    assert (2, 2, 4, 4, 4, 4, 4, 4, 4, 4) in got
    assert len(got) == 3
    with pytest.raises(ValueError):
        phi_profiles_direct(1)


def test_direct_profiles_all_have_the_right_genus():
    for g in (7, 13, 22):
        for t in phi_profiles_direct(g):
            assert PhiVector(t).genus() == g


def test_profile_iterator_yields_valid_profiles_in_order():
    seen = list(iter_phi_profiles(36))
    assert seen
    totals = [p.total() for p in seen]
    assert totals == sorted(totals)
    assert len({p.phis for p in seen}) == len(seen)
    assert all(p.total() <= 36 for p in seen)


def test_golden_tables_at_genus_two():
    rows = golden_low_phi(2)
    assert rows[1] == [((1, 1, 2, 2, 2, 2, 2, 2, 2, 2), 0)]
    assert rows[2] == [] and rows[3] == []


def test_golden_tables_split_even_rows():
    rows = golden_low_phi(5)[2]
    assert ((2, 2, 4, 4, 4, 4, 4, 4, 4, 4), 0) in rows
    assert ((2, 2, 4, 4, 4, 4, 4, 4, 4, 4), 1) in rows


def test_gmax_scales_the_suites():
    deep = run_suite("roundtrip", gmax=20)
    assert any("g <= 20" in r.name for r in deep)
    assert all(r.passed for r in deep)
    tables = run_suite("paper-tables", gmax=35)
    assert all(r.passed for r in tables)
