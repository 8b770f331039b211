"""Cross-check suites and the second-route enumerators behind them."""

from collections import Counter

import pytest

import enriques.components
import enriques.verify
from enriques.oracle import PhiVector
from enriques.verify import (
    SUITES,
    golden_low_phi,
    iter_phi_profiles,
    phi_profiles_direct,
    run_suite,
)


def test_every_suite_passes_at_default_scale():
    for name in SUITES:
        results = run_suite(name)
        assert results, name
        assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_sweeps_enumerate_each_genus_once(monkeypatch):
    calls = Counter()
    original = enriques.components.enumerate_components

    def counting(g):
        calls[g] += 1
        return original(g)

    monkeypatch.setattr(enriques.components, "enumerate_components", counting)
    monkeypatch.setattr(enriques.verify, "enumerate_components", counting)
    for name in ("roundtrip", "paper-tables", "bounds"):
        calls.clear()
        assert all(r.passed for r in run_suite(name)), name
        # genera up to 7 also serve fixed spot checks
        swept = {g: n for g, n in calls.items() if g > 7}
        assert swept and set(swept.values()) == {1}, (name, swept)


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
