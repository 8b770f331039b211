"""Search oracle: isotropic enumeration, profile minima, sequences."""

import pytest
from hypothesis import given, strategies as st

from enriques.fundamental import (
    iter_coefficient_tuples,
    phivector_from_coefficients,
    quadratic_value,
)
from enriques.lattice import (
    D,
    NumClass,
    RANK,
    ZERO,
    generator_e,
    generator_pair,
    pair,
    self_int,
    standard_sequence,
)
from enriques.oracle import (
    IsotropicSequence,
    PhiVector,
    box_isotropics,
    eight_lowest,
    enumerate_isotropics,
    order_key,
    phi,
    phi_vector_oracle,
)

coords_st = st.tuples(*([st.integers(-9, 9)] * RANK))
classes_st = coords_st.map(NumClass)

E = [None] + [generator_e(i) for i in range(1, 11)]


def pairings(x):
    """(x.E_1, ..., x.E_10) against the standard sequence."""
    return tuple(pair(x, f) for f in standard_sequence())


def test_tuple_order():
    assert order_key((1, 1, 2)) == order_key((1, 1, 2))
    # smaller total wins first
    assert order_key((2, 2, 2)) < order_key((1, 2, 4))
    # at equal totals the first nine entries break the tie
    assert order_key((1, 2, 4)) < order_key((1, 3, 3))
    assert order_key((1, 3, 3)) < order_key((2, 2, 3))


def test_phivector_accepts_valid():
    p = PhiVector((1, 1, 2, 2, 2, 2, 2, 2, 2, 2))
    assert p.total() == 18
    assert p.genus() == 2
    assert not p.all_even()
    assert PhiVector((9,) * 10).all_even() is False
    assert PhiVector((2, 2, 4, 4, 4, 4, 4, 4, 4, 4)).all_even()


@pytest.mark.parametrize(
    "bad",
    [
        (1, 1, 2, 2, 2, 2, 2, 2, 2),  # nine entries
        (2, 1, 2, 2, 2, 2, 2, 2, 2, 2),  # not sorted
        (1, 1, 1, 2, 2, 2, 2, 2, 2, 2),  # sum not divisible by 3
        (0, 1, 2, 2, 2, 2, 2, 3, 3, 2),  # nonpositive entry
        (1, 1, 1, 1, 1, 1, 1, 4, 4, 4),  # head lighter than twice the tail
    ],
)
def test_phivector_rejects_invalid(bad):
    with pytest.raises(ValueError):
        PhiVector(bad)


def test_isotropic_sequence_validation():
    seq = IsotropicSequence(standard_sequence())
    assert len(seq.members) == 10
    with pytest.raises(ValueError):
        IsotropicSequence(standard_sequence()[:9] + (D,))  # not isotropic
    with pytest.raises(ValueError):
        IsotropicSequence((E[1],) * 10)  # pairings 0
    with pytest.raises(ValueError):
        IsotropicSequence(standard_sequence()[:9] + (-E[10],))  # not positive


def test_values_against():
    seq = IsotropicSequence(standard_sequence())
    assert seq.values_against(3 * D) == (9,) * 10
    assert seq.values_against(E[1] + E[2]) == (1, 1, 2, 2, 2, 2, 2, 2, 2, 2)


def test_pairing_tuple():
    assert pairings(D) == (3,) * 10
    assert pairings(E[1]) == (0,) + (1,) * 9
    assert pairings(generator_pair(1, 2)) == (2, 2, 1, 1, 1, 1, 1, 1, 1, 1)


@given(classes_st)
def test_dual_frame_identity(x):
    """Nine times the square, recovered from the standard pairings alone."""
    m = pairings(x)
    assert 9 * self_int(x) == sum(m) ** 2 - 9 * sum(v * v for v in m)


def test_isotropics_meeting_triple_d_in_nine():
    hits = enumerate_isotropics(3 * D, 9)
    assert len(hits) == 10
    assert set(hits) == set(standard_sequence())
    assert all(pair(x, 3 * D) == 9 for x in hits)


def test_isotropics_meeting_triple_d_in_twelve():
    hits = enumerate_isotropics(3 * D, 12)
    expected = {E[i] for i in range(1, 11)}
    expected |= {generator_pair(i, j) for i in range(1, 11) for j in range(i + 1, 11)}
    assert len(hits) == 55
    assert set(hits) == expected


def test_isotropics_sorted_and_positive():
    hits = enumerate_isotropics(3 * D, 12)
    vals = [pair(x, 3 * D) for x in hits]
    assert vals == sorted(vals)
    assert all(v >= 1 for v in vals)


def test_enumeration_is_layer_stable():
    for L in (3 * D, E[1] + E[2], 2 * E[1] + generator_pair(1, 2)):
        cap = phi(L) + 3
        assert enumerate_isotropics(L, cap) == enumerate_isotropics(
            L, cap, extra_layers=2
        )


def test_enumerate_rejects_degenerate_input():
    with pytest.raises(ValueError):
        enumerate_isotropics(ZERO, 5)
    with pytest.raises(ValueError):
        enumerate_isotropics(E[1], 5)  # isotropic, not big


def test_box_scan_agrees_within_its_box():
    full = enumerate_isotropics(3 * D, 12)
    boxed = box_isotropics(3 * D, 12, box=2)
    assert boxed == [x for x in full if max(abs(c) for c in x.coords) <= 2]
    assert len(boxed) == 54  # e_10 has a coordinate 3 and falls outside


@pytest.mark.slow
def test_box_scan_with_wider_box_is_complete():
    assert set(box_isotropics(3 * D, 12, box=3)) == set(enumerate_isotropics(3 * D, 12))


def test_phi_values():
    assert phi(D) == 3
    assert phi(3 * D) == 9
    assert phi(E[1] + E[2]) == 1
    assert phi(2 * E[1] + generator_pair(1, 2)) == 2


def test_eight_lowest():
    assert eight_lowest(3 * D) == (9,) * 8
    assert eight_lowest(E[1] + E[2]) == (1, 1, 2, 2, 2, 2, 2, 2)


def test_oracle_on_triple_d():
    p, seqs = phi_vector_oracle(3 * D)
    assert p.phis == (9,) * 10
    assert len(seqs) == 1
    assert set(seqs[0].members) == set(standard_sequence())


def test_oracle_on_genus_two():
    p, seqs = phi_vector_oracle(E[1] + E[2], max_sequences=5)
    assert p.phis == (1, 1, 2, 2, 2, 2, 2, 2, 2, 2)
    assert len(seqs) == 5  # truncated: far more sequences attain the minimum


def test_oracle_respects_sequence_limit():
    _, seqs = phi_vector_oracle(E[1] + E[2], max_sequences=1)
    assert len(seqs) == 1
    L = 6 * E[1] + E[2]
    p, _ = phi_vector_oracle(L, max_sequences=1)
    assert p.phis == (1, 6, 7, 7, 7, 7, 7, 7, 7, 7)


def test_oracle_sequences_compute_the_profile():
    L = 2 * E[1] + 2 * E[2]
    p, seqs = phi_vector_oracle(L, max_sequences=3)
    assert p.phis == (2, 2, 4, 4, 4, 4, 4, 4, 4, 4)
    for s in seqs:
        assert tuple(sorted(s.values_against(L))) == p.phis


def test_oracle_matches_closed_form_on_small_tuples():
    for c in iter_coefficient_tuples(5):
        if quadratic_value(c) < 1:
            continue
        L = c.divisor_class().num
        got, _ = phi_vector_oracle(L, max_sequences=1)
        assert got == phivector_from_coefficients(c), c
