"""Coefficient parametrization, presentations, and the rewrite algorithm."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from enriques.fundamental import (
    Decomposition,
    FundamentalCoefficients,
    class_from_presentation,
    coefficients_from_phivector,
    format_coefficients,
    fundamental_presentation,
    iter_coefficient_tuples,
    parse_coefficients,
    phivector_from_coefficients,
    quadratic_value,
    rewrite_to_fundamental,
    simple_decomposition_error,
)
from enriques.lattice import (
    D,
    NumClass,
    PicClass,
    from_decomposition,
    generator_e,
    generator_pair,
    is_two_divisible,
    pair,
    self_int,
    standard_sequence,
)
from enriques.oracle import IsotropicSequence, PhiVector
from enriques.verify import iter_phi_profiles

E = [None] + [generator_e(i) for i in range(1, 11)]

DOMINATING = FundamentalCoefficients(a0=4, head=(7, 6, 5, 4, 3, 2, 1), a9=3, a10=2)

small_coeffs = list(iter_coefficient_tuples(8))
big_small_coeffs = [c for c in small_coeffs if quadratic_value(c) >= 1]


def test_coefficient_validation():
    FundamentalCoefficients(a0=1, head=(2, 1, 1, 0, 0, 0, 0), a9=1, a10=1)
    with pytest.raises(ValueError):
        FundamentalCoefficients(a0=0, head=(1, 2, 0, 0, 0, 0, 0), a9=0, a10=0)
    with pytest.raises(ValueError):  # a0 above a9 + a10
        FundamentalCoefficients(a0=3, head=(1,) * 7, a9=1, a10=1)
    with pytest.raises(ValueError):  # a0 below a9
        FundamentalCoefficients(a0=0, head=(1,) * 7, a9=1, a10=0)
    with pytest.raises(ValueError):  # a10 above a9
        FundamentalCoefficients(a0=1, head=(1,) * 7, a9=0, a10=1)
    with pytest.raises(ValueError):  # negative entry
        FundamentalCoefficients(a0=0, head=(-1, 0, 0, 0, 0, 0, 0), a9=0, a10=0)


def test_eps_requires_even_profile():
    with pytest.raises(ValueError):
        FundamentalCoefficients(a0=0, head=(1, 1, 0, 0, 0, 0, 0), a9=0, a10=0, eps=1)
    even = FundamentalCoefficients(a0=0, head=(2, 2, 0, 0, 0, 0, 0), a9=0, a10=0, eps=1)
    assert even.eps == 1


def test_quadratic_value_and_genus():
    assert quadratic_value(DOMINATING) == 620
    assert phivector_from_coefficients(DOMINATING).genus() == 621
    simple = FundamentalCoefficients(a0=0, head=(1, 1, 0, 0, 0, 0, 0), a9=0, a10=0)
    assert quadratic_value(simple) == 1
    assert phivector_from_coefficients(simple).genus() == 2


def test_profile_of_dominating_class():
    assert phivector_from_coefficients(DOMINATING).phis == tuple(range(30, 40))


def test_profile_requires_big_class():
    lone = FundamentalCoefficients(a0=0, head=(1, 0, 0, 0, 0, 0, 0), a9=0, a10=0)
    assert quadratic_value(lone) == 0
    with pytest.raises(ValueError):
        phivector_from_coefficients(lone)


def test_roundtrip_exhaustive_small():
    for c in big_small_coeffs:
        p = phivector_from_coefficients(c)
        back = coefficients_from_phivector(p)
        assert back.as_tuple() == c.as_tuple()


def test_roundtrip_profiles():
    n = 0
    for p in iter_phi_profiles(120):
        n += 1
        assert phivector_from_coefficients(coefficients_from_phivector(p)) == p
    assert n > 1000


def test_divisor_class_square_matches_quadratic_value():
    for c in small_coeffs:
        assert self_int(c.divisor_class().num) == 2 * quadratic_value(c)


@pytest.mark.slow
def test_divisor_class_square_matches_quadratic_value_wide():
    n = 0
    for c in iter_coefficient_tuples(40):
        q = quadratic_value(c)
        assert self_int(c.divisor_class().num) == 2 * q
        if q >= 1:
            p = phivector_from_coefficients(c)
            assert 2 * q == (p.total() ** 2 - 9 * sum(v * v for v in p.phis)) // 9
        n += 1
    assert n > 900_000


@given(st.sampled_from(big_small_coeffs))
def test_roundtrip_property(c):
    assert coefficients_from_phivector(phivector_from_coefficients(c)) == c


def test_eps_propagates_through_roundtrip():
    even = FundamentalCoefficients(a0=0, head=(2, 2, 0, 0, 0, 0, 0), a9=0, a10=0)
    p = phivector_from_coefficients(even)
    assert coefficients_from_phivector(p, eps=1).eps == 1


def test_epsilon_normalize():
    # the torsion rule: any odd coefficient forces eps = 0
    odd, _ = rewrite_to_fundamental([1, 1] + [0] * 8, eps=1)
    assert odd.as_tuple() == (0, 1, 1, 0, 0, 0, 0, 0, 0, 0)
    assert odd.eps == 0
    even, _ = rewrite_to_fundamental([2, 2] + [0] * 8, eps=1)
    assert even.as_tuple() == (0, 2, 2, 0, 0, 0, 0, 0, 0, 0)
    assert even.eps == 1


def test_format_parse_roundtrip():
    text = format_coefficients(DOMINATING)
    assert text == "4;7,6,5,4,3,2,1;3,2"
    assert parse_coefficients(text) == DOMINATING
    for c in small_coeffs[::7]:
        assert parse_coefficients(format_coefficients(c)) == c


@pytest.mark.parametrize(
    "text",
    ["", "1;2,3", "1;1,1,1,1,1,1;1,1", "0;1,1,0,0,0,0,0;0", "x;1,1,0,0,0,0,0;0,0"],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_coefficients(text)


# --- simple decompositions -------------------------------------------------


def _dec(*classes, eps=0):
    return Decomposition(tuple((1, c) for c in classes), eps=eps)


def test_ten_terms_all_pairing_one_is_simple():
    assert simple_decomposition_error(_dec(*standard_sequence())) is None


def test_nine_terms_need_a_two():
    bad = _dec(*[E[i] for i in range(1, 10)])
    assert simple_decomposition_error(bad) == "nine terms need a pairing equal to 2"
    good = _dec(*[E[i] for i in range(1, 9)], generator_pair(8, 9))
    assert simple_decomposition_error(good) is None


def test_ten_terms_reject_a_single_two():
    bad = _dec(*[E[i] for i in range(1, 10)], generator_pair(9, 10))
    assert simple_decomposition_error(bad) == "ten terms allow no single pairing 2"


def test_two_twos_must_share_a_class():
    good = _dec(*[E[i] for i in range(1, 9)], generator_pair(8, 9), generator_pair(8, 10))
    assert simple_decomposition_error(good) is None
    bad = _dec(generator_pair(1, 2), generator_pair(3, 4), generator_pair(5, 6))
    assert simple_decomposition_error(bad) == "more than two pairings equal to 2"


def test_decomposition_term_screening():
    assert simple_decomposition_error(_dec(D)) == "a term class is not isotropic"
    assert (
        simple_decomposition_error(_dec(2 * E[1], E[2]))
        == "a term class is not primitive"
    )
    assert (
        simple_decomposition_error(_dec(-E[1], E[2]))
        == "a term class is not positive"
    )
    assert simple_decomposition_error(_dec(E[1], E[1])) == "repeated term class"
    assert simple_decomposition_error(Decomposition(())) == "empty decomposition"
    # these two meet in 3, which no allowed pattern admits
    x = generator_pair(1, 2)
    y = 2 * D - E[3] - E[4] - E[5] - E[6] - E[7]
    assert pair(x, y) == 3
    assert "outside the allowed patterns" in simple_decomposition_error(_dec(x, y))
    with pytest.raises(ValueError):
        Decomposition(((0, E[1]),))


# --- presentations and rewriting -------------------------------------------


def test_class_from_presentation_on_standard_sequence():
    seq = IsotropicSequence(standard_sequence())
    fc = FundamentalCoefficients(a0=2, head=(3, 1, 0, 0, 0, 0, 0), a9=2, a10=1)
    built = class_from_presentation(fc, seq)
    assert built == from_decomposition((3, 1), a9=2, a10=1, a0=2).num


def test_rewrite_leaves_fundamental_input_alone():
    fc, seq = rewrite_to_fundamental((1, 1, 0, 0, 0, 0, 0, 0, 0, 0))
    assert fc.as_tuple() == (0, 1, 1, 0, 0, 0, 0, 0, 0, 0)
    assert tuple(seq.members) == standard_sequence()


def test_rewrite_absorbs_full_rows():
    fc, seq = rewrite_to_fundamental((1,) * 10)
    assert fc.as_tuple() == (3, 0, 0, 0, 0, 0, 0, 0, 3, 3)
    assert class_from_presentation(fc, seq) == 3 * D


def test_rewrite_tail_heavy_input():
    # weight sits on the ninth slot; the pair coefficient must catch up
    fc, seq = rewrite_to_fundamental((0,) * 8 + (5, 0), a0=1)
    assert fc.as_tuple() == (1, 4, 0, 0, 0, 0, 0, 0, 1, 0)
    goal = 5 * E[9] + generator_pair(9, 10)
    assert class_from_presentation(fc, seq) == goal


def test_rewrite_pair_heavy_input():
    fc, seq = rewrite_to_fundamental((0,) * 10, a0=5)
    assert fc.as_tuple() == (0, 5, 0, 0, 0, 0, 0, 0, 0, 0)
    assert class_from_presentation(fc, seq) == 5 * generator_pair(9, 10)


def test_rewrite_moves_tail_weight_into_head():
    fc, seq = rewrite_to_fundamental((0,) * 8 + (1, 1))
    assert fc.as_tuple() == (0, 1, 1, 0, 0, 0, 0, 0, 0, 0)
    assert class_from_presentation(fc, seq) == E[9] + E[10]


def test_rewrite_rejects_bad_input():
    with pytest.raises(ValueError):
        rewrite_to_fundamental((0,) * 9)
    with pytest.raises(ValueError):
        rewrite_to_fundamental((0,) * 10)  # zero class
    with pytest.raises(ValueError):
        rewrite_to_fundamental((-1,) + (1,) * 9)


def test_rewrite_parity_matches_two_divisibility():
    rng = random.Random(7)
    for _ in range(100):
        cs = [rng.randrange(0, 5) for _ in range(10)]
        a0 = rng.randrange(0, 5)
        if not any(cs) and a0 == 0:
            continue
        fc, seq = rewrite_to_fundamental(cs, a0=a0, eps=1)
        goal = class_from_presentation(fc, seq)
        assert fc.all_even() == is_two_divisible(goal)
        assert fc.eps == (1 if fc.all_even() else 0)


def test_rewrite_preserves_the_class_randomized():
    rng = random.Random(11)
    std = standard_sequence()
    for _ in range(200):
        cs = [rng.randrange(0, 7) for _ in range(10)]
        a0 = rng.randrange(0, 7)
        if not any(cs) and a0 == 0:
            continue
        goal = NumClass((0,) * 10)
        for v, f in zip(cs, std):
            goal = goal + v * f
        goal = goal + a0 * generator_pair(9, 10)
        fc, seq = rewrite_to_fundamental(cs, a0=a0)
        assert class_from_presentation(fc, seq) == goal
        assert fc.a9 + fc.a10 >= fc.a0 >= fc.a9 >= fc.a10


def test_rewrite_is_permutation_invariant_spot():
    rng = random.Random(13)
    for _ in range(50):
        cs = [rng.randrange(0, 6) for _ in range(10)]
        if not any(cs):
            continue
        base, _ = rewrite_to_fundamental(cs)
        perm = cs[:8]
        rng.shuffle(perm)
        swapped = perm + [cs[9], cs[8]]
        again, _ = rewrite_to_fundamental(swapped)
        assert again.as_tuple() == base.as_tuple()


def test_fundamental_presentation_of_triple_d():
    fc, seq = fundamental_presentation(3 * D)
    assert fc.as_tuple() == (3, 0, 0, 0, 0, 0, 0, 0, 3, 3)
    assert class_from_presentation(fc, seq) == 3 * D
    # 3d is not 2-divisible, so a torsion bit on the input dies
    fc2, _ = fundamental_presentation(PicClass(3 * D, 1))
    assert fc2.eps == 0


def test_fundamental_presentation_keeps_torsion_on_even_classes():
    L = 2 * E[1] + 2 * E[2]
    fc, _ = fundamental_presentation(PicClass(L, 1))
    assert fc.eps == 1
    assert fc.as_tuple() == (0, 2, 2, 0, 0, 0, 0, 0, 0, 0)


def test_fundamental_presentation_inverts_divisor_class():
    for c in iter_coefficient_tuples(6):
        if quadratic_value(c) < 1:
            continue
        fc, seq = fundamental_presentation(c.divisor_class())
        assert fc.as_tuple() == c.as_tuple()
        assert class_from_presentation(fc, seq) == c.divisor_class().num
