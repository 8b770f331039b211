"""Search oracle: isotropic enumeration, profile minima, sequences."""

import hashlib
import random
import sys
from itertools import product
from math import isqrt

import pytest
from hypothesis import given, seed, settings, strategies as st

import enriques.oracle
from enriques.components import enumerate_components
from enriques.fundamental import (
    FundamentalCoefficients,
    coefficients_from_phivector,
    phivector_from_coefficients,
    quadratic_value,
)
from enriques.lattice import (
    D,
    NumClass,
    RANK,
    generator_e,
    generator_pair,
    is_positive,
    is_primitive,
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
    phi_vector_oracle,
)
from enriques.verify import _DOMINATING, _iter_coefficient_tuples
from reference import (
    best_sequences_unpruned,
    check_isotropic_sequence,
    computing_sequence_count,
    eight_lowest_at_the_cap,
    parabolic_order,
    phivector_error,
    profile_roots,
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
    assert sum(p.phis) == 18
    assert p.genus() == 2
    assert not p.all_even()
    assert PhiVector((9,) * 10).all_even() is False
    assert PhiVector((2, 2, 4, 4, 4, 4, 4, 4, 4, 4)).all_even()
    # a list of entries is stored as a tuple
    listed = PhiVector([1, 1] + [2] * 8)
    assert type(listed.phis) is tuple and listed == p and hash(listed) == hash(p)


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


def reference_sequence_error(ms):
    """IsotropicSequence's checks written with the lattice predicates, in
    their order: the message of the first check ms fails, or None."""
    try:
        if len(ms) != 10:
            raise ValueError("an isotropic sequence has ten members")
        for f in ms:
            if self_int(f) != 0:
                raise ValueError("sequence member is not isotropic")
            if not is_primitive(f) or not is_positive(f):
                raise ValueError("sequence member is not positive primitive")
        for i in range(10):
            for j in range(i + 1, 10):
                if pair(ms[i], ms[j]) != 1:
                    raise ValueError("sequence members must pairwise pair to 1")
    except ValueError as exc:
        return str(exc)
    return None


def sequence_error(ms):
    try:
        IsotropicSequence(tuple(ms))
    except ValueError as exc:
        return str(exc)
    return None


# simple roots of W(E10): D - E_1 - E_2 - E_3 and E_i - E_(i+1)
SIMPLE_ROOTS = (D - E[1] - E[2] - E[3],) + tuple(E[i] - E[i + 1] for i in range(1, 10))


def reflected_sequences(seed, count=12, length=40):
    """The standard sequence, then `count` seeded images of it under words
    of up to `length` simple reflections (isometries that keep the
    positive cone, so each image is again an isotropic sequence)."""
    rng = random.Random(seed)
    out = [standard_sequence()]
    for _ in range(count):
        ms = standard_sequence()
        for _ in range(rng.randint(1, length)):
            alpha = rng.choice(SIMPLE_ROOTS)
            ms = tuple(f + pair(f, alpha) * alpha for f in ms)
        out.append(ms)
    return out


def mutations(ms, rng):
    """Broken copies of ms, one per kind of failure."""
    k = rng.randrange(10)
    other = rng.choice([j for j in range(10) if j != k])
    i, j = rng.sample([l for l in range(10) if l != k], 2)

    def put(f):
        return ms[:k] + (f,) + ms[k + 1 :]

    return {
        "D": put(D),
        "doubled": put(2 * ms[k]),
        "negated": put(-ms[k]),
        "zero": put(NumClass((0,) * 10)),
        "repeated": put(ms[other]),
        "nine": ms[:k] + ms[k + 1 :],
        "pair-class": put(pair_class_image(ms, i, j)),
    }


def pair_class_image(ms, i, j):
    """The image of E_{i,j} = D - E_i - E_j under the word that carries
    the standard sequence to ms: a third of the members' sum, less
    members i and j.  It is positive, primitive and isotropic, pairs 2
    with members i and j and 1 with the other eight."""
    third = NumClass(tuple(sum(col) // 3 for col in zip(*(f.coords for f in ms))))
    return third - ms[i] - ms[j]


MUTATION_ERRORS = {
    "D": "sequence member is not isotropic",
    "doubled": "sequence member is not positive primitive",
    "negated": "sequence member is not positive primitive",
    "zero": "the zero class is neither primitive nor imprimitive",
    "repeated": "sequence members must pairwise pair to 1",
    "nine": "an isotropic sequence has ten members",
    "pair-class": "sequence members must pairwise pair to 1",
}


@pytest.mark.parametrize("seed", range(4))
def test_sequence_checks_match_the_predicate_reference(seed):
    """The closed-form member checks and the row sums accept and reject
    exactly what the predicate reference does, with the same message."""
    rng = random.Random(1000 + seed)
    for ms in reflected_sequences(seed):
        assert reference_sequence_error(ms) is None
        assert sequence_error(ms) is None
        for kind, bad in mutations(ms, rng).items():
            assert reference_sequence_error(bad) == MUTATION_ERRORS[kind]
            assert sequence_error(bad) == MUTATION_ERRORS[kind]


@pytest.mark.parametrize("seed", range(4))
def test_a_pair_class_in_place_of_a_member_fails_only_the_pairings(seed):
    """Swapping member k for the image of E_{i,j} (k not i, j) leaves ten
    distinct positive primitive isotropic members; two of the nine
    pairings of the new member are 2, so its row sum is 11, not 9."""
    rng = random.Random(seed)
    for ms in reflected_sequences(seed):
        k, i, j = rng.sample(range(10), 3)
        f = pair_class_image(ms, i, j)
        assert self_int(f) == 0 and is_primitive(f) and is_positive(f)
        assert sorted(pair(f, g) for g in ms) == [1] * 8 + [2, 2]
        bad = ms[:k] + (f,) + ms[k + 1 :]
        assert len(set(bad)) == 10
        assert sum(pair(f, g) for g in bad) == 11
        assert sequence_error(bad) == "sequence members must pairwise pair to 1"


def check_outcome(check, ms):
    """None when check(ms) accepts ms, else the type and message of the
    exception it raises."""
    try:
        check(ms)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def standard_sequence_cases(rng):
    """(accepted, rejected, first failures): seeded orders of the standard
    members, some with list coordinates, then broken copies of them, and
    copies broken at two members, each with the message of the first."""
    std = standard_sequence()
    orders = [tuple(rng.sample(std, 10)) for _ in range(50)]
    as_lists = [tuple(NumClass(list(f.coords)) for f in ms) for ms in orders[:5]]
    rejected, firsts = [], []
    for ms in orders[:10] + as_lists:
        k, other = rng.sample(range(10), 2)
        i, j = rng.sample(range(1, 11), 2)

        def put(f, at=k, ms=ms):
            return ms[:at] + (f,) + ms[at + 1 :]

        rejected += [
            put(ms[other]),  # a repeated standard member
            put(generator_pair(i, j)),
            put(2 * ms[k]),  # a doubled member
            ms[:9],
            ms + (ms[other],),
        ]
        lo, hi = sorted(rng.sample(range(10), 2))
        firsts += [
            (put(2 * ms[hi], at=hi, ms=put(D, at=lo)), "sequence member is not isotropic"),
            (put(D, at=hi, ms=put(2 * ms[lo], at=lo)), "sequence member is not positive primitive"),
        ]
    # E_{1,2} in the place of E_1, of E_2 and of E_3
    rejected += [std[:k] + (generator_pair(1, 2),) + std[k + 1 :] for k in (0, 1, 2)]
    return orders + as_lists, rejected, firsts


def test_sequence_check_matches_the_full_check_around_the_standard_members():
    """`IsotropicSequence` takes the ten standard members in any order
    without running the full check on them; on every sequence it accepts
    what the full check accepts, and fails with the same exception type
    and message, that of the first failing member."""
    accepted, rejected, firsts = standard_sequence_cases(random.Random(37))

    def make(ms):
        return IsotropicSequence(tuple(ms))

    for ms in accepted:
        assert check_outcome(make, ms) is check_outcome(check_isotropic_sequence, ms) is None
    for ms in rejected:
        want = check_outcome(check_isotropic_sequence, ms)
        assert want is not None and want[0] is ValueError
        assert check_outcome(make, ms) == want
    for ms, message in firsts:
        want = check_outcome(check_isotropic_sequence, ms)
        assert check_outcome(make, ms) == want == (ValueError, message)
    for ms in reflected_sequences(5):
        assert check_outcome(make, ms) == check_outcome(check_isotropic_sequence, ms)


def test_only_a_sequence_other_than_the_standard_members_takes_the_full_check(monkeypatch):
    def refuse(rows):
        raise AssertionError("full check")

    monkeypatch.setattr(enriques.oracle, "_check_sequence_rows", refuse)
    std = standard_sequence()
    IsotropicSequence(std[::-1])
    IsotropicSequence(tuple(NumClass(list(f.coords)) for f in std))
    with pytest.raises(AssertionError, match="full check"):
        IsotropicSequence(std[:9] + (std[0],))
    with pytest.raises(ValueError, match="ten members"):
        IsotropicSequence(std[:9])


def test_values_against():
    seq = IsotropicSequence(standard_sequence())

    def values_against(x):
        return tuple(sorted(pair(f, x) for f in seq.members))

    assert values_against(3 * D) == (9,) * 10
    assert values_against(E[1] + E[2]) == (1, 1, 2, 2, 2, 2, 2, 2, 2, 2)


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
        cap = eight_lowest(L)[0] + 3
        assert enumerate_isotropics(L, cap) == enumerate_isotropics(
            L, cap, extra_layers=2
        )


def test_enumerate_rejects_degenerate_input():
    with pytest.raises(ValueError):
        enumerate_isotropics(NumClass((0,) * RANK), 5)
    with pytest.raises(ValueError):
        enumerate_isotropics(E[1], 5)  # isotropic, not big


def _layer_admissible(t, cap, d, q):
    """The reverse Cauchy-Schwarz condition on a layer t given F.L <= cap."""
    return t * d <= 10 * cap or q * t * t - 2 * cap * d * t + 10 * cap * cap <= 0


def _t_limit_inputs():
    """A grid of small inputs (d from the cone bound d^2 >= 10 q up) and
    seeded large ones."""
    for q in range(1, 121):
        d0 = isqrt(10 * q - 1) + 1
        for d in range(d0, d0 + 25):
            for cap in range(1, 41):
                yield cap, d, q
    rng = random.Random(20)
    for _ in range(2000):
        q = rng.randint(1, 10 ** rng.randint(1, 30))
        d = isqrt(10 * q - 1) + 1 + rng.randint(0, 10 ** rng.randint(0, 15))
        yield rng.randint(1, 10 ** rng.randint(1, 30)), d, q


def test_t_limit_is_the_largest_admissible_layer():
    t_limit = enriques.oracle._t_limit
    for cap, d, q in _t_limit_inputs():
        t = t_limit(cap, d, q)
        assert t >= 0 and _layer_admissible(t, cap, d, q), (cap, d, q)
        assert not _layer_admissible(t + 1, cap, d, q), (cap, d, q)


def test_t_limit_edge_cases():
    t_limit = enriques.oracle._t_limit
    assert t_limit(0, 10, 10) == 0
    assert t_limit(-3, 10, 10) == 0
    with pytest.raises(ArithmeticError):
        t_limit(5, 9, 9)  # d^2 = 81 < 10 q = 90


def test_box_scan_agrees_within_its_box():
    full = enumerate_isotropics(3 * D, 12)
    boxed = box_isotropics(3 * D, 12, box=2)
    assert boxed == [x for x in full if max(abs(c) for c in x.coords) <= 2]
    assert len(boxed) == 54  # e_10 has a coordinate 3 and falls outside


@pytest.fixture(scope="module")
def isotropic_in_box():
    """For box 0 and 1, every positive primitive isotropic vector in
    [-box, box]^10, found by trying each vector with the lattice's own
    pairing."""
    found = {}
    for box in (0, 1):
        found[box] = []
        for coords in product(range(-box, box + 1), repeat=RANK):
            if not any(coords):
                continue
            f = NumClass(coords)
            if self_int(f) == 0 and is_positive(f) and is_primitive(f):
                found[box].append(f)
    return found


BOX_CLASSES = {
    "triple-d": (3 * D, 12),
    "genus-621": (_DOMINATING.divisor_class(), 40),
    "genus-3": (NumClass((2, 0, 1, 0, 2, 2, -2, 1, 2, -1)), 30),
    "e1-plus-3d": (NumClass((1, 0, 0, 0, 0, 0, 0, 0, 0, 3)), 20),
}


@pytest.mark.parametrize("box", [0, 1])
@pytest.mark.parametrize("name", list(BOX_CLASSES))
def test_box_scan_matches_a_scan_of_every_vector(isotropic_in_box, name, box):
    L, cap = BOX_CLASSES[name]
    valued = [(pair(f, L), f.coords) for f in isotropic_in_box[box]]
    expected = [NumClass(c) for v, c in sorted(valued) if v <= cap]
    assert box_isotropics(L, cap, box=box) == expected
    if box == 1 and name == "genus-3":
        assert len(expected) == 2019


def test_box_scan_takes_the_roots_of_the_d_quadratic():
    """With the E-coordinates fixed, F^2 = 0 is a quadratic in the
    D-coordinate.  For E-coordinates 0 it has the double root 0, the zero
    class, which is not positive.  For E-coordinates (1^5, 0^4) its roots
    are -1 and -2; at box 1 the second falls outside.  For (-1^5, 0^4)
    they are 1 and 2: the root 1 gives a negative class, and only at
    box 2 does the root 2, which gives 2D - E_1 - ... - E_5, lie inside."""
    assert box_isotropics(D, 5, box=0) == []
    one_inside = NumClass((1,) * 5 + (0,) * 4 + (-1,))
    assert self_int(one_inside) == self_int(one_inside - D) == 0
    assert one_inside in box_isotropics(D, 5, box=1)
    prefix = (-1,) * 5 + (0,) * 4
    negative, larger = NumClass(prefix + (1,)), NumClass(prefix + (2,))
    assert self_int(negative) == self_int(larger) == 0
    assert pair(negative, D) == -5 and pair(larger, D) == 5
    assert larger not in box_isotropics(D, 5, box=1)
    boxed = box_isotropics(D, 6, box=2)
    assert larger in boxed
    assert boxed == [x for x in enumerate_isotropics(D, 6) if max(abs(c) for c in x.coords) <= 2]


@pytest.mark.parametrize("box", [-1, 1.5, "2", True])
def test_box_scan_rejects_a_box_that_is_not_a_nonnegative_integer(box):
    """A negative box would scan nothing and return an empty reference set.
    A bool, although an int, is not an integer argument."""
    with pytest.raises(ValueError, match="box"):
        box_isotropics(3 * D, 12, box=box)


@pytest.mark.parametrize("extra_layers", [-1, -2, 1.5, "2", True])
def test_search_rejects_extra_layers_that_are_not_a_nonnegative_integer(extra_layers):
    """Negative extra layers would cut below the proven bound and return
    part of the 55 classes as if it were all of them.  A bool, although an
    int, is not an integer argument."""
    with pytest.raises(ValueError, match="extra_layers"):
        enumerate_isotropics(3 * D, 12, extra_layers=extra_layers)


@pytest.mark.parametrize("search", [enumerate_isotropics, box_isotropics])
@pytest.mark.parametrize("cap", [12.5, "12", True])
def test_searches_reject_a_cap_that_is_not_an_integer(search, cap):
    """A string cap used to raise TypeError, a float to raise it in one
    search and to scan as its floor in the other, and a bool to scan up to
    value 1.  A bool, although an int, is not an integer argument."""
    with pytest.raises(ValueError, match="cap must be an integer"):
        search(3 * D, cap)


def test_box_scan_with_wider_box_is_complete():
    assert set(box_isotropics(3 * D, 12, box=3)) == set(enumerate_isotropics(3 * D, 12))


def test_box_scan_at_box_four_is_the_whole_search():
    """At box 4 every class of 3d with value at most 12 lies in the box,
    e_10 = 3d - e_1 - ... - e_9 included, so the two lists agree in order."""
    full = enumerate_isotropics(3 * D, 12)
    assert len(full) == 55 and generator_e(10) in full
    assert box_isotropics(3 * D, 12, box=4) == full


def test_box_scan_is_exact_on_huge_classes():
    """Scaling L by n scales every value by n, so the scan of n L at cap
    n c is the scan of L at cap c.  At n = 10^18 products of coordinates
    and pairings leave the int64 range, and at 10^19 the pairings do."""
    assert box_isotropics(10**18 * D, 9 * 10**18, box=2) == box_isotropics(D, 9, box=2)
    assert len(box_isotropics(D, 9, box=2)) == 13818
    small = box_isotropics(D, 3, box=1)
    assert len(small) == 9
    assert box_isotropics(10**19 * D, 3 * 10**19, box=1) == small


# (seed, cap) -> (count, sha256 of the repr of the coordinate list) of
# box_isotropics(seeded_class(seed, letters=0), cap, box=2), as the scan
# with numpy's int64 arithmetic returned them.
BOX_SCAN_DIGESTS = {
    (0, 8): (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (0, 20): (6, "ac3067c8ec9b4633d422cadb506361f0088c39d00abf20c5a60cd9c8129b670a"),
    (0, 40): (906, "3002899df2a46b315ec810c27d43c3872c4fc9fbc23f5f4332024a0e4731e610"),
    (1, 8): (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (1, 20): (9, "ebe9bcd459397d62193ec288862e03221f2d49463e0b0c770515237ca1e9f778"),
    (1, 40): (1133, "bc57dd5ef27baf4584ba91119b86e209ce23bc280cfde2dc77928c2f89d418af"),
    (2, 8): (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (2, 20): (46, "29d49b1c2046ef0ef33b6289a17a9bb7c4e46d532722156f1bfc226960b75953"),
    (2, 40): (7984, "d4af76e335c89fcfcf7413a9bb7ec18adacaef261f06fe2cced281349b4f32e4"),
    (3, 8): (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (3, 20): (22, "45f18767475afee6d3d20c895776c9578da5c2a47b01c83ecabaed2ee99ee47e"),
    (3, 40): (3946, "7451af7d693ddeb662cf9394200a27b254fab993a700e951afc24df607657f30"),
    (4, 8): (3, "493eaea8cea57f54d72c7ee8c424da6be5e32eaa1562187d04c98e22a417ef8f"),
    (4, 20): (2763, "6b83a5d670f14b0c69bc07baffd3514f860b2fa8c74ba9c4ed2b116abf04f092"),
    (4, 40): (97198, "1c0e8eaae0b08b29e5a17f800aa862b5d1a913a8a1c46cd9c9ef2bac33ae41f5"),
    (5, 8): (1, "db8f631652d8ded2534b59e8a37c0dd4e96467df1d9001e75ee67057e5e8ecce"),
    (5, 20): (936, "4470cdf7806d2cb10d14de5ac01d9a4ca74c81756a0e5cdb7ae6ced0389d6253"),
    (5, 40): (64716, "ef22c6b1ed6e1b14ebcbcc7b215421324d760eac8ce69a5585b94660278cbd77"),
    (6, 8): (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (6, 20): (14, "fd4b1711c5be9bb9037d2990ec6a51d4064778211efa0bf191e7071718947052"),
    (6, 40): (2375, "dab01ca7391cb39e27dd6125ec6c28513d25030967ef51a24e3873c5031b2329"),
    (7, 8): (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (7, 20): (34, "24874bff98c2bed73603d4ef7ad0c4b843d3c6166ce6050d90841fc2ded86d9b"),
    (7, 40): (5483, "ae7d2e6c68d72bc8dad4ea4902c7464d16768a76f5652104ba9e51a2aa9be647"),
    (8, 8): (20, "e8726c3092c74a0019973a8c82fb5617cbb355c712b202f7f64ebdd75800bad4"),
    (8, 20): (12371, "9302e70a84ce1a3a1ee2a8a7aa338df44a3627a821c2ddff0ef5c6eceea85e2c"),
    (8, 40): (134357, "b9a9e511154682356bc2bbb24f3287b9df2e46300005ef46b9c686b9e9d50568"),
    (9, 8): (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (9, 20): (6, "74bae208175d8857ef6e15947251a3bfe010d6ed140b49f864a81bb562dd9854"),
    (9, 40): (682, "230175c19200ae0d8aac002664246cd7b27bd39f260d02a86afe06717ee6099e"),
    (10, 8): (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (10, 20): (9, "49711cb54f89e3148c452c0671c623029daac675e86df9757f6dedf8c57b8347"),
    (10, 40): (1252, "ebe22564448f2abff1a37dab2179ea938841b7c4ecdb8cc58f64932225ebaf94"),
    (11, 8): (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (11, 20): (31, "0a286b50327c8c5eaf51aa29ddd4ac9a700654b83a9046e3d94bdf410cbc9ca0"),
    (11, 40): (5251, "f95cd78ca48f209879470a4225fdefd5517bc148d18316f94c6aecba09b8a8a5"),
    (12, 8): (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (12, 20): (12, "1c4a0104ac3769bc2df98eff44eab214bb3a17b96ed9b95f1473f71f5daab571"),
    (12, 40): (1842, "531a27034310977dd81f4d84cef40b4a104c973d59479c4d859c2faaede6361a"),
    (13, 8): (7, "3d7c3dcae65b7d7a975c6b4e89b18485496633f08e411e6a4d26efd4f4e586d4"),
    (13, 20): (4374, "e2ce33925be7c866b6cf84f9afe0f019130142433039078e3452212649bb4af3"),
    (13, 40): (124544, "870246b7d4106280ef6ffa73027ad05f14fa762876a1109aefde92dfead185d8"),
    (14, 8): (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (14, 20): (35, "01bf571c36a07487e7b9a8373a1a9e92c43e32dc061e0272c0b93365aee4f786"),
    (14, 40): (6041, "e3b7210dbce0a2c8078ffde1aef56d9b956a9256d2e9da9f5558017c70655ca1"),
}


@pytest.mark.parametrize("seed", range(15))
def test_box_scan_matches_its_recorded_outputs(seed):
    L = seeded_class(seed, letters=0)
    for cap in (8, 20, 40):
        got = box_isotropics(L, cap, box=2)
        digest = hashlib.sha256(repr([f.coords for f in got]).encode()).hexdigest()
        assert (len(got), digest) == BOX_SCAN_DIGESTS[seed, cap], (seed, cap)


def test_phi_values():
    assert eight_lowest(D)[0] == 3
    assert eight_lowest(3 * D)[0] == 9
    assert eight_lowest(E[1] + E[2])[0] == 1
    assert eight_lowest(2 * E[1] + generator_pair(1, 2))[0] == 2


def test_eight_lowest():
    assert eight_lowest(3 * D) == (9,) * 8
    assert eight_lowest(E[1] + E[2]) == (1, 1, 2, 2, 2, 2, 2, 2)


def eight_lowest_classes():
    """Every genus-5 and genus-7 row, 3D, the image class (4,1,0,...,0)
    whose 242-member first pool is mostly ties at the cap, and seeded
    classes."""
    rows = [m.coefficients.divisor_class() for g in (5, 7) for m in enumerate_components(g)]
    return rows + [3 * D, NumClass((4, 1) + (0,) * 8)] + [seeded_class(s) for s in range(12)]


def test_eight_lowest_matches_the_search_at_its_cap():
    for L in eight_lowest_classes():
        assert eight_lowest(L) == eight_lowest_at_the_cap(L), L


def test_eight_lowest_never_searches_at_its_cap(monkeypatch):
    """One search, one below the eighth standard pairing: the classes tied
    at that cap are never listed."""
    search = enriques.oracle._enumerate_with_values
    caps = []

    def recording(L, cap, extra_layers=0):
        caps.append(cap)
        return search(L, cap, extra_layers)

    monkeypatch.setattr(enriques.oracle, "_enumerate_with_values", recording)
    for L in eight_lowest_classes():
        caps.clear()
        eight_lowest(L)
        assert caps == [sorted(pairings(L))[7] - 1], L


def test_eight_lowest_checks_the_standard_members_below_its_cap(monkeypatch):
    """E_1 and E_2 meet E_1 + E_2 in 1, below the cap 2, so a search that
    loses E_1 fails the check."""
    search = enriques.oracle._enumerate_with_values

    def losing_e1(L, cap, extra_layers=0):
        return [(v, f) for v, f in search(L, cap, extra_layers) if f != E[1]]

    monkeypatch.setattr(enriques.oracle, "_enumerate_with_values", losing_e1)
    with pytest.raises(AssertionError, match="missed part of the standard sequence"):
        eight_lowest(E[1] + E[2])


@pytest.mark.parametrize("max_sequences", [0, -1, 1.5, "2", True])
def test_oracle_rejects_max_sequences_that_is_not_a_positive_integer(max_sequences):
    """A string used to raise TypeError, and a float or a bool to return a
    result."""
    with pytest.raises(ValueError, match="max_sequences"):
        phi_vector_oracle(3 * D, max_sequences=max_sequences)


@pytest.mark.parametrize("seed", range(8))
def test_pools_are_unchanged_by_extra_layers_on_seeded_classes(seed):
    """The budget prunes of the layer search lose no class: two extra
    layers find the same pool, and the coordinate-box scan finds the same
    classes inside its box."""
    L = seeded_class(seed)
    cap = max(pairings(L))
    pool = enumerate_isotropics(L, cap)
    assert pool == enumerate_isotropics(L, cap, extra_layers=2)
    assert box_isotropics(L, cap, box=2) == [f for f in pool if max(map(abs, f.coords)) <= 2]


def test_oracle_on_triple_d():
    p, seqs = phi_vector_oracle(3 * D)
    assert p.phis == (9,) * 10
    assert len(seqs) == 1
    assert set(seqs[0].members) == set(standard_sequence())


def test_oracle_on_genus_two():
    p, seqs = phi_vector_oracle(E[1] + E[2], max_sequences=5)
    assert p.phis == (1, 1, 2, 2, 2, 2, 2, 2, 2, 2)
    assert len(seqs) == 5  # truncated: far more sequences attain the minimum
    # one below the limit, so the set is complete: 17,280 sequences
    _, seqs = phi_vector_oracle(E[1] + E[2], max_sequences=17_281)
    assert len(seqs) == 17_280


def test_sequence_count_of_known_profiles():
    """E_1 + E_2 has J of type A1 + E8 and (1, 4, 5, ..., 5) of type E8,
    each over a J' of type A1 + A7 or A7, so both give 17,280, the count
    `test_oracle_on_genus_two` pins; the dominating genus-621 profile
    (30, ..., 39) has J empty, so its one computing sequence is the
    presenting one."""
    e1_e2 = (1, 1) + (2,) * 8
    assert profile_roots(e1_e2) == {0, 1, 3, 4, 5, 6, 7, 8, 9}
    assert parabolic_order(profile_roots(e1_e2)) == 2 * 696_729_600
    assert computing_sequence_count(e1_e2) == 17_280
    assert profile_roots((1, 4) + (5,) * 8) == {0, 3, 4, 5, 6, 7, 8, 9}
    assert computing_sequence_count((1, 4) + (5,) * 8) == 17_280
    dominating = phivector_from_coefficients(_DOMINATING).phis
    assert dominating == tuple(range(30, 40))
    assert profile_roots(dominating) == set()
    assert computing_sequence_count(dominating) == 1
    # D4 and D5 on the branch node, and the affine E9 that J cannot be
    assert parabolic_order({0, 6, 7, 8}) == 192
    assert parabolic_order({0, 6, 7, 8, 9}) == parabolic_order({0, 5, 6, 7, 8}) == 1920
    with pytest.raises(ValueError, match="finite type"):
        parabolic_order(set(range(10)) - {1})


def test_oracle_finds_exactly_the_index_of_computing_sequences():
    """On every profile of genus g <= 30 whose index [W_J : W_J'] is at
    most 1000, the oracle asked for one sequence more than the index
    returns exactly the index: no computing sequence is missed and none is
    listed twice."""
    checked = 0
    for g in range(2, 31):
        for m in enumerate_components(g):
            index = computing_sequence_count(m.phi)
            if m.eps or index > 1000:
                continue
            L = m.coefficients.divisor_class()
            _, seqs = phi_vector_oracle(L, max_sequences=index + 1)
            assert len(seqs) == index, (g, m.phi)
            checked += 1
    assert checked == 172


def test_oracle_respects_sequence_limit():
    _, seqs = phi_vector_oracle(E[1] + E[2], max_sequences=1)
    assert len(seqs) == 1
    L = 6 * E[1] + E[2]
    p, _ = phi_vector_oracle(L, max_sequences=1)
    assert p.phis == (1, 6, 7, 7, 7, 7, 7, 7, 7, 7)


def test_oracle_on_a_pool_wider_than_a_word():
    """The substitution image of (1, 4, 5, ..., 5) searches a first pool of
    242 members, more than 64 and not a multiple of 8, so its adjacency
    rows span several bytes with a partial last one."""
    L = coefficients_from_phivector(PhiVector((1, 4) + (5,) * 8)).divisor_class()
    assert L.coords == (4, 1) + (0,) * 8
    assert len(enriques.oracle._enumerate_with_values(L, max(pairings(L)))) == 242
    p, seqs = phi_vector_oracle(L, max_sequences=1000)
    assert p.phis == (1, 4) + (5,) * 8
    assert len(seqs) == 1000
    assert [f.coords for f in seqs[0].members] == [
        (1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
        (-1, -1, -1, -1, -1, -1, -1, -1, -1, 3),
        (0, 0, -2, -1, -1, -1, -1, -1, -1, 3),
        (0, 0, -1, -2, -1, -1, -1, -1, -1, 3),
        (0, 0, -1, -1, -2, -1, -1, -1, -1, 3),
        (0, 0, -1, -1, -1, -2, -1, -1, -1, 3),
        (0, 0, -1, -1, -1, -1, -2, -1, -1, 3),
        (0, 0, -1, -1, -1, -1, -1, -2, -1, 3),
        (0, 0, -1, -1, -1, -1, -1, -1, -2, 3),
    ]


def test_oracle_sequences_compute_the_profile():
    L = 2 * E[1] + 2 * E[2]
    p, seqs = phi_vector_oracle(L, max_sequences=3)
    assert p.phis == (2, 2, 4, 4, 4, 4, 4, 4, 4, 4)
    for s in seqs:
        assert tuple(sorted(pair(f, L) for f in s.members)) == p.phis


def seeded_class(seed, letters=10):
    """Seeded small coefficients moved by a seeded word of simple
    reflections."""
    rng = random.Random(seed)
    head = tuple(sorted((rng.randint(0, 3) for _ in range(7)), reverse=True))
    a10 = rng.randint(0, 2)
    a9 = rng.randint(a10, 2 + a10)
    L = FundamentalCoefficients(rng.randint(a9, a9 + a10), head, a9, a10).divisor_class()
    for _ in range(letters):
        alpha = rng.choice(SIMPLE_ROOTS)
        L = L + pair(L, alpha) * alpha
    return L


def test_oracle_searches_each_cap_once(monkeypatch):
    """The first pool, at the largest standard pairing, already holds the
    eight lowest values, so no separate search finds them and every later
    round searches a strictly larger cap.  Two rounds always suffice, and
    some of these classes need the second."""
    search = enriques.oracle._enumerate_with_values
    caps = []

    def recording(L, cap, extra_layers=0):
        caps.append(cap)
        return search(L, cap, extra_layers)

    def forbidden(L):
        raise AssertionError("eight_lowest searched its own pool")

    monkeypatch.setattr(enriques.oracle, "_enumerate_with_values", recording)
    monkeypatch.setattr(enriques.oracle, "eight_lowest", forbidden)
    rounds = []
    for L in (D, 2 * D + E[1], _DOMINATING.divisor_class(), seeded_class(21)):
        caps.clear()
        phi_vector_oracle(L, max_sequences=4)
        assert caps and caps[0] == max(pairings(L)), (L, caps)
        assert all(a < b for a, b in zip(caps, caps[1:])), (L, caps)
        assert len(caps) <= 2, (L, caps)
        rounds.append(len(caps))
    assert 2 in rounds


def test_oracle_matches_closed_form_on_small_tuples():
    for c in _iter_coefficient_tuples(5):
        if quadratic_value(c) < 1:
            continue
        L = c.divisor_class()
        got, _ = phi_vector_oracle(L, max_sequences=1)
        assert got == phivector_from_coefficients(c), c


# --- the pruned sequence search against the unpruned one ---------------------


def _differential_classes():
    """The classes the sequence search is held to its reference on: the
    image of (1, 4, 5, ..., 5), whose first pool has 242 members, the
    genus-621 class, E_1 + E_2, a genus-3 class with a pool of 2,333, and
    the first 20 big classes of `seeded_class`."""
    image = coefficients_from_phivector(PhiVector((1, 4) + (5,) * 8)).divisor_class()
    named = [image, _DOMINATING.divisor_class(), E[1] + E[2], NumClass((-2, -2, -2, 0, 0, 0, 0, 0, 0, 3))]
    seeded = (seeded_class(seed) for seed in range(100))
    return named + [L for L in seeded if self_int(L) > 0][:20]


@pytest.mark.parametrize("max_sets", [1, 4, 1000])
def test_pruned_sequence_search_matches_the_unpruned_one(monkeypatch, max_sets):
    """Every pool the oracle searches gives the same best tuple and the
    same index sets in the same order as `best_sequences_unpruned`, so
    the oracle returns the same profile and sequences with either."""
    pruned = enriques.oracle._best_sequences
    pools = []

    def both(pool, seed_key, limit):
        got = pruned(pool, seed_key, limit)
        assert got == best_sequences_unpruned(pool, seed_key, limit), (len(pool), seed_key, limit)
        pools.append(len(pool))
        return got

    monkeypatch.setattr(enriques.oracle, "_best_sequences", both)
    for L in _differential_classes():
        phi_vector_oracle(L, max_sequences=max_sets)
    assert len(pools) >= 24 and max(pools) == 2333


def test_the_image_class_search_enters_few_nodes():
    """On the 242-member first pool of the image of (1, 4, 5, ..., 5) the
    search for one set enters at most 20 nodes: the bound on each child
    ends the loop at the first one it rules out (the unpruned search
    enters 843)."""
    L = coefficients_from_phivector(PhiVector((1, 4) + (5,) * 8)).divisor_class()
    lam = pairings(L)
    pool = enriques.oracle._enumerate_with_values(L, max(lam))
    nodes = 0

    def count(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code.co_name == "rec":
            nodes += frame.f_code.co_filename == enriques.oracle.__file__

    sys.setprofile(count)
    try:
        got = enriques.oracle._best_sequences(pool, order_key(sorted(lam)), 1)
    finally:
        sys.setprofile(None)
    assert got == best_sequences_unpruned(pool, order_key(sorted(lam)), 1)
    assert 1 <= nodes <= 20, nodes


def _child_key(chosen_vals, vals, rest, need):
    """The key of the cheapest completion a child can reach: the chosen
    values, then its need cheapest candidates rest (ascending indices of
    a sorted pool), or None when it has fewer."""
    if len(rest) < need:
        return None
    return order_key(chosen_vals + [vals[i] for i in rest[:need]])


def _relaxed_key(chosen_vals, ws, p, need):
    """The bound the search puts on the child of candidate p: the chosen
    values, then the need consecutive candidate values from p on, or None
    when fewer are left."""
    if p + need > len(ws):
        return None
    return order_key(chosen_vals + ws[p : p + need])


@seed(20261020)
@settings(max_examples=250, deadline=None)
@given(st.data())
def test_the_relaxed_key_bounds_each_child_and_grows_along_the_loop(data):
    """On a sorted pool with random candidates and adjacency, the relaxed
    key of the child of candidate p is at most the child's own key and
    nondecreasing in p, and it is missing exactly from p on where the
    candidates run out; so the first child it rules out ends the loop."""
    n = data.draw(st.integers(10, 22), label="pool size")
    vals = sorted(data.draw(st.lists(st.integers(1, 12), min_size=n, max_size=n), label="values"))
    k = data.draw(st.integers(0, 9), label="members chosen")
    chosen_vals = sorted(data.draw(st.lists(st.integers(1, 12), min_size=k, max_size=k)))
    cand = data.draw(st.integers(0, (1 << n) - 1), label="candidates")
    adj = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n), label="adjacency")
    need = 10 - k
    idx = [i for i in range(n) if cand >> i & 1]
    ws = [vals[i] for i in idx]
    keys = []
    for p, j in enumerate(idx):
        rest = [i for i in idx[p + 1 :] if adj[j] >> i & 1]
        relaxed = _relaxed_key(chosen_vals, ws, p, need)
        own = _child_key(chosen_vals + [vals[j]], vals, rest, need - 1)
        if relaxed is None:
            assert own is None, (p, own)
        elif own is not None:
            assert relaxed <= own, (p, relaxed, own)
        keys.append(relaxed)
    present = [key for key in keys if key is not None]
    assert keys == present + [None] * (len(keys) - len(present))
    assert present == sorted(present)


# --- the one-pass PhiVector check against the checks one by one --------------


def _profile_grid(seed, n=800):
    """Seeded profiles of small coefficient tuples with one to three
    faults: an entry made negative, 0, a non-int or a bool, an entry
    dropped or added, two entries swapped, an entry raised by 1 or 3, and
    the last three raised together by a multiple of 3 (the head/tail
    inequality); then a negative entry and a bool at every position."""
    rng = random.Random(seed)
    profiles = [
        phivector_from_coefficients(c).phis for c in _iter_coefficient_tuples(6) if quadratic_value(c) >= 1
    ]
    cases = []
    for _ in range(n):
        p = list(rng.choice(profiles))
        for _ in range(rng.choice((1, 1, 2, 3))):
            i = rng.randrange(len(p))
            kind = rng.randrange(8)
            if kind == 0:
                p[i] = -rng.randint(1, 5)
            elif kind == 1:
                p[i] = 0
            elif kind == 2:
                p[i] = rng.choice((1.5, 2.0, "3", None, True, False))
            elif kind == 3:
                p.pop(i)
            elif kind == 4:
                p.insert(i, rng.randint(1, 9))
            elif kind == 5:
                j = rng.randrange(len(p))
                p[i], p[j] = p[j], p[i]
            elif kind == 6 and isinstance(p[i], int):
                p[i] += rng.choice((1, 3))
            elif kind == 7 and len(p) == 10 and all(isinstance(v, int) for v in p[7:]):
                p[7:] = [v + 3 * rng.randint(1, 30) for v in p[7:]]
        cases.append(tuple(p))
    base = (1, 4, 5, 5, 5, 5, 5, 5, 5, 5)
    for i in range(10):
        for value in (-1, True):
            cases.append(base[:i] + (value,) + base[i + 1 :])
    return cases


@pytest.mark.parametrize("seed", range(3))
def test_phivector_checks_give_the_first_message_of_the_checks_in_turn(seed):
    """`PhiVector` accepts what the checks one by one accept and names the
    first that fails, on a seeded grid of malformed profiles, each passed
    once as a tuple and once as a list; what it accepts it stores as a
    tuple."""
    seen = set()
    for p in _profile_grid(seed):
        want = phivector_error(p)
        for given in (p, list(p)):
            try:
                v = PhiVector(given)
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == want, given
            if got is None:
                assert type(v.phis) is tuple and v.phis == p, given
            if bool in map(type, p):  # a bool, although an int, is no entry
                assert got == "a phi-vector has ten integer entries", given
        seen.add(want)
    assert len(seen) == 6, seen
