"""Search oracle: isotropic enumeration, profile minima, sequences."""

import random
from itertools import product
from math import isqrt

import pytest
from hypothesis import given, strategies as st

import enriques.oracle
from enriques.fundamental import (
    FundamentalCoefficients,
    iter_coefficient_tuples,
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
from enriques.verify import _DOMINATING

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

    def put(f):
        return ms[:k] + (f,) + ms[k + 1 :]

    return {
        "D": put(D),
        "doubled": put(2 * ms[k]),
        "negated": put(-ms[k]),
        "zero": put(NumClass((0,) * 10)),
        "repeated": put(ms[other]),
        "nine": ms[:k] + ms[k + 1 :],
    }


MUTATION_ERRORS = {
    "D": "sequence member is not isotropic",
    "doubled": "sequence member is not positive primitive",
    "negated": "sequence member is not positive primitive",
    "zero": "the zero class is neither primitive nor imprimitive",
    "repeated": "sequence members must pairwise pair to 1",
    "nine": "an isotropic sequence has ten members",
}


@pytest.mark.parametrize("seed", range(4))
def test_sequence_checks_match_the_predicate_reference(seed):
    """The linear-form checks accept and reject exactly what the predicate
    reference does, with the same message."""
    rng = random.Random(1000 + seed)
    for ms in reflected_sequences(seed):
        assert reference_sequence_error(ms) is None
        assert sequence_error(ms) is None
        for kind, bad in mutations(ms, rng).items():
            assert reference_sequence_error(bad) == MUTATION_ERRORS[kind]
            assert sequence_error(bad) == MUTATION_ERRORS[kind]


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


@pytest.mark.parametrize("box", [-1, 1.5, "2"])
def test_box_scan_rejects_a_box_that_is_not_a_nonnegative_integer(box):
    """A negative box would scan nothing and return an empty reference set."""
    with pytest.raises(ValueError, match="box"):
        box_isotropics(3 * D, 12, box=box)


@pytest.mark.slow
def test_box_scan_with_wider_box_is_complete():
    assert set(box_isotropics(3 * D, 12, box=3)) == set(enumerate_isotropics(3 * D, 12))


def test_phi_values():
    assert eight_lowest(D)[0] == 3
    assert eight_lowest(3 * D)[0] == 9
    assert eight_lowest(E[1] + E[2])[0] == 1
    assert eight_lowest(2 * E[1] + generator_pair(1, 2))[0] == 2


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
    for c in iter_coefficient_tuples(5):
        if quadratic_value(c) < 1:
            continue
        L = c.divisor_class()
        got, _ = phi_vector_oracle(L, max_sequences=1)
        assert got == phivector_from_coefficients(c), c
