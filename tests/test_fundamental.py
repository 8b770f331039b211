"""Coefficient parametrization, presentations, and the rewrite algorithm."""

import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from enriques.cli import format_coefficients, parse_coefficients
from enriques.fundamental import (
    FundamentalCoefficients,
    _reduce,
    _standard_pairings,
    class_from_presentation,
    coefficients_from_phivector,
    fundamental_presentation,
    phivector_from_coefficients,
    quadratic_value,
    rewrite_to_fundamental,
)
from enriques.lattice import (
    D,
    NumClass,
    generator_e,
    generator_pair,
    gram_matrix,
    is_two_divisible,
    pair,
    self_int,
    sequence_combination,
    standard_sequence,
)
from enriques.oracle import IsotropicSequence, PhiVector, phi_vector_oracle
from enriques.verify import _iter_coefficient_tuples
from reference import (
    coefficients_from_phivector_fields,
    fundamental_coefficients_error,
    iter_phi_profiles,
    phivector_error,
    reduce_with_classes,
)

E = [None] + [generator_e(i) for i in range(1, 11)]

DOMINATING = FundamentalCoefficients(a0=4, head=(7, 6, 5, 4, 3, 2, 1), a9=3, a10=2)

small_coeffs = list(_iter_coefficient_tuples(8))
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
    # a bool, although an int, is no coefficient, in the tail or the head
    with pytest.raises(ValueError, match="coefficients must be nonnegative integers"):
        FundamentalCoefficients(True, (1,) * 7, True, False)
    with pytest.raises(ValueError, match="head takes exactly seven integers"):
        FundamentalCoefficients(a0=1, head=(True,) + (1,) * 6, a9=1, a10=0)
    # a list head is stored as a tuple
    listed = FundamentalCoefficients(4, [7, 6, 5, 4, 3, 2, 1], 3, 2)
    assert type(listed.head) is tuple
    assert listed == DOMINATING and hash(listed) == hash(DOMINATING)


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
        assert self_int(c.divisor_class()) == 2 * quadratic_value(c)


def test_sweep_tuples_equal_their_checked_construction():
    """The sweep builds its tuples unchecked; each must be one the public
    constructor accepts, and equal to what it builds.  A smaller sweep
    yields exactly the tuples of the largest one within its total."""
    every = list(_iter_coefficient_tuples(12))
    for c in every:
        assert c == FundamentalCoefficients(a0=c.a0, head=c.head, a9=c.a9, a10=c.a10, eps=c.eps)
    assert len(set(every)) == len(every)
    for max_total in range(12):
        within = {c for c in every if sum(c.as_tuple()) <= max_total}
        assert set(_iter_coefficient_tuples(max_total)) == within, max_total


@pytest.mark.slow
def test_divisor_class_square_matches_quadratic_value_wide():
    n = 0
    for c in _iter_coefficient_tuples(40):
        q = quadratic_value(c)
        assert self_int(c.divisor_class()) == 2 * q
        if q >= 1:
            p = phivector_from_coefficients(c)
            assert 2 * q == (sum(p.phis) ** 2 - 9 * sum(v * v for v in p.phis)) // 9
        n += 1
    assert n > 900_000


@given(st.sampled_from(big_small_coeffs))
def test_roundtrip_property(c):
    assert coefficients_from_phivector(phivector_from_coefficients(c)) == c


@pytest.mark.parametrize(
    "raw",
    [(1, 2, 3), (2,) * 9 + (3, 3), (3, 3, 5, 5, 5, 5, 5, 5, 5, 5)],
    ids=["short", "long", "total-not-divisible-by-3"],
)
def test_coefficients_from_phivector_rejects_bad_raw_sequences(raw):
    with pytest.raises(ValueError):
        coefficients_from_phivector(raw)


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


# Each of these has integers that int() takes; the grammar is ASCII digits
# with an optional sign.
NOT_ASCII_INTEGERS = (
    "4;7,6,5,4,3,2,1;3,0_2",
    " 4 ;7,6,5,4,3,2,1;3,\uff12",
    "4;7,6,5,4,3,2,1;3, 2",
    "4;7,6,5,4,3,2,1;3,2\n",
    "\uff14;7,6,5,4,3,2,1;3,2",
)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "1;2,3",
        "1;1,1,1,1,1,1;1,1",
        "0;1,1,0,0,0,0,0;0",
        "x;1,1,0,0,0,0,0;0,0",
        "4,0;7,6,5,4,3,2,1;3,2",
        *NOT_ASCII_INTEGERS,
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError) as exc:
        parse_coefficients(text)
    if text in NOT_ASCII_INTEGERS:
        assert str(exc.value) == "coefficients must be integers"


def test_parse_takes_signed_integers():
    assert parse_coefficients("+4;7,6,5,4,3,2,1;3,+2") == DOMINATING
    with pytest.raises(ValueError, match="nonnegative"):
        parse_coefficients("4;7,6,5,4,3,2,1;3,-2")


# --- presentations and rewriting -------------------------------------------


def test_class_from_presentation_on_standard_sequence():
    seq = IsotropicSequence(standard_sequence())
    fc = FundamentalCoefficients(a0=2, head=(3, 1, 0, 0, 0, 0, 0), a9=2, a10=1)
    built = class_from_presentation(fc, seq)
    assert built == sequence_combination((3, 1, 0, 0, 0, 0, 0, 0, 2, 1), a0=2)


def test_divisor_class_is_the_presentation_on_the_standard_sequence():
    seq = IsotropicSequence(standard_sequence())
    n = 0
    for c in _iter_coefficient_tuples(12):
        assert c.divisor_class() == class_from_presentation(c, seq)
        # the closed form it evaluates without the integer check
        assert c.divisor_class() == sequence_combination((*c.head, 0, c.a9, c.a10), c.a0)
        n += 1
    assert n == 881


def test_rewrite_leaves_fundamental_input_alone():
    fc, seq = rewrite_to_fundamental((1, 1, 0, 0, 0, 0, 0, 0, 0, 0))
    assert fc.as_tuple() == (0, 1, 1, 0, 0, 0, 0, 0, 0, 0)
    assert tuple(seq.members) == standard_sequence()
    # members that no reflection moved are the shared standard classes
    assert all(f is e for f, e in zip(seq.members, standard_sequence()))


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
    for bad in (1.5, "2", True):  # a bool, although an int, is no coefficient
        with pytest.raises(ValueError, match="coefficients must be integers"):
            rewrite_to_fundamental((bad,) + (1,) * 9)
        with pytest.raises(ValueError, match="coefficients must be integers"):
            rewrite_to_fundamental((1,) * 10, a0=bad)


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
    fc2, _ = fundamental_presentation(3 * D, 1)
    assert fc2.eps == 0


def test_fundamental_presentation_keeps_torsion_on_even_classes():
    L = 2 * E[1] + 2 * E[2]
    fc, _ = fundamental_presentation(L, 1)
    assert fc.eps == 1
    assert fc.as_tuple() == (0, 2, 2, 0, 0, 0, 0, 0, 0, 0)


def test_fundamental_presentation_takes_a_torsion_bit_of_0_or_1():
    for eps in (2, -1):
        with pytest.raises(ValueError, match="eps must be 0 or 1"):
            fundamental_presentation(D, eps)


@pytest.mark.parametrize(
    "call",
    [
        lambda eps: FundamentalCoefficients(a0=0, head=(2, 2, 0, 0, 0, 0, 0), a9=0, a10=0, eps=eps),
        lambda eps: fundamental_presentation(NumClass((2, 2, 0, 0, 0, 0, 0, 0, 0, 0)), eps),
        lambda eps: rewrite_to_fundamental([2, 2] + [0] * 8, eps=eps),
    ],
    ids=["coefficients", "presentation", "rewrite"],
)
def test_a_bool_torsion_bit_is_rejected(call):
    """A bool is an int, but would leak out as JSON true or false."""
    for eps in (True, False):
        with pytest.raises(ValueError, match="eps must be 0 or 1"):
            call(eps)


def test_fundamental_presentation_inverts_divisor_class():
    for c in _iter_coefficient_tuples(6):
        if quadratic_value(c) < 1:
            continue
        fc, seq = fundamental_presentation(c.divisor_class())
        assert fc.as_tuple() == c.as_tuple()
        assert class_from_presentation(fc, seq) == c.divisor_class()


NOT_BIG = "class is not big: the self-intersection is not positive"


@pytest.mark.parametrize(
    "L, text",
    [
        (NumClass((0,) * 10), "class is not positive: it is zero"),
        (E[1], NOT_BIG),
        (E[1] - E[2], NOT_BIG),
        (-D, "class is not positive: it pairs nonpositively with d"),
    ],
    ids=["zero", "square-0", "negative-square", "negative"],
)
def test_fundamental_presentation_rejects_classes_that_are_not_big_and_positive(L, text):
    """The presentation and the oracle share one check, so one text."""
    for route in (fundamental_presentation, phi_vector_oracle):
        with pytest.raises(ValueError) as exc:
            route(L)
        assert str(exc.value) == text


# --- differential: reduction, oracle and rewrite agree ----------------------

# simple roots of W(E10) in this basis: a_0 = d - e1 - e2 - e3, a_i = e_i - e_(i+1)
SIMPLE_ROOTS = (D - E[1] - E[2] - E[3],) + tuple(E[i] - E[i + 1] for i in range(1, 10))


def reflect(x, word):
    for i in word:
        alpha = SIMPLE_ROOTS[i]
        x = x + pair(x, alpha) * alpha
    return x


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(big_small_coeffs),
    st.lists(st.integers(0, 9), max_size=30),
    st.integers(0, 1),
)
def test_reduction_recovers_reflected_coefficients(c, word, eps):
    L = reflect(c.divisor_class(), word)
    fc, seq = fundamental_presentation(L, eps)
    assert fc == replace(c, eps=eps if c.all_even() else 0)
    assert class_from_presentation(fc, seq) == L
    if pair(L, D) ** 2 < 12 * self_int(L):
        profile, _ = phi_vector_oracle(L, max_sequences=1)
        assert profile == phivector_from_coefficients(fc)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=10, max_size=10), st.integers(0, 4))
def test_rewrite_agrees_with_the_presentation_of_its_class(cs, a0):
    goal = a0 * generator_pair(9, 10)
    for v, f in zip(cs, standard_sequence()):
        goal = goal + v * f
    assume(self_int(goal) > 0)
    fc, _ = rewrite_to_fundamental(cs, a0=a0)
    assert fc == fundamental_presentation(goal)[0]


def reduce_by_pairing(goal):
    """The chamber reduction with every pairing taken by `pair`: sort the
    members by their pairing with goal, and while the top three pair above
    goal.D', reflect them in D' - S_8 - S_9 - S_10."""
    ms = list(E[1:])
    while True:
        ms.sort(key=lambda f: pair(goal, f))
        dseq = NumClass(tuple(v // 3 for v in sum(ms[1:], ms[0]).coords))
        x, y, z = ms[7:]
        if pair(goal, x + y + z) <= pair(goal, dseq):
            fc = coefficients_from_phivector([pair(goal, f) for f in ms])
            return fc, [f.coords for f in ms]
        ms[7:] = [dseq - y - z, dseq - x - z, dseq - x - y]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-(10**6), 10**6), min_size=10, max_size=10))
def test_reduction_starts_from_the_standard_pairings(coords):
    goal = NumClass(tuple(coords))
    assert _standard_pairings(goal) == tuple(pair(goal, f) for f in E[1:])
    # -goal is positive where goal is not; a class of square <= 0 stops here
    if pair(goal, D) < 0:
        goal = -goal
    if self_int(goal) > 0:
        fc, seq = fundamental_presentation(goal)
        assert (fc, [f.coords for f in seq.members]) == reduce_by_pairing(goal)


# --- deep classes: hyperbolic words -----------------------------------------


def hyperbolic_word(x, letters):
    """Reflect x `letters` times, each time in the root D - E_i - E_j - E_k
    of the three standard members it pairs lowest with (ties by index).
    Each letter costs the reduction one alpha_0 step, and the coordinates
    gain about one digit per 6 letters."""
    for _ in range(letters):
        i, j, k = sorted(range(1, 11), key=lambda n: (pair(x, E[n]), n))[:3]
        alpha = D - E[i] - E[j] - E[k]
        x = x + pair(x, alpha) * alpha
    return x


def evaluate_with_class_arithmetic(c, seq):
    """A presentation on a sequence, summed term by term with NumClass + and
    *; D' is a third of the member total."""
    ms = seq.members
    total = sum(ms[1:], ms[0])
    dseq = NumClass(tuple(v // 3 for v in total.coords))
    out = NumClass((0,) * 10)
    for v, f in zip(c.head, ms[:7]):
        out = out + v * f
    out = out + c.a9 * ms[8] + c.a10 * ms[9]
    return out + c.a0 * (dseq - ms[8] - ms[9])


def gram_form(a, b):
    gm = gram_matrix()
    return sum(x * gm[i][j] * y for i, x in enumerate(a.coords) for j, y in enumerate(b.coords))


@pytest.fixture(scope="module")
def deep_classes():
    """(known coefficients, 300-letter image of their class) per seed."""
    out = []
    for seed in range(4):
        rng = random.Random(f"deep:{seed}")
        c = rng.choice(big_small_coeffs)
        out.append((c, hyperbolic_word(c.divisor_class(), 300)))
    return out


def test_deep_classes_reduce_to_their_known_coefficients(deep_classes):
    for c, L in deep_classes:
        assert max(len(str(abs(v))) for v in L.coords) >= 45
        for eps in (0, 1):
            fc, seq = fundamental_presentation(L, eps)
            assert fc == replace(c, eps=eps if c.all_even() else 0)
            assert class_from_presentation(fc, seq) == L


def test_presentations_on_deep_sequences_match_class_arithmetic(deep_classes):
    rng = random.Random(11)
    for c, L in deep_classes:
        fc, seq = fundamental_presentation(L)
        assert evaluate_with_class_arithmetic(fc, seq) == L
        for other in rng.sample(small_coeffs, 20):
            got = class_from_presentation(other, seq)
            assert got == evaluate_with_class_arithmetic(other, seq)


def test_pair_matches_the_gram_form_on_deep_classes(deep_classes):
    for _, L in deep_classes:
        _, seq = fundamental_presentation(L)
        for x in (L, D, *seq.members):
            assert pair(L, x) == gram_form(L, x)
        assert pair(seq.members[0], seq.members[1]) == gram_form(seq.members[0], seq.members[1]) == 1


def test_rewrite_returns_the_known_coefficients_of_large_inputs():
    """rewrite_to_fundamental takes nonnegative coefficients on the standard
    sequence, and a hyperbolic word leaves that cone at its first letter.
    Its 48-digit inputs are fundamental tuples instead, with the first
    eight members and the last two permuted (isometries that fix E_(9,10))."""
    rng = random.Random(5)
    big = 10**47
    for _ in range(20):
        head = tuple(sorted((rng.randrange(big, 10 * big) for _ in range(7)), reverse=True))
        a10 = rng.randrange(big, 10 * big)
        a9 = rng.randrange(a10, 10 * big)
        a0 = rng.randrange(a9, a9 + a10 + 1)
        c = FundamentalCoefficients(a0=a0, head=head, a9=a9, a10=a10)
        first = list(head) + [0]
        rng.shuffle(first)
        last = [a9, a10] if rng.random() < 0.5 else [a10, a9]
        eps = rng.randint(0, 1)
        fc, seq = rewrite_to_fundamental(first + last, a0=a0, eps=eps)
        assert fc == replace(c, eps=eps if c.all_even() else 0)
        assert class_from_presentation(fc, seq) == sequence_combination(first + last, a0)


# --- the reduction against its class-arithmetic reference -------------------


def assert_reduces_as_the_reference(goal, eps):
    """`_reduce` gives the coefficients, eps and members, in order, of the
    reduction that carries `NumClass` members and re-sums s every step."""
    fc, seq = _reduce(goal, eps)
    want_fc, want_members = reduce_with_classes(goal, eps)
    assert (fc, fc.eps, seq.members) == (want_fc, want_fc.eps, want_members), goal.coords


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reduction_matches_the_reference_on_the_phivector_classes(workloads, benchmark_ops, seed):
    ops = benchmark_ops(workloads.PhivectorClasses(), seed)
    assert len(ops) > 500
    for op in ops:
        goal = NumClass(tuple(op.expect["class"]))
        for eps in (0, 1):
            assert_reduces_as_the_reference(goal, eps)


def test_rewrite_matches_the_reference_on_the_certify_rewrites(workloads, benchmark_ops):
    """Each of seed 1's certify rewrites matches the reduction that carries
    `NumClass` members, and passes the workload's own check, which holds
    the coefficients, the eps rule, the sequence, the class they rebuild
    and its square to the arithmetic of bench/arith.py."""
    workload = workloads.Certify()
    ops = [op for op in benchmark_ops(workload, 1) if op.kind == "rewrite"]
    assert len(ops) > 1000
    for op in ops:
        cs, a0, eps = op.args
        fc, seq = output = rewrite_to_fundamental(cs, a0, eps)
        want_fc, want_members = reduce_with_classes(sequence_combination(cs, a0), eps)
        assert (fc, fc.eps, seq.members) == (want_fc, want_fc.eps, want_members), op.args
        assert workload.check(op, output) is None, op.args


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(big_small_coeffs),
    st.lists(st.integers(0, 9), max_size=30),
    st.integers(0, 1),
)
def test_reduction_matches_the_reference_on_reflected_classes(c, word, eps):
    assert_reduces_as_the_reference(reflect(c.divisor_class(), word), eps)


# The Coxeter element of the nine simple roots orthogonal to E_1, which
# span an affine E8: E_i - E_(i+1) for i = 2..9, then D - E_2 - E_3 - E_4.
CUSP_ROOTS = tuple(E[i] - E[i + 1] for i in range(2, 10)) + (D - E[2] - E[3] - E[4],)


def cusp_powers(x, n):
    """x and its images under powers 1..n of the cusp Coxeter element;
    power k takes the reduction about k/2 steps back."""
    out = [x]
    for _ in range(n):
        for alpha in CUSP_ROOTS:
            x = x + pair(x, alpha) * alpha
        out.append(x)
    return out


def test_reduction_matches_the_reference_on_cusp_powers():
    assert all(pair(alpha, E[1]) == 0 and self_int(alpha) == -2 for alpha in CUSP_ROOTS)
    rng = random.Random(7)
    for c in [DOMINATING, *rng.sample(big_small_coeffs, 2)]:
        for k, L in enumerate(cusp_powers(c.divisor_class(), 200)):
            assert_reduces_as_the_reference(L, k % 2)
            assert _reduce(L, 0)[0] == replace(c, eps=0), k


# --- the one-pass checks against the checks one by one -----------------------

NOT_INTS = (1.5, 2.0, "3", None)
BOOLS = (True, False)


def _outcome(make):
    """What a constructor returns, or the text of its ValueError."""
    try:
        return make()
    except ValueError as exc:
        return str(exc)


def _coefficient_fields(rng):
    """Seeded valid fields [a0, head, a9, a10, eps], head a list; eps = 1
    only where every coefficient is even."""
    a10 = rng.randint(0, 6)
    a9 = rng.randint(a10, a10 + 6)
    a0 = rng.randint(a9, a9 + a10)
    head = sorted((rng.randint(0, 9) for _ in range(7)), reverse=True)
    if rng.random() < 0.3:
        a0, a9, a10, head = 2 * a0, 2 * a9, 2 * a10, [2 * v for v in head]
    even = not any(v % 2 for v in (a0, *head, a9, a10))
    return [a0, head, a9, a10, int(even and rng.random() < 0.5)]


def _set_position(fields, i, value):
    """Put value at coefficient position i: 0 is a0, 1..7 the head (its
    last entry for a shortened head), 8 and 9 are a9 and a10."""
    head = fields[1]
    if i == 0:
        fields[0] = value
    elif i <= 7:
        if head:
            head[min(i, len(head)) - 1] = value
    else:
        fields[i - 6] = value


def _break(fields, rng):
    """One seeded fault: a negative entry, a non-int, a bool, a head of the
    wrong length, a head that increases, a broken tail chain, an eps of 2,
    True or another non-bit, or eps = 1 on an odd coefficient."""
    a0, head, a9, a10, _ = fields
    kind = rng.randrange(8)
    i = rng.randrange(10)
    if kind == 0:
        _set_position(fields, i, -rng.randint(1, 5))
    elif kind == 1:
        _set_position(fields, i, rng.choice(NOT_INTS))
    elif kind == 2:
        _set_position(fields, i, rng.choice(BOOLS))
    elif kind == 3:
        if rng.random() < 0.5 and head:
            head.pop(rng.randrange(len(head)))
        else:
            head.insert(rng.randrange(len(head) + 1), rng.randint(0, 9))
    elif kind == 4 and len(head) > 1:
        j = rng.randrange(len(head) - 1)
        head[j + 1] = head[j] + rng.randint(1, 3) if isinstance(head[j], int) else 1
    elif kind == 5 and all(isinstance(v, int) for v in (a0, a9, a10)):
        fields[rng.choice((0, 2, 3))] = rng.choice((a9 + a10 + 1, a9 - 1, a0 + 1, a9 + 1))
    elif kind == 6:
        fields[4] = rng.choice((2, -1, True, False, 1.0, None))
    else:
        _set_position(fields, i, 2 * rng.randint(0, 4) + 1)
        fields[4] = 1


def _coefficient_grid(seed, n=600):
    """Valid fields with one to three seeded faults, then each fault on
    its own: a negative entry and a bool at every position."""
    rng = random.Random(seed)
    cases = []
    for _ in range(n):
        fields = _coefficient_fields(rng)
        for _ in range(rng.choice((1, 1, 2, 3))):
            _break(fields, rng)
        cases.append(fields)
    for i in range(10):
        for value in (-1, True):
            fields = [4, [7, 6, 5, 4, 3, 2, 1], 3, 2, 0]
            _set_position(fields, i, value)
            cases.append(fields)
    # a negative a_1 above a head that is otherwise in order
    cases.append([0, [-1, 0, 0, 0, 0, 0, 0], 0, 0, 0])
    return cases


@pytest.mark.parametrize("seed", range(3))
def test_coefficient_checks_give_the_first_message_of_the_checks_in_turn(seed):
    """`FundamentalCoefficients` accepts what the checks one by one accept
    and names the first that fails, on a seeded grid of malformed fields,
    each passed once with the head as a tuple and once as a list; what it
    accepts it stores with a tuple head."""
    seen = set()
    for a0, head, a9, a10, eps in _coefficient_grid(seed):
        want = fundamental_coefficients_error(a0, tuple(head), a9, a10, eps)
        for given_head in (tuple(head), list(head)):
            got = _outcome(lambda: FundamentalCoefficients(a0, given_head, a9, a10, eps))
            if want is None:
                assert isinstance(got, FundamentalCoefficients), (a0, given_head, a9, a10, eps, got)
                assert (got.a0, got.head, got.a9, got.a10, got.eps) == (a0, tuple(head), a9, a10, eps)
                assert type(got.head) is tuple
            else:
                assert got == want, (a0, given_head, a9, a10, eps)
        seen.add(want)
    assert seen == {
        None,
        "head takes exactly seven integers",
        "coefficients must be nonnegative integers",
        "head coefficients must be nonincreasing",
        "tail chain violated: need a9 + a10 >= a0 >= a9 >= a10",
        "eps must be 0 or 1",
        "eps = 1 requires all coefficients even",
    }


def _pairing_grid(seed, n=600):
    """Seeded pairing vectors for `coefficients_from_phivector`: profiles
    of valid coefficients, as PhiVectors, tuples or lists, with faults: an
    entry lowered (below 0 too), raised or made a non-int or a bool, an
    entry dropped or added, two entries swapped; and a seeded eps.  Then
    a float, a bool and a string as the first entry."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < n:
        a0, head, a9, a10, eps = _coefficient_fields(rng)
        c = FundamentalCoefficients(a0, tuple(head), a9, a10)
        if quadratic_value(c) < 1:
            continue
        p = list(phivector_from_coefficients(c).phis)
        for _ in range(rng.choice((0, 1, 1, 2))):
            kind = rng.randrange(6)
            i = rng.randrange(len(p))
            if kind == 0:
                p[i] = p[i] - rng.randint(1, 3) * 3 if isinstance(p[i], int) else -1
            elif kind == 1:
                p[i] = p[i] + rng.randint(1, 4) if isinstance(p[i], int) else 4
            elif kind == 2:
                p[i] = rng.choice((1.5, 2.0) + BOOLS)
            elif kind == 3:
                p.pop(i)
            elif kind == 4:
                p.insert(i, rng.randint(0, 9))
            else:
                j = rng.randrange(len(p))
                p[i], p[j] = p[j], p[i]
        if rng.random() < 0.2:
            eps = rng.choice((0, 1, 2, True, None))
        shape = rng.randrange(3)
        if shape == 0 and phivector_error(tuple(p)) is None:
            p = PhiVector(tuple(p))
        elif shape == 1:
            p = tuple(p)
        cases.append((p, eps))
    # entries named before any arithmetic: a float that would fail the
    # divisibility check, a bool that would pass as 1, a string that would
    # raise TypeError
    cases += [((bad,) + (2,) * 9, 0) for bad in (12.5, True, "3")]
    return cases


@pytest.mark.parametrize("seed", range(3))
def test_pairing_vectors_give_the_first_message_of_the_checks_in_turn(seed):
    """`coefficients_from_phivector` returns the coefficients of the
    checks one by one, or the message of the first that fails."""
    seen = set()
    for p, eps in _pairing_grid(seed):
        want = coefficients_from_phivector_fields(p, eps)
        got = _outcome(lambda: coefficients_from_phivector(p, eps))
        if isinstance(got, FundamentalCoefficients):
            got = (got.a0, got.head, got.a9, got.a10, got.eps)
        assert got == want, (p, eps)
        seen.add(want if isinstance(want, str) else None)
    assert {
        None,
        "a pairing vector has ten entries",
        "pairing vector entries must be integers",
        "pairing vector total must be divisible by 3",
    } < seen
    assert len(seen) >= 7, seen
