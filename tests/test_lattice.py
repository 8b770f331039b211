"""Integer lattice layer: pairing arithmetic, generators, predicates."""

import random
from itertools import combinations
from math import prod

import pytest
from hypothesis import given, strategies as st

import enriques.lattice
from enriques.lattice import (
    D,
    NumClass,
    RANK,
    generator_e,
    generator_pair,
    gram_determinant,
    gram_matrix,
    gram_signature,
    is_positive,
    is_primitive,
    is_two_divisible,
    linear_form,
    pair,
    require_big,
    self_int,
    sequence_combination,
    standard_sequence,
)

ZERO = NumClass((0,) * RANK)
coords_st = st.tuples(*([st.integers(-9, 9)] * RANK))
classes_st = coords_st.map(NumClass)


def test_gram_matrix_shape_and_symmetry():
    gm = gram_matrix()
    assert len(gm) == RANK and all(len(row) == RANK for row in gm)
    assert all(gm[i][j] == gm[j][i] for i in range(RANK) for j in range(RANK))


def test_gram_determinant_is_minus_one():
    assert gram_determinant() == -1


def test_gram_signature():
    assert gram_signature() == (1, 9)


def use_gram(monkeypatch, g):
    monkeypatch.setattr(enriques.lattice, "gram_matrix", lambda: tuple(map(tuple, g)))


def identity():
    return [[int(i == j) for j in range(RANK)] for i in range(RANK)]


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@pytest.mark.parametrize("seed", range(8))
def test_invariants_of_diagonal_matrices(monkeypatch, seed):
    rng = random.Random(seed)
    diag = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(RANK)]
    assert min(diag) < 0 < max(diag)
    use_gram(monkeypatch, [[d * x for x in row] for d, row in zip(diag, identity())])
    assert gram_determinant() == prod(diag)
    assert gram_signature() == (sum(d > 0 for d in diag), sum(d < 0 for d in diag))


def test_zero_first_pivot_raises(monkeypatch):
    g = [list(row) for row in gram_matrix()]
    g[RANK - 1][RANK - 1] = 0
    use_gram(monkeypatch, g)
    with pytest.raises(ArithmeticError, match="leading minor 1 "):
        gram_determinant()
    with pytest.raises(ArithmeticError, match="leading minor 1 "):
        gram_signature()


def test_invariants_survive_unimodular_congruences(monkeypatch):
    """P^T G P, with P a seeded product of elementary integer matrices
    (det P = 1), is the Gram matrix of another basis: every one whose
    leading minors are nonzero keeps det -1 and signature (1, 9)."""
    gram = gram_matrix()
    computed = 0
    for seed in range(60):
        rng = random.Random(seed)
        p = identity()
        for _ in range(8):
            step = identity()
            i, j = rng.sample(range(RANK), 2)
            step[i][j] = rng.choice((-2, -1, 1, 2))
            p = matmul(p, step)
        use_gram(monkeypatch, matmul(matmul([list(c) for c in zip(*p)], gram), p))
        try:
            got = gram_determinant(), gram_signature()
        except ArithmeticError:
            continue
        assert got == (-1, (1, 9)), seed
        computed += 1
    assert computed >= 50


def test_basis_pairings():
    es = [generator_e(i) for i in range(1, 11)]
    for i, j in combinations(range(10), 2):
        assert pair(es[i], es[j]) == 1
    for e in es:
        assert self_int(e) == 0
        assert pair(e, D) == 3
    assert self_int(D) == 10


def test_pair_class_pairings():
    f = generator_pair(1, 2)
    assert self_int(f) == 0
    assert pair(f, D) == 4
    assert pair(f, generator_e(1)) == 2
    assert pair(f, generator_e(2)) == 2
    assert pair(f, generator_e(3)) == 1
    assert pair(f, generator_pair(1, 3)) == 1
    assert pair(f, generator_pair(3, 4)) == 2


def test_pair_class_symmetry_and_identity():
    assert generator_pair(2, 1) == generator_pair(1, 2)
    # e_i + f_{i,j} = d - e_j for every ordered pair
    for i in range(1, 11):
        for j in range(1, 11):
            if i != j:
                assert generator_e(i) + generator_pair(i, j) == D - generator_e(j)
    with pytest.raises(ValueError):
        generator_pair(3, 3)
    with pytest.raises(ValueError, match="index out of range"):
        generator_pair(True, 2)


def test_three_d_is_the_basis_sum():
    total = ZERO
    for i in range(1, 11):
        total = total + generator_e(i)
    assert total == 3 * D


def test_standard_sequence():
    seq = standard_sequence()
    assert len(seq) == 10
    assert seq is standard_sequence()  # one shared constant
    assert seq == tuple(generator_e(i) for i in range(1, 11))
    for bad in (0, 11, 1.5, "2", True):  # a bool, although an int, is no index
        with pytest.raises(ValueError, match="index out of range"):
            generator_e(bad)
    for i, j in combinations(range(10), 2):
        assert pair(seq[i], seq[j]) == 1
    for f in seq:
        assert self_int(f) == 0 and is_primitive(f) and is_positive(f)


def test_numclass_validation():
    with pytest.raises(ValueError):
        NumClass((1, 2, 3))
    # a list of coordinates is stored as a tuple
    listed = NumClass([0] * 9 + [1])
    assert type(listed.coords) is tuple and listed == D and hash(listed) == hash(D)
    for bad in (0.5, "2", True):  # a bool, although an int, is no coordinate
        with pytest.raises(ValueError, match="coordinates must be integers"):
            NumClass((bad,) + (0,) * 9)
    a = NumClass((1,) * 10)
    for bad in (True, False, 2.0, "2"):  # nor a multiplier, on either side
        with pytest.raises(TypeError):
            a * bad
        with pytest.raises(TypeError):
            bad * a


def test_numclass_arithmetic_and_json():
    a = NumClass((1, 2, 3, 4, 5, 6, 7, 8, 9, 10))
    b = generator_e(2)
    assert (a + b) - b == a
    assert -(-a) == a
    assert 2 * a == a + a
    assert a * 2 == a + a
    assert ZERO.is_zero() and not a.is_zero()


@given(classes_st, classes_st, st.integers(-5, 5))
def test_arithmetic_results_equal_checked_classes(a, b, n):
    """+, -, unary - and * skip the constructor's checks; their results
    are still ten-integer classes equal (and hashing equal) to the checked
    construction of the same coordinates."""
    for got, want in (
        (a + b, [x + y for x, y in zip(a.coords, b.coords)]),
        (a - b, [x - y for x, y in zip(a.coords, b.coords)]),
        (-a, [-x for x in a.coords]),
        (n * a, [n * x for x in a.coords]),
        (a * n, [n * x for x in a.coords]),
    ):
        checked = NumClass(tuple(want))
        assert type(got) is NumClass and got == checked and hash(got) == hash(checked)
        assert len(got.coords) == RANK and all(type(v) is int for v in got.coords)


def test_genus_values():
    # self-intersection 2g - 2
    assert self_int(D) == 2 * 6 - 2
    assert self_int(3 * D) == 2 * 46 - 2
    assert self_int(generator_e(1) + generator_e(2)) == 2 * 2 - 2


def test_primitivity():
    assert is_primitive(generator_e(1))
    assert is_primitive(D)
    assert not is_primitive(2 * D)
    assert not is_primitive(3 * D)
    with pytest.raises(ValueError):
        is_primitive(ZERO)


def test_positivity():
    assert is_positive(generator_e(5))
    assert not is_positive(-generator_e(5))
    assert is_positive(D)
    with pytest.raises(ValueError):
        is_positive(ZERO)
    with pytest.raises(ValueError):
        is_positive(generator_e(1) - generator_e(2))


def test_two_divisibility():
    assert is_two_divisible(2 * generator_e(1))
    assert not is_two_divisible(generator_e(1))
    assert not is_two_divisible(generator_e(10))  # coords (-1,...,-1,3)
    assert is_two_divisible(2 * D)


def test_two_divisibility_matches_coordinate_parity_with_negative_entries():
    """Parity is read from the OR of the coordinates, which for negative
    ints works on their two's complement: a seeded differential against
    the coordinates read one by one, on classes with negative entries,
    entries past 64 bits, and doubled ones, so both answers occur."""
    rng = random.Random(23)
    seen = set()
    for _ in range(2000):
        big = rng.random() < 0.2
        span = 2**70 if big else 9
        coords = [rng.randint(-span, span) for _ in range(RANK)]
        if rng.random() < 0.5:
            coords = [2 * v for v in coords]
        if rng.random() < 0.3:
            coords[rng.randrange(RANK)] = -rng.randrange(1, span, 2)
        want = all(v % 2 == 0 for v in coords)
        assert is_two_divisible(NumClass(tuple(coords))) == want, coords
        seen.add((want, min(coords) < 0))
    assert seen == {(True, True), (False, True), (True, False), (False, False)}


def test_sequence_combination_matches_manual_sum():
    built = sequence_combination((1, 1, 0, 0, 0, 0, 0, 0, 0, 0))
    assert built == generator_e(1) + generator_e(2)
    rich = sequence_combination((3, 1, 0, 0, 0, 0, 0, 0, 2, 1), a0=2)
    manual = (
        3 * generator_e(1)
        + generator_e(2)
        + 2 * generator_e(9)
        + generator_e(10)
        + 2 * generator_pair(9, 10)
    )
    assert rich == manual


def test_sequence_combination_validation():
    with pytest.raises(ValueError):
        sequence_combination((1,) * 8)
    with pytest.raises(ValueError):
        sequence_combination((1,) * 11)
    for bad in (12.5, "3", True):  # a bool, although an int, is no coefficient
        with pytest.raises(ValueError, match="coefficients must be integers"):
            sequence_combination((bad,) + (1,) * 9)
        with pytest.raises(ValueError, match="coefficients must be integers"):
            sequence_combination((1,) * 10, a0=bad)
    with pytest.raises(ValueError, match="coefficients must be integers"):
        sequence_combination([True] * 10)  # once 3D


@given(st.lists(st.integers(0, 50), min_size=10, max_size=10), st.integers(0, 50))
def test_sequence_combination_is_the_generator_sum(coeffs, a0):
    total = a0 * generator_pair(9, 10)
    for i, v in enumerate(coeffs, start=1):
        total = total + v * generator_e(i)
    assert sequence_combination(coeffs, a0) == total


def test_require_big_returns_the_pairing_with_d_and_the_square():
    assert require_big(D) == (10, 10)
    assert require_big(generator_e(1) + generator_e(2)) == (6, 2)
    assert require_big(3 * D) == (30, 90)


@given(classes_st, classes_st)
def test_pair_is_symmetric(a, b):
    assert pair(a, b) == pair(b, a)


@given(classes_st, classes_st, classes_st)
def test_pair_is_bilinear(a, b, c):
    assert pair(a + b, c) == pair(a, c) + pair(b, c)


@given(classes_st, classes_st)
def test_pair_and_linear_form_match_the_gram_matrix(a, b):
    gm = gram_matrix()
    want = sum(x * gm[i][j] * y for i, x in enumerate(a.coords) for j, y in enumerate(b.coords))
    assert pair(a, b) == want
    form = linear_form(a)
    assert sum(l * y for l, y in zip(form, b.coords)) == want
    assert form[9] == pair(a, D)


@given(classes_st)
def test_lattice_is_even(a):
    assert self_int(a) % 2 == 0
