"""Reference walks that the tests hold the package's routes against."""

from math import gcd
from operator import mul

from enriques.fundamental import (
    _standard_pairings,
    class_from_presentation,
    coefficients_from_phivector,
)
from enriques.lattice import (
    D,
    RANK,
    NumClass,
    is_two_divisible,
    linear_form,
    pair,
    standard_sequence,
)
from enriques.oracle import IsotropicSequence, PhiVector, enumerate_isotropics


def eight_lowest_at_the_cap(L):
    """The eight smallest values F.L, read off the search at the eighth
    smallest standard pairing itself, so every class tied at that cap is
    listed and the values are the first eight in the list."""
    cap = sorted(pair(L, f) for f in standard_sequence())[7]
    return tuple(pair(f, L) for f in enumerate_isotropics(L, cap)[:8])


def iter_phi_profiles(max_sum):
    """All valid profiles with entry sum <= max_sum, in order of sum.

    Walks nondecreasing positive tuples directly against the profile
    invariants, independent of the coefficient parametrization and of the
    quadratic profile search.
    """
    for total in range(12, max_sum + 1, 3):
        acc = []

        def rec(k, lo, r):
            if k == 0:
                if r == 0:
                    yield PhiVector(tuple(acc))
                return
            if k == 3 and 3 * (total - r) < 2 * total:
                return
            if r < k * lo:
                return
            for v in range(lo, r // k + 1):
                acc.append(v)
                yield from rec(k - 1, v, r - v)
                acc.pop()

        yield from rec(RANK, 1, total)


def check_isotropic_sequence(ms):
    """The full check of `IsotropicSequence` on every sequence, the
    standard one included: ten members, then member by member isotropic,
    primitive, positive, then the row sums of the pairing matrix against
    the linear form of the total.  ValueError with the message of the
    first condition that fails."""
    if len(ms) != 10:
        raise ValueError("an isotropic sequence has ten members")
    rows = [f.coords for f in ms]
    for x in rows:
        d = x[9]
        s = sum(x) - d
        if s * s - sum(map(mul, x, x)) + (6 * s + 11 * d) * d != 0:
            raise ValueError("sequence member is not isotropic")
        g = gcd(*x)
        if g == 0:
            raise ValueError("the zero class is neither primitive nor imprimitive")
        if g != 1 or 3 * s + 10 * d <= 0:
            raise ValueError("sequence member is not positive primitive")
    form = linear_form(NumClass._trusted(tuple(map(sum, zip(*rows)))))
    if [sum(map(mul, x, form)) for x in rows] != [9] * 10:
        raise ValueError("sequence members must pairwise pair to 1")


def reduce_with_classes(goal, eps):
    """The chamber reduction of `fundamental._reduce` with `NumClass`
    members throughout, s = goal.D' summed afresh from the pairings at
    every step, and the full sequence check on the result: (coefficients,
    members)."""
    pairs = list(zip(_standard_pairings(goal), standard_sequence()))
    dseq = D
    while True:
        pairs.sort(key=lambda mf: mf[0])
        (m8, x), (m9, y), (m10, z) = pairs[7:]
        s = sum(v for v, _ in pairs) // 3
        if m8 + m9 + m10 <= s:
            break
        pairs[7:] = [
            (s - m9 - m10, dseq - y - z),
            (s - m8 - m10, dseq - x - z),
            (s - m8 - m9, dseq - x - y),
        ]
        dseq = 2 * dseq - x - y - z

    even = is_two_divisible(goal)
    fc = coefficients_from_phivector([v for v, _ in pairs], eps=eps if even else 0)
    if fc.all_even() != even:
        raise AssertionError("2-divisibility disagrees with the coefficient parity")
    members = tuple(f for _, f in pairs)
    check_isotropic_sequence(members)
    if class_from_presentation(fc, IsotropicSequence(members)) != goal:
        raise AssertionError("presentation failed to reconstruct the class")
    return fc, members
