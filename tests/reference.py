"""Reference walks that the tests hold the package's routes against."""

from enriques.lattice import RANK, pair, standard_sequence
from enriques.oracle import PhiVector, enumerate_isotropics


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
