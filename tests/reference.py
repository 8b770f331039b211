"""Reference walks that the tests hold the package's routes against."""

from enriques.lattice import RANK
from enriques.oracle import PhiVector


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
