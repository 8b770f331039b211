"""Reference walks that the tests hold the package's routes against."""

from math import gcd, isqrt
from operator import mul

import numpy as np

from enriques.fundamental import (
    _standard_pairings,
    class_from_presentation,
    coefficients_from_phivector,
)
from enriques.lattice import (
    D,
    RANK,
    NumClass,
    gram_matrix,
    is_two_divisible,
    linear_form,
    pair,
    standard_sequence,
)
from enriques.oracle import IsotropicSequence, PhiVector, enumerate_isotropics, order_key
from enriques.verify import _most_squares


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


def best_sequences_unpruned(pool, seed_key, max_sets):
    """The search of `oracle._best_sequences` that bounds each node only
    on entry, by its own cheapest completion: every child of a node is
    entered, and most return at that bound.  Same arguments and result."""
    n = len(pool)
    vals = [v for v, _ in pool]
    coords = np.array([f.coords for _, f in pool], dtype=np.int64)
    g = np.array(gram_matrix(), dtype=np.int64)
    ones = (coords @ g @ coords.T) == 1
    packed = np.packbits(ones, axis=1, bitorder="little")
    adj = [int.from_bytes(row.tobytes(), "little") for row in packed]

    best_key = seed_key
    best_tuple = None
    best_sets = []

    def rec(cand, chosen, chosen_vals):
        nonlocal best_key, best_tuple, best_sets
        k = len(chosen)
        if k == 10:
            tup = tuple(chosen_vals)
            key = order_key(tup)
            if key < best_key:
                best_key, best_tuple, best_sets = key, tup, [tuple(chosen)]
            elif key == best_key and len(best_sets) < max_sets:
                if best_tuple is None:
                    best_tuple = tup
                best_sets.append(tuple(chosen))
            return
        opt = list(chosen_vals)
        b = cand
        while b and len(opt) < 10:
            j = (b & -b).bit_length() - 1
            opt.append(vals[j])
            b &= b - 1
        if len(opt) < 10:
            return
        opt_key = order_key(opt)
        if opt_key > best_key:
            return
        if opt_key == best_key and len(best_sets) >= max_sets:
            return
        b = cand
        while b:
            j = (b & -b).bit_length() - 1
            b &= b - 1
            chosen.append(j)
            chosen_vals.append(vals[j])
            rec(cand & adj[j] & ~((1 << (j + 1)) - 1), chosen, chosen_vals)
            chosen.pop()
            chosen_vals.pop()

    rec((1 << n) - 1, [], [])
    if best_tuple is None:
        raise AssertionError("no isotropic 10-sequence found in the certified pool")
    return best_tuple, best_sets


def profiles_by_genus_unpruned(g_lo, g_hi):
    """The quadratic profile search of `verify._profiles_by_genus` with
    every bound checked on entry to the node it prunes: each child of a
    node is entered, and the greedy bound returns from it there.  Same
    arguments and result."""
    found = {g: set() for g in range(g_lo, g_hi + 1)}
    width = 2 * (g_hi - g_lo)
    s_hi = 3 * g_hi + isqrt(g_hi) + 2
    for s in range(2, s_hi + 1):
        total = 3 * s
        top = s * s - (2 * g_lo - 2)
        if top < total:
            continue
        acc = []

        def rec(k, hi, r, r2):
            if k == 0:
                if r == 0 and r2 <= width:
                    found[g_lo + r2 // 2].add(tuple(reversed(acc)))
                return
            if r > k * hi or r < k:
                return
            q, rem = divmod(r, k)
            if r2 < (k - rem) * q * q + rem * (q + 1) * (q + 1):
                return
            if r2 - width > _most_squares(k, hi, r):
                return
            lo_v = -(-r // k)
            hi_v = min(hi, r - (k - 1), isqrt(r2 - (k - 1)))
            j = RANK - k
            if j < 3:
                room = s - (total - r)
                hi_v = min(hi_v, ((k - 1) * room - (2 - j) * r) // 7)
            for v in range(hi_v, lo_v - 1, -1):
                acc.append(v)
                rec(k - 1, v, r - v, r2 - v * v)
                acc.pop()

        rec(RANK, total, total, top)
    return {g: sorted(profiles, key=order_key) for g, profiles in found.items()}


def fundamental_coefficients_error(a0, head, a9, a10, eps=0):
    """The message of the first check of `FundamentalCoefficients` that
    fails on these fields, in the order the checks ran one by one, or
    None when all pass."""
    if len(head) != 7 or not all(type(v) is int for v in head):
        return "head takes exactly seven integers"
    vals = (a0, *head, a9, a10)
    if not all(type(v) is int for v in vals) or min(vals) < 0:
        return "coefficients must be nonnegative integers"
    if not all(head[i] >= head[i + 1] for i in range(6)):
        return "head coefficients must be nonincreasing"
    if not (a9 + a10 >= a0 >= a9 >= a10):
        return "tail chain violated: need a9 + a10 >= a0 >= a9 >= a10"
    if type(eps) is not int or eps not in (0, 1):
        return "eps must be 0 or 1"
    if eps == 1 and any(v % 2 for v in vals):
        return "eps = 1 requires all coefficients even"
    return None


def phivector_error(phis):
    """The message of the first check of `PhiVector` that fails on these
    entries, in the order the checks ran one by one, or None."""
    p = phis
    if len(p) != 10 or not all(isinstance(v, int) for v in p):
        return "a phi-vector has ten integer entries"
    if p[0] < 1:
        return "phi-vector entries must be positive"
    if not all(p[i] <= p[i + 1] for i in range(9)):
        return "phi-vector entries must be nondecreasing"
    if sum(p) % 3:
        return "phi-vector total must be divisible by 3"
    if sum(p[:7]) < 2 * (p[7] + p[8] + p[9]):
        return (
            "phi-vector fails the head/tail inequality "
            "phi_1+...+phi_7 >= 2(phi_8+phi_9+phi_10)"
        )
    return None


def coefficients_from_phivector_fields(p, eps=0):
    """`fundamental.coefficients_from_phivector` entry by entry:
    (a0, head, a9, a10, eps) when it returns, else the message of the
    first check that fails, its own two and then those of
    `fundamental_coefficients_error`."""
    p = tuple(p)
    if len(p) != 10:
        return "a pairing vector has ten entries"
    s, rem = divmod(sum(p), 3)
    if rem:
        return "pairing vector total must be divisible by 3"
    p8 = p[7]
    fields = (s - 3 * p8, tuple(p8 - p[i] for i in range(7)), s - 2 * p8 - p[8], s - 2 * p8 - p[9], eps)
    return fundamental_coefficients_error(*fields) or fields
