"""Brute-force engines for positive primitive isotropic classes.

Everything here is search, not formula: these routines certify the closed
forms in `fundamental` and `components` by exhaustion.

A positive isotropic class F is searched through its pairing tuple
m_i = F.E_i against the fixed sequence.  Writing t = F.D, pairing with
3D = E_1 + ... + E_10 gives sum(m) = 3t, and expanding F in the dual frame
gives the exact identities

    F^2 = (1/9) sum(m)^2 - sum(m^2)        (so isotropy == sum(m^2) = t^2),
    F   = sum_i (m_10 - m_i) E_i  (i <= 9)  +  (t - 3 m_10) D.

Nonnegativity of every m_i is not an assumption: two nonzero classes in the
closure of the same positive cone of a signature-(1, 9) form pair
nonnegatively, with zero only for proportional classes.  An exact bound on
t given F.L <= cap comes from the reverse Cauchy-Schwarz inequality in the
orthogonal complement of D:

    F.L >= (t/10) (d - sqrt(d^2 - 10 q)),   d = L.D,  q = L^2 > 0,

so admissible layers satisfy q t^2 - 2 cap d t + 10 cap^2 <= 0 or
t d <= 10 cap.  The layer-by-layer search is therefore complete; the test
suite re-certifies completeness by re-running with extra layers and by the
coordinate-box search `box_isotropics` (the oracle's oracle).

`IsotropicSequence` checks its members in full, isotropic, primitive,
positive and pairwise transverse, with one exception: the standard
sequence is checked in full once, at import, and any order of its ten
members is then accepted by comparing coordinate sets.  Every condition of
the check is symmetric in the members, so this accepts the same sequences
with the same messages, and the chamber reduction, which mostly returns
the standard members reordered, skips the check there.

The searches that recurse do so through a closure, a reference cycle
while the closure's name is bound; each deletes that name when it is
done, so what it built is freed by reference counting and a caller that
paused the cyclic collector (as a CLI command does) leaks nothing.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import product, repeat
from math import gcd, isqrt
from operator import itemgetter, mul, sub
from typing import Sequence

import numpy as np

from .lattice import (
    NumClass,
    generator_e,
    gram_matrix,
    linear_form,
    pair,
    require_big,
    standard_sequence,
)

__all__ = [
    "PhiVector",
    "IsotropicSequence",
    "order_key",
    "enumerate_isotropics",
    "box_isotropics",
    "eight_lowest",
    "phi_vector_oracle",
]


def order_key(t: Sequence[int]) -> tuple:
    """Sort key for the order on 10-tuples: total first, then the first
    differing entry among positions 1..9 (the tenth never decides)."""
    return (sum(t), tuple(t[:9]))


@dataclass(frozen=True)
class PhiVector:
    """The minimal intersection profile of a polarization with an isotropic
    10-sequence.  Validates the arithmetic every realizable profile obeys:
    positive and sorted, total divisible by 3, and the first seven entries
    dominating twice the last three."""

    phis: tuple[int, ...]

    def __post_init__(self):
        """One pass of checks, in this order, each raising ValueError with
        its own message: ten ints; the first positive; nondecreasing; the
        total divisible by 3; and the first seven at least twice the last
        three, that is the total at least three times the last three.  An
        int is one whose type is int, so a bool is no entry.  Entries that
        are not a tuple are stored as one first, so the vector compares
        and hashes as one built from a tuple; a profile of another length
        reads as ten Nones, which fail the first check."""
        p = self.phis
        if type(p) is not tuple:
            p = tuple(p)
            object.__setattr__(self, "phis", p)
        p1, p2, p3, p4, p5, p6, p7, p8, p9, p10 = p if len(p) == 10 else (None,) * 10
        if not (
            type(p1) is type(p2) is type(p3) is type(p4) is type(p5) is int
            and type(p6) is type(p7) is type(p8) is type(p9) is type(p10) is int
        ):
            raise ValueError("a phi-vector has ten integer entries")
        if p1 < 1:
            raise ValueError("phi-vector entries must be positive")
        if not p1 <= p2 <= p3 <= p4 <= p5 <= p6 <= p7 <= p8 <= p9 <= p10:
            raise ValueError("phi-vector entries must be nondecreasing")
        tail = p8 + p9 + p10
        total = p1 + p2 + p3 + p4 + p5 + p6 + p7 + tail
        if total % 3:
            raise ValueError("phi-vector total must be divisible by 3")
        if total < 3 * tail:
            raise ValueError(
                "phi-vector fails the head/tail inequality "
                "phi_1+...+phi_7 >= 2(phi_8+phi_9+phi_10)"
            )

    def __iter__(self):
        return iter(self.phis)

    def __len__(self):
        return 10

    def all_even(self) -> bool:
        p1, p2, p3, p4, p5, p6, p7, p8, p9, p10 = self.phis
        return not (p1 | p2 | p3 | p4 | p5 | p6 | p7 | p8 | p9 | p10) & 1

    def self_intersection(self) -> int:
        p = self.phis
        s = sum(p)
        return s * s // 9 - sum(map(mul, p, p))

    def genus(self) -> int:
        return self.self_intersection() // 2 + 1


def _check_sequence_rows(rows: Sequence[Sequence[int]]) -> None:
    """The full check of ten member coordinate rows: member by member
    isotropic, primitive, positive; then every pair, through the row sums
    of the pairing matrix.  ValueError naming the first condition that
    fails, members in their order.

    Each member is checked in the closed form of the pairing: with s the
    sum of its first nine coordinates and d the last, x^2 =
    s^2 - (x_1^2 + ... + x_10^2) + 6 d s + 11 d^2 and x.D = 3 s + 10 d.
    Two distinct positive primitive isotropic classes pair to at least 1
    (the light-cone fact of the module docstring), and a member pairs to 0
    with itself.  So if the members are distinct, the row sum
    f_i.(f_1 + ... + f_10) adds nine pairings that are each at least 1,
    and it is 9 exactly when all nine are 1.  Row sums of 9 also rule out
    a repeated member.  Give class c multiplicity m_c; the row of c is
    10 - m_c plus the surplus sum of m_b (c.b - 1) over the other classes
    b, so its surplus is m_c - 1.  A class of multiplicity 1 has surplus
    0, so it pairs 1 with every other class.  A repeated class c of least
    multiplicity then gets each nonzero surplus term from a repeated b,
    and that term is at least m_b >= m_c > m_c - 1; so its surplus is 0,
    and m_c = 1.  Ten row sums, against the linear form of the total, thus
    accept the same sequences as the 45 pairings, with the same message."""
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


# The rows of the standard sequence, checked in full once, here.  Every
# condition of the check is symmetric in the members, so any order of
# these ten rows passes it too.
_check_sequence_rows([f.coords for f in standard_sequence()])
_STANDARD_ROWS = frozenset(f.coords for f in standard_sequence())

# The Gram matrix of the basis, for the pairings of a whole pool at once.
_GRAM = np.array(gram_matrix(), dtype=np.int64)


@dataclass(frozen=True)
class IsotropicSequence:
    """Ten pairwise-transverse half-pencil classes: isotropic, primitive,
    positive, any two pairing to 1."""

    members: tuple[NumClass, ...]

    def __post_init__(self):
        """Ten members, then `_check_sequence_rows` on their coordinates,
        unless they are the ten standard members in some order: that set
        passed the full check at import, and the check does not depend on
        the order of the members.  Ten members whose coordinate set is the
        ten standard rows are those rows, each once."""
        ms = self.members
        if len(ms) != 10:
            raise ValueError("an isotropic sequence has ten members")
        rows = [f.coords for f in ms]
        if frozenset(rows) != _STANDARD_ROWS:
            _check_sequence_rows(rows)


def _t_limit(cap: int, d: int, q: int) -> int:
    """Largest t >= 0 with a possible solution of F.L <= cap (reverse
    Cauchy-Schwarz bound), in exact integer arithmetic.

    At t = 10 cap / d the quadratic q t^2 - 2 cap d t + 10 cap^2 takes
    10 cap^2 (10 q - d^2) / d^2 <= 0, so that point lies between its two
    roots and the branch t d <= 10 cap admits nothing more.  The admissible
    t are those up to the larger root (cap d + sqrt(cap^2 disc)) / q, that
    is, those with q t - cap d <= sqrt(cap^2 disc).  The left side is an
    integer, so the bound holds with isqrt in place of sqrt."""
    if cap <= 0:
        return 0
    disc = d * d - 10 * q
    if disc < 0:
        raise ArithmeticError("pairing with D violates the cone inequality")
    return (cap * d + isqrt(cap * cap * disc)) // q


def _layer_solutions(t: int, weights: list[int], kappa: int, cap: int) -> list[tuple[int, tuple[int, ...]]]:
    """All m >= 0 with sum(m) = 3t, sum(m^2) = t^2 and
    kappa + sum(w_i m_i) <= cap, as (value, m) pairs.

    `weights` must be sorted nonincreasing so the budget prunes are sharp;
    the caller un-permutes.  Every later weight is at least the last one,
    w_10, and every later entry is nonnegative, so an entry v at a slot of
    weight w costs at least used + w v + w_10 (run - v); that bound is
    nondecreasing in v (w >= w_10), so the loop over v stops at the first
    v that breaks it.
    """
    out: list[tuple[int, tuple[int, ...]]] = []
    w_last = weights[9]
    sufneg = [0] * 11
    for i in range(9, -1, -1):
        sufneg[i] = sufneg[i + 1] + min(0, weights[i])
    m = [0] * 10

    def rec(pos: int, run: int, run2: int, used: int) -> None:
        if pos == 10:
            if run == 0 and run2 == 0 and used <= cap:
                out.append((used, tuple(m)))
            return
        k = 10 - pos
        km1 = k - 1
        disc = km1 * (k * run2 - run * run)
        if disc < 0:
            return
        rt = isqrt(disc)
        lo = max(0, (run - rt + k - 1) // k - 1)
        hi = min(run, isqrt(run2), (run + rt) // k + 1)
        w = weights[pos]
        sn = sufneg[pos + 1]
        least = used + w_last * run  # the bound at v = 0; each step adds w - w_10
        step = w - w_last
        for v in range(lo, hi + 1):
            if least + step * v > cap:
                break
            rv = run - v
            r2v = run2 - v * v
            if rv * rv > km1 * r2v:  # no balanced completion
                continue
            if r2v > rv * rv:  # no concentrated completion
                continue
            u = used + w * v
            # later negative weights can pay back at most sn * sqrt(r2v)
            if sn and u + sn * isqrt(r2v) > cap:
                continue
            m[pos] = v
            rec(pos + 1, rv, r2v, u)
        m[pos] = 0

    rec(0, 3 * t, t * t, kappa)
    # rec calls itself through its closure, a reference cycle that would
    # hold `out` until a collection; with the name gone it holds nothing
    del rec
    return out


def _enumerate_with_values(L: NumClass, cap: int, extra_layers: int = 0) -> list[tuple[int, NumClass]]:
    d, q = require_big(L)
    y = L.coords
    raw = [y[i] for i in range(9)] + [0]
    order = sorted(range(10), key=lambda i: -raw[i])
    weights = [raw[i] for i in order]
    # a layer lists each m in the order of the weights; this puts it back
    # in the order of the members, m_1, ..., m_10
    unpermute = itemgetter(*map(order.index, range(10)))
    trusted = NumClass._trusted
    found: list[tuple[int, NumClass]] = []
    # t = F.D is at least 3: sum(m) = 3t and sum(m^2) = t^2 force t^2 >= 3t
    for t in range(3, _t_limit(cap, d, q) + extra_layers + 1):
        kappa = t * y[9]
        for value, m_ord in _layer_solutions(t, weights, kappa, cap):
            m = unpermute(m_ord)
            m10 = m[9]
            # F = sum_i (m_10 - m_i) E_i (i <= 9) + (t - 3 m_10) D, nonzero
            # since F.D = t > 0, so primitive exactly when its gcd is 1
            coords = (*map(sub, repeat(m10, 9), m), t - 3 * m10)
            if gcd(*coords) == 1:
                found.append((value, trusted(coords)))
    found.sort(key=lambda pf: (pf[0], pf[1].coords))
    return found


def enumerate_isotropics(L: NumClass, cap: int, extra_layers: int = 0) -> list[NumClass]:
    """All positive primitive isotropic F with F.L <= cap, sorted by the
    value F.L and then by coordinates.

    A cap below phi(L) yields an empty list.  `extra_layers` widens the
    proven search bound; the result must not change, and the verification
    suite checks exactly that.
    """
    if type(cap) is not int:
        raise ValueError(f"cap must be an integer, got {cap!r}")
    if type(extra_layers) is not int or extra_layers < 0:
        raise ValueError(f"extra_layers must be a nonnegative integer, got {extra_layers!r}")
    return [f for _, f in _enumerate_with_values(L, cap, extra_layers)]


def box_isotropics(L: NumClass, cap: int, box: int = 2) -> list[NumClass]:
    """Reference search by coordinates: every positive primitive isotropic
    class with coordinates in [-box, box] and F.L <= cap, sorted by the
    value F.L and then by coordinates.  Independent of the pairing-tuple
    machinery; used to cross-check it.

    With c_1..c_9 the E-coordinates and x the D-coordinate,
    F^2 = s^2 - q + 6 s x + 10 x^2 for s = sum(c_i) and q = sum(c_i^2),
    and F.D = 3 s + 10 x.  The scan meets in the middle: it splits the
    E-coordinates into c_1..c_4 and c_5..c_9 and groups each half by its
    (s, q), listing the members by their share of F.L.  For each first
    half group, second half s and x with 3 s + 10 x > 0 (F positive, so
    not zero), isotropy fixes the second half's q, and bisection on that
    group's list keeps the members within the cap; a candidate is kept
    when its coordinate gcd is 1, as `lattice.is_primitive` defines
    primitivity.  The cost is about
    (2 box + 1)^5 plus the hits, and all arithmetic is on exact Python
    integers, so no class is too large to scan.
    """
    if type(cap) is not int:
        raise ValueError(f"cap must be an integer, got {cap!r}")
    if type(box) is not int or box < 0:
        raise ValueError(f"box must be a nonnegative integer, got {box!r}")
    require_big(L)
    lf = linear_form(L)
    l10 = lf[9]
    vals = range(-box, box + 1)

    def halves(weights: Sequence[int]) -> dict[tuple[int, int], list]:
        """(s, q) -> [(share of F.L, coordinates)] over the box in these
        coordinates, sorted.  The sums are built one coordinate at a time,
        each point's last coordinate varying fastest, which is the order
        in which `product` lists the points."""
        sums, squares, dots = [0], [0], [0]
        for w in weights:
            sums = [s + v for s in sums for v in vals]
            squares = [q + v * v for q in squares for v in vals]
            dots = [dot + w * v for dot in dots for v in vals]
        groups: dict[tuple[int, int], list] = {}
        for s, q, dot, c in zip(sums, squares, dots, product(vals, repeat=len(weights))):
            groups.setdefault((s, q), []).append((dot, c))
        for members in groups.values():
            members.sort()
        return groups

    firsts = halves(lf[:4])
    seconds = {
        key: ([dot for dot, _ in members], members) for key, members in halves(lf[4:9]).items()
    }
    hits: list[tuple[int, tuple[int, ...]]] = []
    for (s_a, q_a), members_a in firsts.items():
        for s_b in range(-5 * box, 5 * box + 1):
            s = s_a + s_b
            for x in vals:
                if 3 * s + 10 * x <= 0:
                    continue
                group = seconds.get((s_b, s * s + 6 * s * x + 10 * x * x - q_a))
                if group is None:
                    continue
                dots, members_b = group
                base = x * l10
                for dot_a, c_a in members_a:
                    value_a = dot_a + base
                    top = bisect_right(dots, cap - value_a)
                    if not top:
                        break  # members_a is sorted by dot_a
                    for dot_b, c_b in members_b[:top]:
                        coords = c_a + c_b + (x,)
                        if gcd(*coords) == 1:
                            hits.append((value_a + dot_b, coords))
    hits.sort()
    return [NumClass._trusted(coords) for _, coords in hits]


def eight_lowest(L: NumClass) -> tuple[int, ...]:
    """The eight smallest values F.L over distinct positive primitive
    isotropic classes.

    With lam the sorted standard pairings, the ten standard members give
    at least eight classes of value at most lam_8, so the eight lowest
    values are those below lam_8, padded with lam_8 up to eight.  The
    search therefore stops just below that cap and never lists the
    classes tied at it, which can be most of the pool.  Every standard
    member of value below the cap must be among the classes found."""
    standard = [(pair(L, f), f) for f in standard_sequence()]
    cap = sorted(v for v, _ in standard)[7]
    found = _enumerate_with_values(L, cap - 1)
    members = {f for _, f in found}
    if not all(f in members for v, f in standard if v < cap):
        raise AssertionError("search missed part of the standard sequence")
    values = [v for v, _ in found[:8]]
    return (*values, *[cap] * (8 - len(values)))


def _best_sequences(
    pool: list[tuple[int, NumClass]],
    seed_key: tuple,
    max_sets: int,
) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """Smallest value tuple over 10-member pairwise-1 subsets of the pool,
    with the index sets attaining it (at most max_sets of them; the tuple
    itself is always exact).  The pool must be sorted by (value, coords).

    Depth first, members in increasing index order.  At a node with chosen
    values c and `need` members still to place, the candidates (indices
    above the last chosen one that pair 1 with every chosen member) are
    listed in increasing order, with values w_0 <= w_1 <= ...  Before it
    enters the child that takes candidate p, the search bounds that child
    by the relaxed key of c + (w_p, ..., w_{p+need-1}): candidate p plus
    the need - 1 cheapest candidates above it, with the pairings among
    them ignored.  Any completion in that child takes need - 1 of those
    candidates, so it dominates the relaxed tuple entrywise, and its key
    is at least the relaxed one.  The relaxed tuple for p + 1 dominates the
    one for p entrywise, as both are need consecutive values of a sorted
    list, so the relaxed key is nondecreasing in p; and the best key only
    falls while the loop runs.  So the loop ends at the first child whose
    relaxed key is above the best key, or equal to it with max_sets sets
    held, or that has fewer than need - 1 candidates above it: every later
    child is ruled out as well.  The running sum of the window decides
    alone unless it ties the best sum, when the first nine entries
    compare.  The sets found and their order are those of the plain
    depth-first search."""
    n = len(pool)
    vals = [v for v, _ in pool]
    coords = np.array([f.coords for _, f in pool], dtype=np.int64)
    ones = (coords @ _GRAM @ coords.T) == 1
    # bitmasks need arbitrary precision: pack each row into bytes, lowest
    # bit first, and read the bytes as one little-endian Python int
    packed = np.packbits(ones, axis=1, bitorder="little")
    adj = [int.from_bytes(row.tobytes(), "little") for row in packed]

    best_key = seed_key
    best_tuple: tuple[int, ...] | None = None
    best_sets: list[tuple[int, ...]] = []

    def rec(cand: int, chosen: list[int], chosen_vals: list[int], chosen_sum: int) -> None:
        nonlocal best_key, best_tuple, best_sets
        need = 10 - len(chosen)
        idx = []
        b = cand
        while b:
            low = b & -b
            idx.append(low.bit_length() - 1)
            b ^= low
        ws = [vals[j] for j in idx]
        window = chosen_sum + sum(ws[:need])
        for p in range(len(idx) - need + 1):
            if p:
                window += ws[p + need - 1] - ws[p - 1]
            if window >= best_key[0]:
                if window > best_key[0]:
                    break
                first_nine = tuple((chosen_vals + ws[p : p + need])[:9])
                if first_nine > best_key[1]:
                    break
                if first_nine == best_key[1] and len(best_sets) >= max_sets:
                    break
            j = idx[p]
            chosen.append(j)
            chosen_vals.append(ws[p])
            if need == 1:
                # the relaxed tuple is the chosen one: a set in hand
                tup = tuple(chosen_vals)
                key = order_key(tup)
                if key < best_key:
                    best_key, best_tuple, best_sets = key, tup, [tuple(chosen)]
                else:
                    if best_tuple is None:
                        best_tuple = tup
                    best_sets.append(tuple(chosen))
            else:
                rec(cand & adj[j] & ~((1 << (j + 1)) - 1), chosen, chosen_vals, chosen_sum + ws[p])
            chosen.pop()
            chosen_vals.pop()

    rec((1 << n) - 1, [], [], 0)
    del rec  # rec calls itself through its closure: drop that cycle
    if best_tuple is None:
        raise AssertionError("no isotropic 10-sequence found in the certified pool")
    return best_tuple, best_sets


def phi_vector_oracle(
    L: NumClass, max_sequences: int = 1000
) -> tuple[PhiVector, tuple[IsotropicSequence, ...]]:
    """Minimal value tuple over all isotropic 10-sequences, plus computing
    sequences attaining it.

    Self-certifying pool growth: any sequence whose tuple could compete has
    all members below C* = sum(best) - sum(eight lowest) - (eighth lowest),
    because nine distinct members account for at least the eight lowest
    values plus the eighth again.  The first pool is searched at the
    largest standard pairing, so it holds the ten standard members, and
    its first eight values are the eight lowest.  The pool cap is grown
    until it covers its own C*, and each cap is searched once.

    Two rounds always suffice.  Round 1's pool fixes the eight lowest
    values and so the slack subtracted from sum(best).  The best key
    orders by sum first, so round 2, on a larger pool, finds a sum at most
    round 1's, and its C* is at most the cap it searched.

    The minimal tuple is always exact.  Degenerate classes can admit
    very many computing sequences (the genus-2 class E_1 + E_2 has 17,280),
    so collection stops at max_sequences; a result strictly shorter than
    the limit is the complete set, in lexicographic member-coordinate
    order.
    """
    if type(max_sequences) is not int:
        raise ValueError(f"max_sequences must be an integer, got {max_sequences!r}")
    if max_sequences < 1:
        raise ValueError("max_sequences must be at least 1")
    lam = [pair(L, generator_e(i)) for i in range(1, 11)]
    seed = order_key(sorted(lam))
    cap = max(lam)
    for _ in range(2):
        pool = _enumerate_with_values(L, cap)
        if len(pool) < 10:
            raise AssertionError("search missed part of the standard sequence")
        slack = sum(v for v, _ in pool[:8]) + pool[7][0]
        tup, sets = _best_sequences(pool, seed, max_sequences)
        needed = sum(tup) - slack
        if cap >= needed:
            break
        cap = needed
    else:
        raise AssertionError("sequence search cap failed to stabilize")
    # _best_sequences picks indices in increasing order from a pool sorted
    # by (value, coords), so each set's members come out in that order
    sequences = [IsotropicSequence(tuple(pool[i][1] for i in idxs)) for idxs in sets]
    sequences.sort(key=lambda s: tuple(f.coords for f in s.members))
    return PhiVector(tup), tuple(sequences)
