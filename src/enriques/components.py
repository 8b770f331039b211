"""Genus-by-genus classification of moduli components.

Irreducible components of the moduli space of polarized surfaces of genus
g correspond bijectively to 11-tuples (phi_1 <= ... <= phi_10, eps) with:
positive entries, total divisible by 3, the first seven entries at least
twice the last three combined, eps = 0 unless every entry is even, and
2g - 2 = (1/9)(sum phi)^2 - sum(phi^2).

Enumeration runs over fundamental coefficient tuples of the right
self-intersection (an elementary nonnegative quadratic, so partial-sum
pruning is exact) and converts each to its profile.  It is one walk over
the heads a_1..a_7 for a whole window of genera, its tuples grouped by
quadratic value g - 1; a single genus is the window of width zero, and
every sweep over 2..gmax is one window.  The walk branches only on
entries v >= 1: each prefix takes its all-zero completion (the prefix
padded with zeros) where its branch starts.  A tail (a0 = a9 + t, a9,
a10) other than zero adds alpha*s + beta to a head of sum s, with
alpha = 2a9 + a10 + t and beta = 2a9^2 + 3a9*a10 + 2t(a9 + a10), so at
least 2s + 2.  These tails are listed once per call, in a table keyed by
head sum and added value that lives only as long as that call, and each
live head reads its tails off it.  The walk's tuples and profiles satisfy
their invariants by construction, so its rows skip revalidation.  This
route never calls the search oracle; it takes only `PhiVector` and
`order_key` from it.
This module holds only that primary route.  An independent profile-side
enumeration, the per-row check that the eps = 1 rows (the second sheet of
the double cover over a 2-divisible class) sit exactly on the all-even
profiles, the classical bounds on phi_1, and the search-backed
certification of the dominating genus-621 class live in `verify`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator, Sequence

from .oracle import PhiVector, order_key
from .fundamental import (
    FundamentalCoefficients,
    _profile_entries,
    phivector_from_coefficients,
)

__all__ = [
    "ModuliComponent",
    "component_of",
    "unirationality_flag",
    "components_by_genus",
    "enumerate_components",
    "enumerate_components_by_phi",
]


def unirationality_flag(phi: PhiVector | Sequence[int]) -> bool:
    """True when the profile matches one of the six coefficient shapes with
    at most four distinct nonzero coefficients known to give unirational
    components.

    The argument is a profile, so it is sorted (nondecreasing), and a run
    p[lo..hi] is constant exactly when its ends agree."""
    p = tuple(phi)

    def flat(lo: int, hi: int) -> bool:
        return p[lo] == p[hi]

    if flat(0, 6) or flat(1, 7) or flat(2, 8) or flat(3, 9):
        return True
    if flat(2, 7) and 3 * p[2] == 2 * (p[8] + p[9]) - p[0] - p[1]:
        return True
    if flat(5, 9) and 4 * p[5] == p[0] + p[1] + p[2] + p[3] + p[4]:
        return True
    return False


@dataclass(frozen=True)
class ModuliComponent:
    genus: int
    phi: PhiVector
    two_divisible: bool
    name: str
    unirational: bool
    coefficients: FundamentalCoefficients

    @property
    def eps(self) -> int:
        """The torsion bit, which lives on the coefficients."""
        return self.coefficients.eps


def _component(g: int, c: FundamentalCoefficients, p: PhiVector) -> ModuliComponent:
    """The genus-g row of coefficients c with profile p.  Its eps is c.eps;
    the eps sign shows in the name only on an all-even profile."""
    even = p.all_even()
    body = ",".join(map(str, p.phis))
    if even:
        name = f"E^{'-' if c.eps else '+'}_{{{g};{body}}}"
    else:
        name = f"E_{{{g};{body}}}"
    return ModuliComponent(g, p, even, name, unirationality_flag(p), c)


def component_of(c: FundamentalCoefficients) -> ModuliComponent:
    """The component row of a coefficient tuple, as `enumerate_components`
    lists it; ValueError when its self-intersection is not positive."""
    p = phivector_from_coefficients(c)
    return _component(p.genus(), c, p)


def _coefficient_tuples(
    q_lo: int, q_hi: int
) -> dict[int, list[FundamentalCoefficients]]:
    """All valid coefficient tuples with quadratic value q, for every q in
    the window max(q_lo, 1) <= q <= q_hi, grouped by q.

    Every cross term of the quadratic is nonnegative, so partial sums
    prune exactly, here against q_hi.  A complete head (a_1..a_7) has
    value p = e2(head) and sum s; the tail (a0, a9, a10) adds q - p.  The
    zero tail is kept when q_lo <= p <= q_hi.  Any other tail has a9 >= 1
    and, with a0 = a9 + t (0 <= t <= a10), adds T = alpha*s + beta, where

        alpha = 2a9 + a10 + t,  beta = 2a9^2 + 3a9*a10 + 2t(a9 + a10),

    so at least 2s + 2 (at a0 = a9 = 1, a10 = 0), and a head with
    r = q_hi - p < 2s + 2 has no such tail.  The nonzero tails are listed
    once per call, in a table local to it: for each head sum s, every
    value T <= q_hi that some tail adds, with those tails.  The a9 bound
    is 2a9^2 <= q_hi, so the all-zero head (s = 0) keeps its tails.  A
    live head then reads its tails off the table: the entry T = r for a
    single q, and the entries r - (q_hi - q_lo) <= T <= r, found by
    bisection in the sorted T of its s, for a window.

    The walk recurses into the entries v >= 1 only.  Each prefix emits
    its all-zero completion (the prefix padded with zeros, same p and s)
    with its zero tail and its nonzero tails where its branch starts, so
    no chain of zero entries is walked.  Each bucket holds its tuples in
    walk order.
    """
    q_lo = max(q_lo, 1)
    width = q_hi - q_lo
    buckets: dict[int, list[FundamentalCoefficients]] = {
        q: [] for q in range(q_lo, q_hi + 1)
    }
    if width < 0:
        return buckets
    make = FundamentalCoefficients._trusted
    # by_sum[s][T]: the tails (a0, a9, a10) that add T to a head of sum s.
    by_sum: list[dict[int, list[tuple[int, int, int]]]] = [
        {} for _ in range(q_hi // 2 + 1)
    ]
    a9 = 1
    while 2 * a9 * a9 <= q_hi:
        for a10 in range(a9 + 1):
            for t in range(a10 + 1):
                alpha = 2 * a9 + a10 + t
                beta = 2 * a9 * a9 + 3 * a9 * a10 + 2 * t * (a9 + a10)
                for s in range((q_hi - beta) // alpha + 1):
                    by_sum[s].setdefault(alpha * s + beta, []).append((a9 + t, a9, a10))
        a9 += 1
    sorted_sums = [sorted(found) for found in by_sum] if width else []
    pads = [(0,) * (7 - n) for n in range(8)]

    def tails(head: tuple[int, ...], s: int, r: int) -> None:
        found = by_sum[s]
        if not width:
            for a0, a9, a10 in found.get(r, ()):
                buckets[q_hi].append(make(a0, head, a9, a10))
            return
        ts = sorted_sums[s]
        for t in ts[bisect_left(ts, r - width) : bisect_right(ts, r)]:
            bucket = buckets[q_hi - r + t]
            for a0, a9, a10 in found[t]:
                bucket.append(make(a0, head, a9, a10))

    def heads(acc: tuple[int, ...], prev: int, p: int, s: int) -> None:
        rest = q_hi - p
        if p >= q_lo:
            buckets[p].append(make(0, acc + pads[len(acc)], 0, 0))
        if rest >= 2 * s + 2 and (width or rest in by_sum[s]):
            tails(acc + pads[len(acc)], s, rest)
        hi = prev
        if s:
            hi = rest // s
            if hi > prev:
                hi = prev
        if len(acc) < 6:
            for v in range(hi, 0, -1):
                heads(acc + (v,), v, p + v * s, s + v)
            return
        # The last entry v >= 1, inline.  The zero tail needs
        # q_lo <= p + v*s; a nonzero tail needs rest - v*s >= 2(s + v) + 2.
        if s:
            v, lowest = hi, -((p - q_lo) // s)
            if lowest < 1:
                lowest = 1
            while v >= lowest:
                buckets[p + v * s].append(make(0, acc + (v,), 0, 0))
                v -= 1
        top = (rest - 2 * s - 2) // (s + 2)
        if top > hi:
            top = hi
        if width:
            for v in range(top, 0, -1):
                tails(acc + (v,), s + v, rest - v * s)
            return
        bucket = buckets[q_hi]
        for v in range(top, 0, -1):
            found = by_sum[s + v].get(rest - v * s)
            if found:
                head = acc + (v,)
                for a0, a9, a10 in found:
                    bucket.append(make(a0, head, a9, a10))

    heads((), q_hi, 0, 0)
    return buckets


def components_by_genus(
    g_lo: int, g_hi: int
) -> Iterator[tuple[int, tuple[ModuliComponent, ...]]]:
    """(g, components of genus g) for every g_lo <= g <= g_hi in ascending
    order, from one walk over the coefficient tuples of the window; each
    genus sorted by profile order then eps.  The walk runs at the call;
    the rows of a genus are built when it is reached, so a sweep holds one
    genus's rows at a time.  An empty window (g_hi < g_lo) yields nothing."""
    if not (isinstance(g_lo, int) and isinstance(g_hi, int)) or g_lo < 2:
        raise ValueError("genus must be an integer >= 2")
    buckets = _coefficient_tuples(g_lo - 1, g_hi - 1)
    return ((q + 1, _rows(q + 1, buckets.pop(q))) for q in list(buckets))


def _rows(g: int, coeffs: list[FundamentalCoefficients]) -> tuple[ModuliComponent, ...]:
    """The rows of the walk's tuples, plus the eps = 1 twin of each
    2-divisible one."""
    rows = []
    for c in coeffs:
        m = _component(g, c, PhiVector._trusted(_profile_entries(c)))
        rows.append(m)
        if m.two_divisible:
            c1 = FundamentalCoefficients._trusted(c.a0, c.head, c.a9, c.a10, eps=1)
            rows.append(_component(g, c1, m.phi))
    rows.sort(key=lambda m: (order_key(m.phi.phis), m.eps))
    return tuple(rows)


def enumerate_components(g: int) -> tuple[ModuliComponent, ...]:
    """All components of the genus-g polarized moduli space, sorted by
    profile order then eps: the width-zero window of `components_by_genus`."""
    [(_, rows)] = components_by_genus(g, g)
    return rows


def enumerate_components_by_phi(g: int, phi1: int) -> tuple[ModuliComponent, ...]:
    if not isinstance(phi1, int) or phi1 < 1:
        raise ValueError("phi must be a positive integer")
    return tuple(m for m in enumerate_components(g) if m.phi.phis[0] == phi1)

