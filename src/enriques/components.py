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
live head reads its tails off it.

A genus's tuples become its sorted rows in one pass of integer
arithmetic.  A `ModuliComponent` is a named tuple whose leading fields
(profile total, profile, eps) are the listing order, so rows sort as plain
tuples, and the `components` writers read those same rows.  The walk's
tuples and profiles satisfy their invariants by construction, so rows skip
revalidation; each eps = 1 row carries its own eps = 1 coefficients.

This route takes nothing from the search oracle, and this module holds
only that primary route.  An independent profile-side enumeration, the
per-row check that the eps = 1 rows (the second sheet of the double cover
over a 2-divisible class) sit exactly on the all-even profiles, the
classical bounds on phi_1, and the search-backed certification of the
dominating genus-621 class live in `verify`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, NamedTuple, Sequence

from .fundamental import FundamentalCoefficients, phivector_from_coefficients

__all__ = [
    "ModuliComponent",
    "component_of",
    "unirationality_flag",
    "components_by_genus",
    "enumerate_components",
    "enumerate_components_by_phi",
]


def unirationality_flag(phi: Sequence[int]) -> bool:
    """True when the profile matches one of the six coefficient shapes with
    at most four distinct nonzero coefficients known to give unirational
    components.

    The argument is a profile, so it is sorted (nondecreasing), and a run
    p_lo..p_hi is constant exactly when its ends agree."""
    p1, p2, p3, p4, p5, p6, p7, p8, p9, p10 = phi
    if p1 == p7 or p2 == p8 or p3 == p9 or p4 == p10:
        return True
    if p3 == p8 and 3 * p3 == 2 * (p9 + p10) - p1 - p2:
        return True
    return p6 == p10 and 4 * p6 == p1 + p2 + p3 + p4 + p5


class ModuliComponent(NamedTuple):
    """One component row.  The leading fields (profile total, profile, eps)
    are the listing order and never tie within a genus, so rows sort as
    plain tuples.  phi is the sorted profile, and eps is the torsion bit of
    the coefficients."""

    total: int
    phi: tuple[int, ...]
    eps: int
    genus: int
    name: str
    two_divisible: bool
    unirational: bool
    coefficients: FundamentalCoefficients


# The profile part of a component name, as a %-format of the ten entries.
_BODY = ",".join(["%d"] * 10) + "}"


def _rows(g: int, coeffs: Iterable[FundamentalCoefficients]) -> list[ModuliComponent]:
    """The genus-g rows of the tuples coeffs, plus the eps = 1 twin of each
    2-divisible one, sorted by profile order then eps.

    The profile is `_profile_entries` inlined, and its total is 9a + 3a0
    (a the coefficient total).  The profile is even exactly when every
    coefficient is.  The eps sign shows in the name only on an even
    profile."""
    odd_name, plus_name, minus_name = (f"E{sign}_{{{g};{_BODY}" for sign in ("", "^+", "^-"))
    new = tuple.__new__
    twin = FundamentalCoefficients._trusted
    out: list[ModuliComponent] = []
    append = out.append
    for c in coeffs:
        a0, a9, a10 = c.a0, c.a9, c.a10
        head = c.head
        h1, h2, h3, h4, h5, h6, h7 = head
        a = a0 + h1 + h2 + h3 + h4 + h5 + h6 + h7 + a9 + a10
        phi = (
            a - h1, a - h2, a - h3, a - h4, a - h5, a - h6, a - h7,
            a, a + a0 - a9, a + a0 - a10,
        )
        total = 9 * a + 3 * a0
        flag = unirationality_flag(phi)
        if (a0 | h1 | h2 | h3 | h4 | h5 | h6 | h7 | a9 | a10) & 1:
            append(new(ModuliComponent, (total, phi, 0, g, odd_name % phi, False, flag, c)))
        else:
            append(new(ModuliComponent, (total, phi, 0, g, plus_name % phi, True, flag, c)))
            c1 = twin(a0, head, a9, a10, eps=1)
            append(new(ModuliComponent, (total, phi, 1, g, minus_name % phi, True, flag, c1)))
    out.sort()
    return out


def component_of(c: FundamentalCoefficients) -> ModuliComponent:
    """The component row of a coefficient tuple, as `enumerate_components`
    lists it; ValueError when its self-intersection is not positive."""
    g = phivector_from_coefficients(c).genus()
    return next(m for m in _rows(g, (c,)) if m.eps == c.eps)


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


def _walk(g_lo: int, g_hi: int) -> dict[int, list[FundamentalCoefficients]]:
    """The walk's tuples of genus g_lo..g_hi, keyed by quadratic value g - 1."""
    if not (isinstance(g_lo, int) and isinstance(g_hi, int)) or g_lo < 2:
        raise ValueError("genus must be an integer >= 2")
    return _coefficient_tuples(g_lo - 1, g_hi - 1)


def components_by_genus(
    g_lo: int, g_hi: int
) -> Iterator[tuple[int, tuple[ModuliComponent, ...]]]:
    """(g, components of genus g) for every g_lo <= g <= g_hi in ascending
    order, from one walk over the coefficient tuples of the window; each
    genus sorted by profile order then eps.  The walk runs at the call;
    the rows of a genus are built when it is reached, so a sweep holds one
    genus's rows at a time.  An empty window (g_hi < g_lo) yields nothing."""
    buckets = _walk(g_lo, g_hi)
    return ((q + 1, tuple(_rows(q + 1, buckets.pop(q)))) for q in list(buckets))


def enumerate_components(g: int) -> tuple[ModuliComponent, ...]:
    """All components of the genus-g polarized moduli space, sorted by
    profile order then eps."""
    return tuple(_rows(g, _walk(g, g)[g - 1]))


def enumerate_components_by_phi(g: int, phi1: int) -> tuple[ModuliComponent, ...]:
    """The components of genus g with smallest profile entry phi1."""
    if not isinstance(phi1, int) or phi1 < 1:
        raise ValueError("phi must be a positive integer")
    return tuple(m for m in enumerate_components(g) if m.phi[0] == phi1)
