"""Genus-by-genus classification of moduli components.

Irreducible components of the moduli space of polarized surfaces of genus
g correspond bijectively to 11-tuples (phi_1 <= ... <= phi_10, eps) with:
positive entries, total divisible by 3, the first seven entries at least
twice the last three combined, eps = 0 unless every entry is even, and
2g - 2 = (1/9)(sum phi)^2 - sum(phi^2).

Enumeration runs over fundamental coefficient tuples of the right
self-intersection and converts each to its profile.  It is one walk for a
whole window of genera, its tuples grouped by quadratic value g - 1, and
every sweep over 2..gmax is one window.  A single genus is the window of
width zero, its tuples grouped by profile total instead.  The walk
branches over head suffixes and solves the largest head entry: it lists
a call's nonzero tails once, in one table keyed by head sum and tail
value, and a suffix finds the heads that have a tail with one key-set
intersection for a single genus, or one bisection pair per head in the
table's sorted keys for a window.  `_coefficient_tuples` describes the
walk.  `coefficients_by_genus` yields a window's plain tuples genus by
genus, for sweeps that read only what the tuple gives (phi_1 is the
coefficient total less a_1, and the tuple has an eps = 1 twin exactly
when it is all even); `components_by_genus` yields the same window as
rows.

The walk's tuples are plain (a0, head, a9, a10), and they become sorted
rows in one pass of integer arithmetic.  A row is a plain tuple whose
leading fields (profile total, profile, eps) are the listing order, so
rows sort as tuples.  Tuples and rows form no reference cycle, so
reference counting frees them, and the two builders (`_coefficient_tuples`
and `_rows`) run with the cyclic collector paused: allocating a listing's
tuples would otherwise start collections that walk them and free
nothing.  The pause ends when a builder returns or raises, never spans a
`yield`, and leaves a collector that the caller paused paused.  Holding
only ints, strings, bools and tuples of ints, tuples and rows are
untracked by the collector once it has seen them, so full collections
after a listing do not walk them.
`component_rows(g)` builds and yields the rows one profile total at a
time, and the `cli` listing writes them in every format.  The other public
functions but `coefficients_by_genus` wrap the same tuples and rows: each
row becomes a `ModuliComponent`, a named tuple of the same fields plus
the genus, with its coefficients gathered into a `FundamentalCoefficients`
of the row's eps (so each eps = 1 twin has its own).  The walk's tuples
and profiles satisfy their invariants by construction, so rows skip
revalidation.

This route takes nothing from the search oracle, and this module holds
only that primary route.  An independent profile-side enumeration, the
per-row check that the eps = 1 rows (the second sheet of the double cover
over a 2-divisible class) sit exactly on the all-even profiles, the
classical bounds on phi_1, and the search-backed certification of the
dominating genus-621 class live in `verify`.
"""

from __future__ import annotations

import gc
from bisect import bisect_left, bisect_right
from collections import defaultdict
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Sequence, TypeVar

from .fundamental import FundamentalCoefficients, phivector_from_coefficients

__all__ = [
    "ModuliComponent",
    "coefficients_by_genus",
    "component_of",
    "component_rows",
    "components_by_genus",
    "enumerate_components",
    "enumerate_components_by_phi",
]


def _unirational(phi: Sequence[int]) -> bool:
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


def _rows(g: int, coeffs: Sequence[tuple]) -> list[tuple]:
    """The genus-g rows of the walk's tuples (a0, head, a9, a10), plus the
    eps = 1 twin of each 2-divisible one, sorted by profile order then
    eps.  A row is the plain tuple (total, phi, eps, name, two_divisible,
    unirational, a0, head, a9, a10).

    The profile is `phivector_from_coefficients` inlined, and its total is
    9a + 3a0 (a the coefficient total).  The profile is even exactly when
    every coefficient is.  The eps sign shows in the name only on an even
    profile.  The rows fill one list sized for a twin per tuple: a list
    grown row by row between the writes of a streamed listing fragments
    the C heap and raises the peak memory of later listings.

    The rows are sorted on the profile, then stably on the total, which
    is the order of the row tuples without comparing whole rows: within a
    genus a profile names one coefficient tuple, so rows of equal
    (total, profile) are eps twins, appended eps 0 first and kept so by
    both stable sorts.  The total sort matters when the tuples hold
    several totals, as a window's genus does in `components_by_genus`."""
    odd_name, plus_name, minus_name = (f"E{sign}_{{{g};{_BODY}" for sign in ("", "^+", "^-"))
    out: list = [None] * (2 * len(coeffs))
    k = 0
    for a0, head, a9, a10 in coeffs:
        h1, h2, h3, h4, h5, h6, h7 = head
        a = a0 + h1 + h2 + h3 + h4 + h5 + h6 + h7 + a9 + a10
        phi = (
            a - h1, a - h2, a - h3, a - h4, a - h5, a - h6, a - h7,
            a, a + a0 - a9, a + a0 - a10,
        )
        total = 9 * a + 3 * a0
        flag = _unirational(phi)
        if (a0 | h1 | h2 | h3 | h4 | h5 | h6 | h7 | a9 | a10) & 1:
            out[k] = (total, phi, 0, odd_name % phi, False, flag, a0, head, a9, a10)
            k += 1
        else:
            out[k] = (total, phi, 0, plus_name % phi, True, flag, a0, head, a9, a10)
            out[k + 1] = (total, phi, 1, minus_name % phi, True, flag, a0, head, a9, a10)
            k += 2
    del out[k:]
    out.sort(key=itemgetter(1))
    out.sort(key=itemgetter(0))
    return out


_T = TypeVar("_T")


def _paused(build: Callable[..., _T], *args) -> _T:
    """build(*args) with the cyclic collector paused, for the two builders
    of a listing: they allocate all of its long-lived tuples and return
    plain values that hold no reference cycle.  The collector runs again
    when build returns or raises, unless the caller had paused it.  Pass
    no generator function: its body would run after the pause ends."""
    if not gc.isenabled():
        return build(*args)
    gc.disable()
    try:
        return build(*args)
    finally:
        gc.enable()


def _components(g: int, rows) -> Iterator[ModuliComponent]:
    """The `ModuliComponent` of each genus-g row, each with its own
    coefficients, whose eps is the row's."""
    new = tuple.__new__
    make = FundamentalCoefficients._trusted
    for total, phi, eps, name, two_divisible, unirational, a0, head, a9, a10 in rows:
        c = make(a0, head, a9, a10, eps)
        yield new(ModuliComponent, (total, phi, eps, g, name, two_divisible, unirational, c))


def component_of(c: FundamentalCoefficients) -> ModuliComponent:
    """The component row of a coefficient tuple, as `enumerate_components`
    lists it; ValueError when its self-intersection is not positive."""
    # The genus comes from a checked PhiVector, not from quadratic_value + 1:
    # the benchmark's traced runs count PhiVector checks as oracle work
    # (oracle.phivector_new), this is the only oracle work on their small
    # operations, and bench/tests/test_bench.py::
    # test_traced_self_times_sum_to_wall_time asserts that it is there.
    g = phivector_from_coefficients(c).genus()
    # the rows of one tuple are its eps = 0 row, then any eps = 1 twin
    rows = _rows(g, ((c.a0, c.head, c.a9, c.a10),))
    [m] = _components(g, rows[c.eps : c.eps + 1])
    return m


def _coefficient_tuples(q_lo: int, q_hi: int) -> dict[int, list[tuple]]:
    """All valid coefficient tuples with quadratic value q, for every q in
    the window max(q_lo, 1) <= q <= q_hi, grouped by q.  A single q (a
    window of width zero) groups its tuples by profile total 9a + 3a0
    instead, a the coefficient total; the keys are in no order.  Each
    tuple is the plain (a0, head, a9, a10), head the tuple a_1..a_7 and
    eps 0: holding only ints and a tuple of ints, it is untracked by the
    cyclic collector once a collection has seen it.

    A head (a_1..a_7) is a suffix (a_2..a_7) of value p = e2(suffix) and
    sum s, plus its largest entry a_1 >= a_2: the head's value is
    p + a_1*s and its sum u = s + a_1.  The tail (a0, a9, a10) adds the
    rest of q.  The walk is a depth-first search over the suffixes alone,
    branching only on entries v >= 1 (a suffix with fewer set entries is
    padded with zeros where its branch starts), so each suffix is reached
    once, and each head once, as (suffix, a_1).  Every cross term of the
    quadratic is nonnegative, so the least head a suffix can carry,
    a_1 = a_2, has value p + a_2*s, and that value only grows as the
    suffix gains entries: a suffix with p + a_2*s > q_hi is cut with its
    whole branch.

    Given a suffix, a_1 is solved, not walked.  The zero tail keeps the
    a_1 >= a_2 with q_lo <= p + a_1*s <= q_hi, a division (for a single
    q one divmod, which keeps a_1 = (q - p)/s when s divides q - p).  Any
    other tail has a9 >= 1 and, with a0 = a9 + t (0 <= t <= a10), adds
    T = alpha*u + beta, where

        alpha = 2a9 + a10 + t,  beta = 2a9^2 + 3a9*a10 + 2t(a9 + a10),

    so at least 2u + 2 (at a0 = a9 = 1, a10 = 0).  The head leaves
    r = q_hi - p - a_1*s for its tail, and r >= 2u + 2 caps a_1 at
    top = (q_hi - p - 2s - 2) // (s + 2).  The nonzero tails are listed
    once per call, in one table local to it, keyed by u*M + T for a head
    sum u and a value T <= q_hi that some tail adds, where M = q_hi + 1
    exceeds every T, so each key names one (u, T); it holds those tails.
    A tail's keys u*(M + alpha) + beta are one arithmetic progression,
    filled from one range.  Each tail is one tuple (a0, a9, a10, w)
    shared by all its keys, where the weight w = 12a0 + 9(a9 + a10) is
    its share of the profile total: a head of sum u takes the total
    9u + w (9u on the zero tail).  The a9 bound is 2a9^2 <= q_hi, so the
    all-zero head (u = 0) keeps its tails, and the a10 and t loops stop
    at beta <= q_hi, past which a tail has no key.

    A head needs a tail of value in [r - width, r] (width = q_hi - q_lo),
    and its exact key is K = u*M + r = s*M + rest + a_1*(M - s), with
    rest = q_hi - p: over a_1 an arithmetic progression of step M - s,
    which is positive since s <= q_hi.  For a single q, the table's keys
    intersected with that progression over [a_2, top] are exactly the
    keys of the heads that have a tail, found in one call per suffix, and
    a_1 = (K - first) // step decodes each (first the key at a_1 = 0).
    A window bisects the sorted keys for each a_1 in [a_2, top] over
    [K - width, K], within the keys of u alone: that clamps the range at
    u*M, below which lie the keys of head sum u - 1.  A key k found there
    files its tails under q = q_hi - K + k.  Each hit expands the tails it
    reads off the table into tuples.  The all-zero suffix (s = 0, heads
    (a_1, 0, ..., 0), whose zero tail has value 0) takes only this
    nonzero-tail step.
    """
    q_lo = max(q_lo, 1)
    width = q_hi - q_lo
    buckets = {q: [] for q in range(q_lo, q_hi + 1)} if width else defaultdict(list)
    if width < 0:
        return buckets
    # table[u*m + T]: the tails (a0, a9, a10, w) that add T to a head of sum u
    m = q_hi + 1
    table: dict[int, list[tuple[int, int, int, int]]] = {}
    a9 = 1
    while 2 * a9 * a9 <= q_hi:
        for a10 in range(a9 + 1):
            # beta = least + 2t(a9 + a10) grows with a10 and t
            least = 2 * a9 * a9 + 3 * a9 * a10
            if least > q_hi:
                break
            for t in range(min(a10, (q_hi - least) // (2 * (a9 + a10))) + 1):
                alpha = 2 * a9 + a10 + t
                beta = least + 2 * t * (a9 + a10)
                tail = (a9 + t, a9, a10, 12 * (a9 + t) + 9 * (a9 + a10))
                stride = m + alpha
                for key in range(beta, beta + ((q_hi - beta) // alpha + 1) * stride, stride):
                    table.setdefault(key, []).append(tail)
        a9 += 1
    keys = sorted(table) if width else table.keys()
    # keys[starts[u] : starts[u + 1]] are the keys of head sum u
    starts = [bisect_left(keys, u * m) for u in range(q_hi // 2 + 1)] if width else []
    pads = [(0,) * (6 - n) for n in range(7)]

    def suffix(acc: tuple[int, ...], a2: int, p: int, s: int) -> None:
        # most suffixes find no head, so a head pads its suffix when built
        rest = q_hi - p
        pad = pads[len(acc)]
        if s:
            if width:
                lo = -((p - q_lo) // s)
                if lo < a2:
                    lo = a2
                for a1 in range(lo, rest // s + 1):
                    buckets[p + a1 * s].append((0, (a1, *acc, *pad), 0, 0))
            else:
                a1, left = divmod(rest, s)
                if not left and a1 >= a2:
                    buckets[9 * (s + a1)].append((0, (a1, *acc, *pad), 0, 0))
        top = (rest - 2 * s - 2) // (s + 2)
        if top >= a2:
            # head a_1 reads the key first + a_1*step = u*m + r
            step = m - s
            first = s * m + rest
            if width:
                for a1 in range(a2, top + 1):
                    u = s + a1
                    end = first + a1 * step
                    last = starts[u + 1]
                    lo = bisect_left(keys, end - width, starts[u], last)
                    found = keys[lo : bisect_right(keys, end, lo, last)]
                    if found:
                        head = (a1, *acc, *pad)
                        base = q_hi - end
                        for key in found:
                            bucket = buckets[base + key]
                            for a0, a9, a10, _ in table[key]:
                                bucket.append((a0, head, a9, a10))
            else:
                for key in keys & range(first + a2 * step, first + (top + 1) * step, step):
                    a1 = (key - first) // step
                    head = (a1, *acc, *pad)
                    base = 9 * (s + a1)
                    for a0, a9, a10, w in table[key]:
                        buckets[base + w].append((a0, head, a9, a10))
        if len(acc) == 6 or not s:
            return
        hi = (rest - a2 * s) // (s + a2)
        if hi > acc[-1]:
            hi = acc[-1]
        for v in range(hi, 0, -1):
            suffix(acc + (v,), a2, p + v * s, s + v)

    suffix((), 0, 0, 0)
    a2 = 1
    while a2 * a2 <= q_hi:
        suffix((a2,), a2, 0, a2)
        a2 += 1
    # suffix calls itself through its closure, a reference cycle that
    # would hold the table until the next full collection; with it gone
    # the buckets hold no cycle, which lets `_paused` run this walk
    del suffix
    return buckets


def _check_genera(g_lo: int, g_hi: int) -> None:
    if not (type(g_lo) is type(g_hi) is int) or g_lo < 2:
        raise ValueError("genus must be an integer >= 2")


def coefficients_by_genus(g_lo: int, g_hi: int) -> Iterator[tuple[int, list[tuple]]]:
    """(g, the walk's eps = 0 coefficient tuples of genus g) for every
    g_lo <= g <= g_hi in ascending order, from one walk over the window:
    one plain tuple (a0, head, a9, a10) per profile, a genus's tuples in
    no particular order.  A single genus flattens its profile-total strata
    in ascending total.  The walk runs at the call, and each genus's list
    leaves the walk's buckets when it is reached.  An empty window
    (g_hi < g_lo) yields nothing."""
    _check_genera(g_lo, g_hi)
    buckets = _paused(_coefficient_tuples, g_lo - 1, g_hi - 1)
    if g_lo == g_hi:
        return iter([(g_lo, [c for total in sorted(buckets) for c in buckets[total]])])
    return ((q + 1, buckets.pop(q)) for q in list(buckets))


def components_by_genus(
    g_lo: int, g_hi: int
) -> Iterator[tuple[int, tuple[ModuliComponent, ...]]]:
    """(g, components of genus g) for every g_lo <= g <= g_hi in ascending
    order: the rows of `coefficients_by_genus`, each genus sorted by
    profile order then eps.  The walk runs at the call; the rows of a
    genus are built when it is reached, so a sweep holds one genus's rows
    at a time.  An empty window (g_hi < g_lo) yields nothing."""
    return (
        (g, tuple(_components(g, _paused(_rows, g, ts))))
        for g, ts in coefficients_by_genus(g_lo, g_hi)
    )


def component_rows(g: int) -> Iterator[tuple]:
    """The components of genus g as plain rows (total, phi, eps, name,
    two_divisible, unirational, a0, head, a9, a10), sorted by profile
    order then eps: the fields of a `ModuliComponent` without its genus,
    and its coefficients spread out (their eps is the row's).  The genus
    is checked and the walk runs at the call; the rows of one profile
    total are built when reached and dropped once yielded.  Rows of ints,
    strings, bools and int tuples only, so the collector untracks them."""
    _check_genera(g, g)
    strata = _paused(_coefficient_tuples, g - 1, g - 1)
    return (row for total in sorted(strata) for row in _paused(_rows, g, strata.pop(total)))


def enumerate_components(g: int) -> tuple[ModuliComponent, ...]:
    """All components of the genus-g polarized moduli space, sorted by
    profile order then eps: the rows of `component_rows` as
    `ModuliComponent`s."""
    return tuple(_components(g, component_rows(g)))


def enumerate_components_by_phi(g: int, phi1: int) -> tuple[ModuliComponent, ...]:
    """The components of genus g with smallest profile entry phi1."""
    if type(phi1) is not int or phi1 < 1:
        raise ValueError("phi must be a positive integer")
    return tuple(_components(g, (row for row in component_rows(g) if row[1][0] == phi1)))
