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
every sweep over 2..gmax is one window.  A head of value p and sum s
that leaves r = q_hi - p > 0 below the window's top needs r >= 2s + 2,
the least that a nonzero tail adds, and is skipped otherwise.  The tails
(a0, a9, a10) of each (s, r) are solved once per call, in a table that
lives only as long as that call.  The walk's tuples and profiles satisfy
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

from dataclasses import dataclass
from typing import Iterator, Sequence

from .oracle import PhiVector, order_key
from .fundamental import FundamentalCoefficients, _profile_entries

__all__ = [
    "ModuliComponent",
    "component_name",
    "unirationality_flag",
    "components_by_genus",
    "enumerate_components",
    "enumerate_components_by_phi",
]


def component_name(g: int, phi: PhiVector, eps: int) -> str:
    body = ",".join(str(v) for v in phi.phis)
    if phi.all_even():
        sign = "+" if eps == 0 else "-"
        return f"E^{sign}_{{{g};{body}}}"
    return f"E_{{{g};{body}}}"


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
    eps: int
    two_divisible: bool
    name: str
    unirational: bool
    coefficients: FundamentalCoefficients


def _coefficient_tuples(
    q_lo: int, q_hi: int
) -> dict[int, list[FundamentalCoefficients]]:
    """All valid coefficient tuples with quadratic value q, for every q in
    the window max(q_lo, 1) <= q <= q_hi, grouped by q.

    Every cross term of the quadratic is nonnegative, so partial sums
    prune exactly, here against q_hi.  A complete head (a_1..a_7) has
    value p = e2(head) and sum s; the tail (a0, a9, a10) adds q - p.  The
    zero tail is kept when q_lo <= p <= q_hi.  Any other tail has a9 >= 1
    and adds at least 2s + 2 (at a0 = a9 = 1, a10 = 0), so a head with
    q_hi - p < 2s + 2 has no other tail and is skipped.  The tails of a
    live head depend on (s, r = q_hi - p) alone, since the window width
    is fixed for the call: they are the tails that add r - d for
    0 <= d <= q_hi - q_lo, and they are solved once per call into a table
    local to it.  For each a10 <= a9, the tail adds base + t*w with
    a0 = a9 + t and 0 <= t <= a10; one division of r - base by w gives
    the largest t that fits under r and its shortfall d, and each smaller
    t adds w to d while d stays within the width.  Each bucket holds its
    tuples in walk order.
    """
    q_lo = max(q_lo, 1)
    width = q_hi - q_lo
    buckets: dict[int, list[FundamentalCoefficients]] = {
        q: [] for q in range(q_lo, q_hi + 1)
    }
    make = FundamentalCoefficients._trusted
    tail_table: dict[tuple[int, int], list[tuple[int, int, int, int]]] = {}

    def tails(s: int, r: int) -> list[tuple[int, int, int, int]]:
        found = []  # (d, a0, a9, a10): the tail adds r - d
        a9 = 1
        while 2 * a9 * (s + a9) <= r:
            for a10 in range(a9 + 1):
                w = s + 2 * (a9 + a10)
                rem = r - (a9 + a10) * s - a9 * a10 - a9 * w
                if rem < 0:
                    break
                t, m = divmod(rem, w)
                if m > width:
                    continue
                lo = t - (width - m) // w
                if lo > a10:
                    continue
                for u in range(min(t, a10), max(lo, 0) - 1, -1):
                    found.append((m + (t - u) * w, a9 + u, a9, a10))
            a9 += 1
        return found

    def heads(acc: tuple[int, ...], prev: int, p: int, s: int) -> None:
        hi = min(prev, (q_hi - p) // s) if s else prev
        if len(acc) < 6:
            for v in range(hi, -1, -1):
                heads(acc + (v,), v, p + v * s, s + v)
            return
        # The zero tail needs q_lo <= p + v*s <= q_hi.  A nonzero tail needs
        # r = q_hi - p - v*s >= 2(s + v) + 2, i.e. v <= (r - 2s - 2) / (s + 2).
        rest = q_hi - p
        if s:
            v, lowest = hi, -((p - q_lo) // s)
            while v >= lowest and v >= 0:
                buckets[p + v * s].append(make(0, acc + (v,), 0, 0))
                v -= 1
        for v in range(min(hi, (rest - 2 * s - 2) // (s + 2)), -1, -1):
            key = (s + v, rest - v * s)
            found = tail_table.get(key)
            if found is None:
                found = tail_table[key] = tails(*key)
            if not found:
                continue
            head = acc + (v,)
            for d, a0, a9, a10 in found:
                buckets[q_hi - d].append(make(a0, head, a9, a10))

    if q_lo <= q_hi:
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
    rows = []
    for c in coeffs:
        p = PhiVector._trusted(_profile_entries(c))
        two_div = p.all_even()
        unirational = unirationality_flag(p)
        rows.append(
            ModuliComponent(g, p, 0, two_div, component_name(g, p, 0), unirational, c)
        )
        if two_div:
            c1 = FundamentalCoefficients._trusted(c.a0, c.head, c.a9, c.a10, eps=1)
            rows.append(
                ModuliComponent(g, p, 1, two_div, component_name(g, p, 1), unirational, c1)
            )
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

