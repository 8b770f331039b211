"""Genus-by-genus classification of moduli components.

Irreducible components of the moduli space of polarized surfaces of genus
g correspond bijectively to 11-tuples (phi_1 <= ... <= phi_10, eps) with:
positive entries, total divisible by 3, the first seven entries at least
twice the last three combined, eps = 0 unless every entry is even, and
2g - 2 = (1/9)(sum phi)^2 - sum(phi^2).

Enumeration runs over fundamental coefficient tuples of the right
self-intersection (an elementary nonnegative quadratic, so partial-sum
pruning is exact) and converts each to its profile.  It is one walk over
the heads a_1..a_7.  A head with sum s that leaves a remainder r > 0 needs
r >= 2s + 2, the least that a nonzero tail adds, and is skipped otherwise.
The tails (a0, a9, a10) of each (s, r) are solved once per call, in a
table that lives only as long as that call.  This route never calls the
search oracle; it takes only `PhiVector` and `order_key` from it.
An independent profile-side enumeration and the search-backed
certification of the dominating genus-621 class live in `verify`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Sequence

from .oracle import PhiVector, order_key
from .fundamental import FundamentalCoefficients, phivector_from_coefficients

__all__ = [
    "ModuliComponent",
    "NumericalComponent",
    "RhoSummary",
    "BoundsReport",
    "component_name",
    "numerical_name",
    "unirationality_flag",
    "enumerate_components",
    "enumerate_components_by_phi",
    "numerical_components",
    "rho_fiber_structure",
    "classical_bounds_audit",
]


def component_name(g: int, phi: PhiVector, eps: int) -> str:
    body = ",".join(str(v) for v in phi.phis)
    if phi.all_even():
        sign = "+" if eps == 0 else "-"
        return f"E^{sign}_{{{g};{body}}}"
    return f"E_{{{g};{body}}}"


def numerical_name(g: int, phi: PhiVector) -> str:
    body = ",".join(str(v) for v in phi.phis)
    return f"Eh_{{{g};{body}}}"


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

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "genus": self.genus,
            "phi": list(self.phi.phis),
            "eps": self.eps,
            "two_divisible": self.two_divisible,
            "unirational": self.unirational,
            "coefficients": self.coefficients.to_json(),
        }


@dataclass(frozen=True)
class NumericalComponent:
    genus: int
    phi: PhiVector
    two_divisible: bool
    name: str
    splits_under_rho: bool

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "genus": self.genus,
            "phi": list(self.phi.phis),
            "two_divisible": self.two_divisible,
            "splits_under_rho": self.splits_under_rho,
        }


@dataclass(frozen=True)
class RhoSummary:
    n_hat_components: int
    n_components: int
    n_two_divisible: int


def _coefficient_tuples(q: int) -> Iterator[FundamentalCoefficients]:
    """All valid coefficient tuples with quadratic value exactly q >= 1.

    Every cross term of the quadratic is nonnegative, so partial sums
    prune exactly.  A complete head (a_1..a_7) has value p = e2(head) and
    sum s; the tail (a0, a9, a10) must add r = q - p, and that equation
    depends on (s, r) alone.  r = 0 admits only the zero tail.  Any other
    tail has a9 >= 1 and adds at least 2s + 2 (at a0 = a9 = 1, a10 = 0),
    so a head with 0 < r < 2s + 2 is dead and is skipped.  The live tails
    of each (s, r) are solved once per call and kept in a table local to
    it: for each a10 <= a9, a0 = a9 + t with 0 <= t <= a10 is read off by
    one division.  Heads come in decreasing lexicographic order, tails by
    a9 then a10.
    """
    tail_table: dict[tuple[int, int], list[tuple[int, int, int]]] = {}

    def tails(s: int, r: int) -> list[tuple[int, int, int]]:
        found = []
        a9 = 1
        while 2 * a9 * (s + a9) <= r:
            for a10 in range(a9 + 1):
                w = s + 2 * (a9 + a10)
                rem = r - (a9 + a10) * s - a9 * a10 - a9 * w
                if rem < 0:
                    break
                t, m = divmod(rem, w)
                if m == 0 and t <= a10:
                    found.append((a9 + t, a9, a10))
            a9 += 1
        return found

    def heads(
        acc: tuple[int, ...], prev: int, p: int, s: int
    ) -> Iterator[FundamentalCoefficients]:
        hi = min(prev, (q - p) // s) if s else prev
        if len(acc) < 6:
            for v in range(hi, -1, -1):
                yield from heads(acc + (v,), v, p + v * s, s + v)
            return
        # r = q - p - v*s falls as v grows: r = 0 at v = (q - p) / s, and
        # r >= 2(s + v) + 2 exactly when v <= (q - p - 2s - 2) / (s + 2).
        rest = q - p
        if s and rest % s == 0 and rest // s <= hi:
            yield FundamentalCoefficients(a0=0, head=acc + (rest // s,), a9=0, a10=0)
        for v in range(min(hi, (rest - 2 * s - 2) // (s + 2)), -1, -1):
            key = (s + v, rest - v * s)
            found = tail_table.get(key)
            if found is None:
                found = tail_table[key] = tails(*key)
            if not found:
                continue
            head = acc + (v,)
            for a0, a9, a10 in found:
                yield FundamentalCoefficients(a0=a0, head=head, a9=a9, a10=a10)

    if q >= 1:
        yield from heads((), q, 0, 0)


def enumerate_components(g: int) -> tuple[ModuliComponent, ...]:
    """All components of the genus-g polarized moduli space, sorted by
    profile order then eps."""
    if not isinstance(g, int) or g < 2:
        raise ValueError("genus must be an integer >= 2")
    out = []
    for c in _coefficient_tuples(g - 1):
        p = phivector_from_coefficients(c)
        two_div = p.all_even()
        for cc in (c, replace(c, eps=1)) if two_div else (c,):
            out.append(
                ModuliComponent(
                    genus=g,
                    phi=p,
                    eps=cc.eps,
                    two_divisible=two_div,
                    name=component_name(g, p, cc.eps),
                    unirational=unirationality_flag(p),
                    coefficients=cc,
                )
            )
    out.sort(key=lambda m: (order_key(m.phi.phis), m.eps))
    return tuple(out)


def enumerate_components_by_phi(g: int, phi1: int) -> tuple[ModuliComponent, ...]:
    if phi1 < 1:
        raise ValueError("phi must be a positive integer")
    return tuple(m for m in enumerate_components(g) if m.phi.phis[0] == phi1)


def numerical_components(g: int) -> tuple[NumericalComponent, ...]:
    """Components of the numerically polarized space: one per profile,
    marked by whether its fiber under the forgetful double cover splits
    (exactly the 2-divisible case)."""
    out = []
    for m in enumerate_components(g):
        if m.eps:
            continue
        out.append(
            NumericalComponent(
                genus=g,
                phi=m.phi,
                two_divisible=m.two_divisible,
                name=numerical_name(g, m.phi),
                splits_under_rho=m.two_divisible,
            )
        )
    return tuple(out)


def rho_fiber_structure(g: int) -> RhoSummary:
    comps = enumerate_components(g)
    hats = [m for m in comps if m.eps == 0]
    n2 = sum(1 for m in hats if m.two_divisible)
    summary = RhoSummary(
        n_hat_components=len(hats),
        n_components=len(comps),
        n_two_divisible=n2,
    )
    if summary.n_components != (summary.n_hat_components - n2) + 2 * n2:
        raise AssertionError("fiber count breaks the double-cover identity")
    return summary


@dataclass(frozen=True)
class BoundsReport:
    counts: tuple[tuple[int, int], ...]  # (genus, number of components), ascending
    violations: tuple[str, ...]

    @property
    def genera_checked(self) -> int:
        return len(self.counts)

    @property
    def components_checked(self) -> int:
        return sum(n for _, n in self.counts)

    @property
    def passed(self) -> bool:
        return not self.violations


def classical_bounds_audit(g_max: int) -> BoundsReport:
    """phi_1^2 <= 2g - 2 on every component, and the window
    phi_1^2 < 2g - 2 < phi_1^2 + phi_1 - 2 is never entered."""
    if g_max < 2:
        raise ValueError("g_max must be at least 2")
    counts = []
    violations = []
    for g in range(2, g_max + 1):
        comps = enumerate_components(g)
        counts.append((g, len(comps)))
        for m in comps:
            p1 = m.phi.phis[0]
            if p1 * p1 > 2 * g - 2:
                violations.append(f"{m.name}: phi_1^2 exceeds 2g-2")
            if p1 * p1 < 2 * g - 2 < p1 * p1 + p1 - 2:
                violations.append(f"{m.name}: enters the forbidden gap")
    return BoundsReport(counts=tuple(counts), violations=tuple(violations))
