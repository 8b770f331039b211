"""Genus-by-genus classification of moduli components.

Irreducible components of the moduli space of polarized surfaces of genus
g correspond bijectively to 11-tuples (phi_1 <= ... <= phi_10, eps) with:
positive entries, total divisible by 3, the first seven entries at least
twice the last three combined, eps = 0 unless every entry is even, and
2g - 2 = (1/9)(sum phi)^2 - sum(phi^2).

Enumeration runs over fundamental coefficient tuples of the right
self-intersection (an elementary nonnegative quadratic, so partial-sum
pruning is exact) and converts each to its profile.  An independent
profile-side enumeration lives in `verify` and must agree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Sequence

from .lattice import is_two_divisible, pair, self_int, standard_sequence
from .oracle import (
    IsotropicSequence,
    PhiVector,
    enumerate_isotropics,
    order_key,
    phi_vector_oracle,
    _enumerate_with_values,
)
from .fundamental import (
    FundamentalCoefficients,
    coefficients_from_phivector,
    phivector_from_coefficients,
    quadratic_value,
)
from .lattice import generator_pair

__all__ = [
    "ModuliComponent",
    "NumericalComponent",
    "RhoSummary",
    "DominationReport",
    "BoundsReport",
    "component_name",
    "numerical_name",
    "unirationality_flag",
    "enumerate_components",
    "enumerate_components_by_phi",
    "numerical_components",
    "rho_fiber_structure",
    "dominating_component_check",
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
    components."""
    p = tuple(phi)

    def flat(lo: int, hi: int) -> bool:
        return all(p[i] == p[lo] for i in range(lo, hi + 1))

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
    prune exactly; the pair coefficient is solved, not searched.
    """
    def tails(head: tuple[int, ...], p: int, s: int) -> Iterator[FundamentalCoefficients]:
        a9 = 0
        while p + 2 * a9 * s + 2 * a9 * a9 <= q:
            for a10 in range(a9 + 1):
                base = p + (a9 + a10) * s + a9 * a10
                if base + a9 * (s + 2 * a9 + 2 * a10) > q:
                    break
                w = s + 2 * (a9 + a10)
                if w == 0:
                    continue  # everything zero: value 0 < q
                rem = q - base
                if rem % w == 0 and a9 <= rem // w <= a9 + a10:
                    yield FundamentalCoefficients(
                        a0=rem // w, head=head, a9=a9, a10=a10
                    )
            a9 += 1

    def heads(
        acc: tuple[int, ...], prev: int, p: int, s: int
    ) -> Iterator[FundamentalCoefficients]:
        if len(acc) == 7:
            yield from tails(acc, p, s)
            return
        hi = min(prev, (q - p) // s) if s else prev
        for v in range(hi, -1, -1):
            yield from heads(acc + (v,), v, p + v * s, s + v)

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


_DOMINATING = FundamentalCoefficients(a0=4, head=(7, 6, 5, 4, 3, 2, 1), a9=3, a10=2)


@dataclass(frozen=True)
class DominationReport:
    genus: int
    phi: tuple[int, ...]
    genus_ok: bool
    formula_phi_ok: bool
    oracle_phi_ok: bool
    unique_sequence: bool
    thresholds_ok: bool
    stability_ok: bool
    target_phi: tuple[int, ...] | None
    target_ok: bool | None

    def checks(self) -> tuple[tuple[str, bool], ...]:
        items = [
            ("genus of the big class is 621", self.genus_ok),
            ("formula profile is (30,...,39)", self.formula_phi_ok),
            ("oracle profile agrees", self.oracle_phi_ok),
            ("computing sequence is unique", self.unique_sequence),
            ("isotropic thresholds 38/39/40 as stated", self.thresholds_ok),
            ("search bound is stability-certified", self.stability_ok),
        ]
        if self.target_ok is not None:
            items.append(("substitution map hits the target profile", self.target_ok))
        return tuple(items)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks())


def dominating_component_check(
    target_phi: Sequence[int] | None = None,
) -> DominationReport:
    """Certify the facts that make the genus-621 component dominate: its
    profile is (30,...,39), computed by exactly one sequence, because all
    non-member isotropic classes meet the class in at least 38 with the
    two sub-40 values attained once each."""
    L = _DOMINATING.divisor_class().num
    g = self_int(L) // 2 + 1
    formula_phi = phivector_from_coefficients(_DOMINATING)
    oracle_phi, seqs = phi_vector_oracle(L, max_sequences=4)

    std = standard_sequence()
    pool = _enumerate_with_values(L, 40)
    others = [(v, f) for v, f in pool if f not in std]
    at38 = [f for v, f in others if v == 38]
    at39 = [f for v, f in others if v == 39]
    thresholds_ok = (
        all(v >= 38 for v, _ in others)
        and at38 == [generator_pair(9, 10)]
        and at39 == [generator_pair(8, 10)]
    )
    stability_ok = (
        enumerate_isotropics(L, 40) == enumerate_isotropics(L, 40, extra_layers=2)
    )

    target_tuple = None
    target_ok = None
    if target_phi is not None:
        target_tuple = tuple(int(v) for v in target_phi)
        target = PhiVector(target_tuple)
        image = coefficients_from_phivector(target).divisor_class().num
        image_phi, _ = phi_vector_oracle(image, max_sequences=1)
        target_ok = image_phi.phis == target_tuple

    return DominationReport(
        genus=g,
        phi=oracle_phi.phis,
        genus_ok=g == 621,
        formula_phi_ok=formula_phi.phis == tuple(range(30, 40)),
        oracle_phi_ok=oracle_phi.phis == tuple(range(30, 40)),
        unique_sequence=len(seqs) == 1 and set(seqs[0].members) == set(std),
        thresholds_ok=thresholds_ok,
        stability_ok=stability_ok,
        target_phi=target_tuple,
        target_ok=target_ok,
    )


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
