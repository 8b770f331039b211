"""Closed-form layer: fundamental presentations of big divisor classes.

Every positive class L with L^2 > 0 can be written, on a suitable
isotropic 10-sequence, as

    L = a_1 S_1 + ... + a_7 S_7 + a_9 S_9 + a_10 S_10 + a_0 (D' - S_9 - S_10)

with a_1 >= ... >= a_7 >= 0 and a_9 + a_10 >= a_0 >= a_9 >= a_10 >= 0,
where D' is one third of the sum of the sequence.  The coefficients are
in exact linear bijection with the minimal intersection profile
(phi-vector) of L, which is what `components` enumerates.

The conversion formulas here are the formula route; `oracle` recomputes
the same profiles by exhaustive search.  The two routes never share code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .lattice import (
    D,
    NumClass,
    PicClass,
    from_decomposition,
    generator_pair,
    is_positive,
    is_primitive,
    is_two_divisible,
    pair,
    self_int,
    standard_sequence,
)
from .oracle import IsotropicSequence, PhiVector, phi_vector_oracle

__all__ = [
    "FundamentalCoefficients",
    "Decomposition",
    "quadratic_value",
    "phivector_from_coefficients",
    "coefficients_from_phivector",
    "format_coefficients",
    "parse_coefficients",
    "iter_coefficient_tuples",
    "simple_decomposition_error",
    "class_from_presentation",
    "rewrite_to_fundamental",
    "fundamental_presentation",
]


@dataclass(frozen=True)
class FundamentalCoefficients:
    """Coefficients of a fundamental presentation.

    head holds a_1..a_7 (nonincreasing); the torsion bit eps may be set
    only when every coefficient is even, since an odd term absorbs the
    torsion class.
    """

    a0: int
    head: tuple[int, ...]
    a9: int
    a10: int
    eps: int = 0

    def __post_init__(self):
        if len(self.head) != 7 or not all(isinstance(v, int) for v in self.head):
            raise ValueError("head takes exactly seven integers")
        vals = (self.a0, *self.head, self.a9, self.a10)
        if not all(isinstance(v, int) for v in vals) or min(vals) < 0:
            raise ValueError("coefficients must be nonnegative integers")
        if any(self.head[i] < self.head[i + 1] for i in range(6)):
            raise ValueError("head coefficients must be nonincreasing")
        if not (self.a9 + self.a10 >= self.a0 >= self.a9 >= self.a10):
            raise ValueError(
                "tail chain violated: need a9 + a10 >= a0 >= a9 >= a10"
            )
        if self.eps not in (0, 1):
            raise ValueError("eps must be 0 or 1")
        if self.eps == 1 and not self.all_even():
            raise ValueError("eps = 1 requires all coefficients even")

    def total(self) -> int:
        return self.a0 + sum(self.head) + self.a9 + self.a10

    def all_even(self) -> bool:
        return all(
            v % 2 == 0 for v in (self.a0, *self.head, self.a9, self.a10)
        )

    def as_tuple(self) -> tuple[int, ...]:
        return (self.a0, *self.head, self.a9, self.a10)

    def divisor_class(self) -> PicClass:
        return from_decomposition(self.head, self.a9, self.a10, self.a0, self.eps)

    def to_json(self) -> dict:
        return {
            "a0": self.a0,
            "head": list(self.head),
            "a9": self.a9,
            "a10": self.a10,
            "eps": self.eps,
        }


def quadratic_value(c: FundamentalCoefficients) -> int:
    """Half the self-intersection (= genus - 1) of the presented class.

    All generator cross terms pair to 1 except the doubled ones against
    the pair class, so the quadratic form collapses to an elementary
    symmetric expression.
    """
    terms = (*c.head, c.a9, c.a10)
    s = sum(terms)
    cross = (s * s - sum(v * v for v in terms)) // 2
    return cross + c.a0 * (sum(c.head) + 2 * c.a9 + 2 * c.a10)


def phivector_from_coefficients(c: FundamentalCoefficients) -> PhiVector:
    """Minimal intersection profile, by formula: against its own
    presentation sequence, L meets member i in a - a_i (head), a (eighth),
    and a + a_0 - a_9, a + a_0 - a_10 (tail)."""
    if quadratic_value(c) <= 0:
        raise ValueError("profile needs positive self-intersection")
    a = c.total()
    phis = tuple(a - v for v in c.head) + (a, a + c.a0 - c.a9, a + c.a0 - c.a10)
    return PhiVector(phis)


def coefficients_from_phivector(p: PhiVector, eps: int = 0) -> FundamentalCoefficients:
    """Exact inverse of phivector_from_coefficients (eps is passed through;
    validation rejects an eps = 1 request on odd coefficients)."""
    s = sum(p.phis) // 3
    p8 = p.phis[7]
    head = tuple(p8 - p.phis[i] for i in range(7))
    return FundamentalCoefficients(
        a0=s - 3 * p8,
        head=head,
        a9=s - 2 * p8 - p.phis[8],
        a10=s - 2 * p8 - p.phis[9],
        eps=eps,
    )


def format_coefficients(c: FundamentalCoefficients) -> str:
    return f"{c.a0};{','.join(str(v) for v in c.head)};{c.a9},{c.a10}"


def parse_coefficients(text: str, eps: int = 0) -> FundamentalCoefficients:
    """Parse the "a0;a1,..,a7;a9,a10" form used by the CLI."""
    parts = text.split(";")
    if len(parts) != 3:
        raise ValueError('expected "a0;a1,..,a7;a9,a10"')
    try:
        a0 = int(parts[0])
        head = tuple(int(v) for v in parts[1].split(","))
        tail = tuple(int(v) for v in parts[2].split(","))
    except ValueError:
        raise ValueError("coefficients must be integers") from None
    if len(head) != 7:
        raise ValueError("the middle group takes exactly seven coefficients")
    if len(tail) != 2:
        raise ValueError("the last group takes exactly two coefficients")
    return FundamentalCoefficients(a0=a0, head=head, a9=tail[0], a10=tail[1], eps=eps)


def iter_coefficient_tuples(max_total: int) -> Iterator[FundamentalCoefficients]:
    """All valid coefficient tuples (eps = 0) with total at most max_total,
    in deterministic order.  Sweep driver for tests and verification."""
    def heads(budget: int, slots: int, cap: int) -> Iterator[tuple[int, ...]]:
        if slots == 0:
            yield ()
            return
        for v in range(min(budget, cap), -1, -1):
            for rest in heads(budget - v, slots - 1, v):
                yield (v,) + rest

    for head in heads(max_total, 7, max_total):
        used = sum(head)
        for a9 in range(max_total - used + 1):
            for a10 in range(min(a9, max_total - used - a9) + 1):
                lo, hi = a9, min(a9 + a10, max_total - used - a9 - a10)
                for a0 in range(lo, hi + 1):
                    yield FundamentalCoefficients(a0=a0, head=head, a9=a9, a10=a10)


@dataclass(frozen=True)
class Decomposition:
    """A sum of weighted isotropic classes, with a torsion bit."""

    terms: tuple[tuple[int, NumClass], ...]
    eps: int = 0

    def __post_init__(self):
        for mult, cls in self.terms:
            if not isinstance(mult, int) or mult < 1:
                raise ValueError("term multiplicities must be positive integers")
            if not isinstance(cls, NumClass):
                raise ValueError("term classes must be NumClass values")
        if self.eps not in (0, 1):
            raise ValueError("eps must be 0 or 1")


def simple_decomposition_error(d: Decomposition) -> str | None:
    """None when d is a simple isotropic decomposition; otherwise the rule
    it breaks.  Allowed pairing patterns among the n classes: all pairs 1
    with n != 9; exactly one pair 2 with n != 10; exactly two pairs 2
    sharing a common class."""
    n = len(d.terms)
    if n == 0:
        return "empty decomposition"
    if n > 10:
        return "more than ten terms"
    for _, cls in d.terms:
        if self_int(cls) != 0:
            return "a term class is not isotropic"
        if not is_primitive(cls):
            return "a term class is not primitive"
        if not is_positive(cls):
            return "a term class is not positive"
    classes = [cls for _, cls in d.terms]
    if len(set(classes)) != n:
        return "repeated term class"
    twos = []
    for i in range(n):
        for j in range(i + 1, n):
            v = pair(classes[i], classes[j])
            if v == 2:
                twos.append((i, j))
            elif v != 1:
                return f"pairing {v} outside the allowed patterns"
    if not twos:
        return "nine terms need a pairing equal to 2" if n == 9 else None
    if len(twos) == 1:
        return "ten terms allow no single pairing 2" if n == 10 else None
    if len(twos) == 2:
        shared = set(twos[0]) & set(twos[1])
        return None if shared else "two pairings 2 must share a class"
    return "more than two pairings equal to 2"


def class_from_presentation(
    c: FundamentalCoefficients, seq: IsotropicSequence
) -> NumClass:
    """Evaluate the presentation on a concrete sequence: head coefficients
    on members 1..7, a9 and a10 on members 9 and 10, a0 on the pair class
    of the last two members."""
    ms = seq.members
    total = sum(ms[1:], ms[0])
    if any(v % 3 for v in total.coords):
        raise ValueError("sequence total is not three-divisible")
    dseq = NumClass(tuple(v // 3 for v in total.coords))
    out = NumClass((0,) * 10)
    for v, f in zip(c.head, ms[:7]):
        out = out + v * f
    out = out + c.a9 * ms[8] + c.a10 * ms[9]
    return out + c.a0 * (dseq - ms[8] - ms[9])


def rewrite_to_fundamental(
    coeffs: Sequence[int], a0: int = 0, eps: int = 0
) -> tuple[FundamentalCoefficients, IsotropicSequence]:
    """Rewrite a_1 E_1 + ... + a_10 E_10 + a_0 E_{9,10} (+ eps torsion) into
    fundamental form, tracking the sequence the output lives on.

    Three moves, each an exact lattice identity (checked on every pass):
    absorb the eighth coefficient into the tail; when a_0 lags a_9, trade
    head and ninth-slot weight into the pair class on a reindexed
    sequence; when a_0 exceeds a_9 + a_10, swap the tail into the three
    pair classes of the eighth member.  The loop settles in a few passes.
    """
    cs = list(coeffs)
    if len(cs) != 10:
        raise ValueError("expected ten sequence coefficients")
    if not all(isinstance(v, int) for v in cs) or not isinstance(a0, int):
        raise ValueError("coefficients must be integers")
    if min(cs) < 0 or a0 < 0:
        raise ValueError("coefficients must be nonnegative")
    if eps not in (0, 1):
        raise ValueError("eps must be 0 or 1")

    seq = list(standard_sequence())
    c = cs[:]
    c0 = a0
    goal = NumClass((0,) * 10)
    for v, f in zip(c, seq):
        goal = goal + v * f
    goal = goal + c0 * generator_pair(9, 10)
    if goal.is_zero():
        raise ValueError("zero class")

    def dseq() -> NumClass:
        total = sum(seq[1:], seq[0])
        if any(v % 3 for v in total.coords):
            raise AssertionError("sequence total is not three-divisible")
        return NumClass(tuple(v // 3 for v in total.coords))

    def current() -> NumClass:
        out = NumClass((0,) * 10)
        for v, f in zip(c, seq):
            out = out + v * f
        return out + c0 * (dseq() - seq[8] - seq[9])

    for _ in range(8):
        order = sorted(range(8), key=lambda i: -c[i])
        seq[0:8] = [seq[i] for i in order]
        c[0:8] = [c[i] for i in order]
        if c[8] < c[9]:
            seq[8], seq[9] = seq[9], seq[8]
            c[8], c[9] = c[9], c[8]
        m = c[7]
        if m:
            for i in range(8):
                c[i] -= m
            c[8] += 2 * m
            c[9] += 2 * m
            c0 += 3 * m
        if current() != goal:
            raise AssertionError("rewriting move broke the class")
        if c[8] + c[9] >= c0 >= c[8]:
            break
        if c0 < c[8]:
            b = min(c[8] - c0, c[6])
            seq[0:10] = seq[0:7] + [seq[8], seq[7], seq[9]]
            c[0:10] = [c[i] - b for i in range(7)] + [
                c[8] - c0 - b,
                c0 + 2 * b,
                c[9] + 2 * b,
            ]
            c0 += 3 * b
        else:
            d = dseq()
            pair_cls = d - seq[8] - seq[9]
            e_8_10 = d - seq[7] - seq[9]
            e_8_9 = d - seq[7] - seq[8]
            b = min(c[6], c0 - c[8] - c[9])
            new_c0 = c[8] + c[9] + 3 * b  # before the list below clobbers c[8], c[9]
            seq[0:10] = seq[0:7] + [pair_cls, e_8_10, e_8_9]
            c[0:10] = [c[i] - b for i in range(7)] + [
                c0 - c[8] - c[9] - b,
                c[8] + 2 * b,
                c[9] + 2 * b,
            ]
            c0 = new_c0
    else:
        raise AssertionError("rewriting did not terminate")

    if c[7] != 0:
        raise AssertionError("the eighth coefficient was not absorbed")
    out_vals = [c0] + c[0:7] + [c[8], c[9]]
    out_eps = eps if all(v % 2 == 0 for v in out_vals) else 0
    if is_two_divisible(goal) != all(v % 2 == 0 for v in out_vals):
        raise AssertionError("2-divisibility disagrees with the coefficient parity")
    fc = FundamentalCoefficients(
        a0=c0, head=tuple(c[0:7]), a9=c[8], a10=c[9], eps=out_eps
    )
    iso = IsotropicSequence(tuple(seq))
    if class_from_presentation(fc, iso) != goal:
        raise AssertionError("presentation failed to reconstruct the class")
    return fc, iso


def fundamental_presentation(
    L: PicClass | NumClass,
) -> tuple[FundamentalCoefficients, IsotropicSequence]:
    """Fundamental coefficients of an arbitrary big positive class, via the
    search oracle: its minimal profile converts to coefficients, and the
    computing sequence carries the presentation.  The reconstruction is
    verified exactly before returning."""
    if isinstance(L, NumClass):
        L = PicClass(L, 0)
    num = L.num
    profile, seqs = phi_vector_oracle(num, max_sequences=1)
    eps = L.eps if is_two_divisible(num) else 0
    fc = coefficients_from_phivector(profile, eps=eps)
    seq = seqs[0]
    rebuilt = class_from_presentation(fc, seq)
    if rebuilt != num:
        raise AssertionError("presentation failed to reconstruct the class")
    return fc, seq
