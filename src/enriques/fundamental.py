"""Closed-form layer: fundamental presentations of big divisor classes.

Every positive class L with L^2 > 0 can be written, on a suitable
isotropic 10-sequence, as

    L = a_1 S_1 + ... + a_7 S_7 + a_9 S_9 + a_10 S_10 + a_0 (D' - S_9 - S_10)

with a_1 >= ... >= a_7 >= 0 and a_9 + a_10 >= a_0 >= a_9 >= a_10 >= 0,
where D' is one third of the sum of the sequence.  The coefficients are
in exact linear bijection with the minimal intersection profile
(phi-vector) of L, which is what `components` enumerates.

Any class is brought to that form by one reduction: reflect the standard
sequence by the simple roots of W(E10) until the sorted pairings of L
satisfy the chain above, then read the coefficients off those pairings
(Cossec-Dolgachev, Enriques Surfaces I).  The reduction reflects plain
coordinate tuples and builds a class, when it returns the sequence, only
for a member it reflected (the others are the shared standard classes);
its parity check, the coefficient validation and the exact
reconstruction of the class run on every call, under `python -O` too.
This is the formula route; `oracle` recomputes the same profiles by
exhaustive search and shares only the value types with it.
`FundamentalCoefficients.divisor_class` evaluates a presentation on the
standard sequence in the closed form of `lattice.sequence_combination`,
on coefficients whose checks it does not repeat, and
`lattice.require_big` screens every class that `fundamental_presentation`
reduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter, mul, sub
from typing import Sequence

from .lattice import (
    D,
    NumClass,
    is_two_divisible,
    linear_form,
    require_big,
    sequence_combination,
    standard_sequence,
)
from .oracle import IsotropicSequence, PhiVector

__all__ = [
    "FundamentalCoefficients",
    "quadratic_value",
    "phivector_from_coefficients",
    "coefficients_from_phivector",
    "class_from_presentation",
    "rewrite_to_fundamental",
    "fundamental_presentation",
]


def _check_eps(eps: int) -> None:
    """The torsion bit is the int 0 or 1; a bool, although an int, is not."""
    if type(eps) is not int or eps not in (0, 1):
        raise ValueError("eps must be 0 or 1")


@dataclass(frozen=True, slots=True)
class FundamentalCoefficients:
    """Coefficients of a fundamental presentation.

    head holds a_1..a_7 (nonincreasing).  eps is the torsion bit that
    picks a sheet of the double cover over the 2-divisible classes; this
    is the one place the package stores it.  It may be set only when every
    coefficient is even, since an odd term absorbs the torsion class.
    """

    a0: int
    head: tuple[int, ...]
    a9: int
    a10: int
    eps: int = 0

    def __post_init__(self):
        """One pass of checks, in this order, each raising ValueError with
        its own message: the head is seven ints; a_0, a_9 and a_10 are
        ints and all ten coefficients are nonnegative; the head is
        nonincreasing; the tail chain holds; eps is 0 or 1; and eps = 1
        only on even coefficients.  An int is one whose type is int, so a
        bool is no coefficient.  A head that is not a tuple is stored as
        one first, so the coefficients compare and hash as ones built from
        a tuple; a head of another length reads as seven Nones, which fail
        the first check."""
        head = self.head
        if type(head) is not tuple:
            head = tuple(head)
            _SLOT_SETTERS[1](self, head)
        h1, h2, h3, h4, h5, h6, h7 = head if len(head) == 7 else (None,) * 7
        if not (
            type(h1) is type(h2) is type(h3) is type(h4) is int
            and type(h5) is type(h6) is type(h7) is int
        ):
            raise ValueError("head takes exactly seven integers")
        a0, a9, a10, eps = self.a0, self.a9, self.a10, self.eps
        # An OR of ints is negative exactly when one of them is.
        if not (type(a0) is type(a9) is type(a10) is int) or (
            a0 | h1 | h2 | h3 | h4 | h5 | h6 | h7 | a9 | a10
        ) < 0:
            raise ValueError("coefficients must be nonnegative integers")
        if not h1 >= h2 >= h3 >= h4 >= h5 >= h6 >= h7:
            raise ValueError("head coefficients must be nonincreasing")
        if not a9 + a10 >= a0 >= a9 >= a10:
            raise ValueError("tail chain violated: need a9 + a10 >= a0 >= a9 >= a10")
        _check_eps(eps)
        if eps and not self.all_even():
            raise ValueError("eps = 1 requires all coefficients even")

    @classmethod
    def _trusted(
        cls, a0: int, head: tuple[int, ...], a9: int, a10: int, eps: int = 0
    ) -> FundamentalCoefficients:
        """Build without the checks above, for a producer whose tuples
        pass them by construction (the component walk, whose tuples the
        rows and `verify`'s sweeps wrap, the eps = 1 twins of its rows,
        and the tuple sweep of `verify`'s roundtrip suite)."""
        c = object.__new__(cls)
        set_a0, set_head, set_a9, set_a10, set_eps = _SLOT_SETTERS
        set_a0(c, a0)
        set_head(c, head)
        set_a9(c, a9)
        set_a10(c, a10)
        set_eps(c, eps)
        return c

    def all_even(self) -> bool:
        h1, h2, h3, h4, h5, h6, h7 = self.head
        return not (self.a0 | h1 | h2 | h3 | h4 | h5 | h6 | h7 | self.a9 | self.a10) & 1

    def as_tuple(self) -> tuple[int, ...]:
        return (self.a0, *self.head, self.a9, self.a10)

    def divisor_class(self) -> NumClass:
        """The presented class on the standard sequence, modulo torsion;
        the torsion bit stays on the coefficients.  It is
        `sequence_combination((*head, 0, a9, a10), a0)`, whose closed form
        gives the coordinates a_i - a_10 + a_0 (i <= 8, a_8 = 0),
        a_9 - a_10 and 3 a_10 - 2 a_0, without its check that the
        coefficients are integers, which they are already."""
        a0, a10 = self.a0, self.a10
        h1, h2, h3, h4, h5, h6, h7 = self.head
        c = a0 - a10
        return NumClass._trusted((
            h1 + c, h2 + c, h3 + c, h4 + c, h5 + c, h6 + c, h7 + c,
            c, self.a9 - a10, 3 * a10 - 2 * a0,
        ))


# The slots' own setters, which the frozen __setattr__ does not guard.
_SLOT_SETTERS = tuple(
    getattr(FundamentalCoefficients, name).__set__
    for name in ("a0", "head", "a9", "a10", "eps")
)


def quadratic_value(c: FundamentalCoefficients) -> int:
    """Half the self-intersection (= genus - 1) of the presented class.

    All generator cross terms pair to 1 except the doubled ones against
    the pair class, so the quadratic form collapses to an elementary
    symmetric expression.
    """
    head, a9, a10 = c.head, c.a9, c.a10
    h = sum(head)
    s = h + a9 + a10
    cross = (s * s - sum(map(mul, head, head)) - a9 * a9 - a10 * a10) // 2
    return cross + c.a0 * (h + 2 * (a9 + a10))


def phivector_from_coefficients(c: FundamentalCoefficients) -> PhiVector:
    """Minimal intersection profile, by formula: against its own
    presentation sequence, L meets member i in a - a_i (head), a (eighth),
    and a + a_0 - a_9, a + a_0 - a_10 (tail), where a is the total."""
    if quadratic_value(c) <= 0:
        raise ValueError("profile needs positive self-intersection")
    a0, a9, a10 = c.a0, c.a9, c.a10
    h1, h2, h3, h4, h5, h6, h7 = c.head
    a = a0 + h1 + h2 + h3 + h4 + h5 + h6 + h7 + a9 + a10
    return PhiVector((
        a - h1, a - h2, a - h3, a - h4, a - h5, a - h6, a - h7,
        a, a + a0 - a9, a + a0 - a10,
    ))


def coefficients_from_phivector(
    p: PhiVector | Sequence[int], eps: int = 0
) -> FundamentalCoefficients:
    """Exact inverse of phivector_from_coefficients (eps is passed through;
    validation rejects an eps = 1 request on odd coefficients).  Accepts
    any sorted ten-entry pairing vector of ints whose total is divisible
    by 3, including ones with a leading 0 that PhiVector rejects (square-0
    classes).  A PhiVector's entries are checked already; any other
    vector's are checked here, before any arithmetic."""
    if isinstance(p, PhiVector):
        return _from_pairings(p.phis, eps)
    p = tuple(p)
    if len(p) != 10:
        raise ValueError("a pairing vector has ten entries")
    if not set(map(type, p)) <= {int}:
        raise ValueError("pairing vector entries must be integers")
    return _from_pairings(p, eps)


def _from_pairings(p: Sequence[int], eps: int) -> FundamentalCoefficients:
    """`coefficients_from_phivector` on ten ints: the chamber reduction's
    pairings, or a vector its caller has checked."""
    s, rem = divmod(sum(p), 3)
    if rem:
        raise ValueError("pairing vector total must be divisible by 3")
    p8 = p[7]
    tail = s - 2 * p8
    return FundamentalCoefficients(
        s - 3 * p8, tuple(map(sub, repeat(p8, 7), p[:7])), tail - p[8], tail - p[9], eps
    )


def class_from_presentation(
    c: FundamentalCoefficients, seq: IsotropicSequence
) -> NumClass:
    """Evaluate the presentation on a concrete sequence: head coefficients
    on members 1..7, a9 and a10 on members 9 and 10, a0 on the pair class
    D' - S_9 - S_10 of the last two members, where D' is a third of the
    sequence total.  One pass over the coordinate positions reads the ten
    member rows together: the total of a position, checked divisible by
    3, and its weighted sum, in explicit arithmetic."""
    a0 = c.a0
    h1, h2, h3, h4, h5, h6, h7 = c.head
    w9, w10 = c.a9 - a0, c.a10 - a0
    out = []
    for x1, x2, x3, x4, x5, x6, x7, x8, x9, x10 in zip(*[f.coords for f in seq.members]):
        third, rem = divmod(x1 + x2 + x3 + x4 + x5 + x6 + x7 + x8 + x9 + x10, 3)
        if rem:
            raise ValueError("sequence total is not three-divisible")
        out.append(
            h1 * x1 + h2 * x2 + h3 * x3 + h4 * x4 + h5 * x5 + h6 * x6 + h7 * x7
            + w9 * x9 + w10 * x10 + a0 * third
        )
    # integer coefficients on the integer rows of checked members
    return NumClass._trusted(tuple(out))


# The coordinates of E_1, ..., E_10, where `_reduce` starts.
_STANDARD_COORDS = tuple(f.coords for f in standard_sequence())


def _standard_pairings(goal: NumClass) -> tuple[int, ...]:
    """goal.E_1, ..., goal.E_10 in the closed form of `_reduce`."""
    form = linear_form(goal)
    nine = form[:9]
    return (*nine, 3 * form[9] - sum(nine))


def _reduce(goal: NumClass, eps: int) -> tuple[FundamentalCoefficients, IsotropicSequence]:
    """Reflect the standard sequence into the fundamental chamber of goal.

    Works on the pairing vector m_i = goal.S_i, kept sorted ascending with
    the coordinates of its members (the reflections in alpha_1..alpha_9
    only permute it).  It starts on S_i = E_i, read off the linear form l
    of goal: goal.E_i = l_i for i <= 9 and
    goal.E_10 = 3 l_10 - (l_1 + ... + l_9), since E_10 = 3D - E_1 - ... - E_9.
    While m_8 + m_9 + m_10 exceeds s = goal.D' = (m_1 + ... + m_10) / 3,
    reflect in alpha_0 = D' - S_8 - S_9 - S_10: the three largest members
    x, y, z become D' - y - z, D' - x - z, D' - x - y.  This moves s to
    2s - (m_8 + m_9 + m_10) < s, and s stays positive on a nonzero class
    in the closed positive cone, so the loop ends.  At the stop the
    sorted pairings satisfy the tail chain and read off as coefficients.
    The members are plain coordinate tuples in the loop, each carrying
    its shared standard class until a reflection replaces it; the returned
    sequence builds a class only for a reflected member, so a class that
    needs no reflection (most do not) builds none.
    """
    pairs = list(zip(_standard_pairings(goal), _STANDARD_COORDS, standard_sequence()))
    by_value = itemgetter(0)
    pairs.sort(key=by_value)
    s = sum(map(by_value, pairs)) // 3
    dseq = D.coords
    while True:
        (m8, x, _), (m9, y, _), (m10, z, _) = pairs[7:]
        top = m8 + m9 + m10
        if top <= s:
            break
        pairs[7:] = [
            (s - m9 - m10, tuple(map(sub, map(sub, dseq, y), z)), None),
            (s - m8 - m10, tuple(map(sub, map(sub, dseq, x), z)), None),
            (s - m8 - m9, tuple(map(sub, map(sub, dseq, x), y)), None),
        ]
        dseq = tuple(2 * d - a - b - c for d, a, b, c in zip(dseq, x, y, z))
        s = 2 * s - top
        pairs.sort(key=by_value)

    even = is_two_divisible(goal)
    fc = _from_pairings(list(map(by_value, pairs)), eps if even else 0)
    if fc.all_even() != even:
        raise AssertionError("2-divisibility disagrees with the coefficient parity")
    iso = IsotropicSequence(
        tuple(NumClass._trusted(x) if f is None else f for _, x, f in pairs)
    )
    if class_from_presentation(fc, iso) != goal:
        raise AssertionError("presentation failed to reconstruct the class")
    return fc, iso


def rewrite_to_fundamental(
    coeffs: Sequence[int], a0: int = 0, eps: int = 0
) -> tuple[FundamentalCoefficients, IsotropicSequence]:
    """Rewrite a_1 E_1 + ... + a_10 E_10 + a_0 E_{9,10} (+ eps torsion) into
    fundamental form, tracking the sequence the output lives on.  The
    input may have square 0; the reconstruction is verified exactly.
    `sequence_combination` checks that the coefficients are integers."""
    cs = list(coeffs)
    goal = sequence_combination(cs, a0)
    if min(cs) < 0 or a0 < 0:
        raise ValueError("coefficients must be nonnegative")
    _check_eps(eps)
    if goal.is_zero():
        raise ValueError("zero class")
    return _reduce(goal, eps)


def fundamental_presentation(
    L: NumClass, eps: int = 0
) -> tuple[FundamentalCoefficients, IsotropicSequence]:
    """Fundamental coefficients of an arbitrary big positive class, by the
    chamber reduction of `_reduce`, with the sequence that carries the
    presentation.  The torsion bit eps is kept on a 2-divisible class and
    dropped on any other.  The reconstruction is verified exactly before
    returning; `oracle.phi_vector_oracle` certifies the profile."""
    _check_eps(eps)
    require_big(L)
    return _reduce(L, eps)
