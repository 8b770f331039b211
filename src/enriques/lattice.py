"""Integer model of the Enriques lattice with a distinguished isotropic basis.

The lattice is Z^10 carrying the unique even unimodular form of signature
(1, 9).  We fix once and for all an isotropic 10-sequence E_1, ..., E_10
(classes with E_i^2 = 0 and E_i.E_j = 1 for i != j) together with
D = (E_1 + ... + E_10)/3, which satisfies D^2 = 10 and D.E_i = 3.
Coordinates of every class are taken in the basis

    B = (E_1, ..., E_9, D),

which is integral: E_10 = 3D - (E_1 + ... + E_9) and the isotropic classes
E_{i,j} = D - E_i - E_j all have integer coordinates.  Unimodularity
(det = -1) and the signature are not assumed: `gram_determinant` and
`gram_signature` read both off the leading minors of one exact
fraction-free elimination, and the test suite pins them.

Divisor classes modulo torsion are `NumClass`.  The one bit for the
canonical class K (2K = 0, K numerically trivial) that tells the two
halves of a 2-divisible family apart lives on the coefficients, as
`fundamental.FundamentalCoefficients.eps`.

Positivity convention: a nonzero class with nonnegative square counts as
positive (effective in the unnodal model) iff it pairs positively with D.

`sequence_combination` is the one map from coefficients on the fixed
sequence to coordinates, and `require_big` is the one check that a class
is big and positive; every route into the package starts with them.

Validation happens at that boundary, by one integer rule: a value is an
integer when its type is `int`, so a bool or a float is not.
`sequence_combination` checks its ten coefficients and a0 by that rule,
the `NumClass(...)` constructor checks the coordinates, and `require_big`
checks bigness and positivity, raising `NotBigError` (a `ValueError`) on a
class that fails them.  Integer coefficients give integer coordinates, so
`sequence_combination` builds its class through `NumClass._trusted`, and
arithmetic on valid classes gives valid classes, so `+`, `-` and `*` do
too, without re-checking.
`pair` and `linear_form` evaluate the Gram matrix in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import gcd
from operator import add, and_, mul, neg, sub
from typing import Sequence

RANK = 10

__all__ = [
    "RANK",
    "NumClass",
    "D",
    "pair",
    "linear_form",
    "self_int",
    "generator_e",
    "generator_pair",
    "standard_sequence",
    "is_primitive",
    "is_positive",
    "is_two_divisible",
    "sequence_combination",
    "NotBigError",
    "require_big",
    "gram_matrix",
    "gram_determinant",
    "gram_signature",
]


@dataclass(frozen=True)
class NumClass:
    """A numerical divisor class: integer coordinates in the basis B (ints;
    a bool, although an int, is not a coordinate)."""

    coords: tuple[int, ...]

    def __post_init__(self):
        """Any other sequence of coordinates is stored as a tuple, so the
        class compares and hashes as one built from a tuple."""
        coords = self.coords
        if type(coords) is not tuple:
            coords = tuple(coords)
            object.__setattr__(self, "coords", coords)
        if len(coords) != RANK:
            raise ValueError(f"a class needs {RANK} coordinates, got {len(coords)}")
        if not set(map(type, coords)) <= {int}:
            raise ValueError("coordinates must be integers")

    @classmethod
    def _trusted(cls, coords: tuple[int, ...]) -> NumClass:
        """Build without the checks above, for coordinates that are ten
        integers by construction (arithmetic on valid classes)."""
        c = object.__new__(cls)
        object.__setattr__(c, "coords", coords)
        return c

    def __add__(self, other: "NumClass") -> "NumClass":
        return NumClass._trusted(tuple(map(add, self.coords, other.coords)))

    def __sub__(self, other: "NumClass") -> "NumClass":
        return NumClass._trusted(tuple(map(sub, self.coords, other.coords)))

    def __neg__(self) -> "NumClass":
        return NumClass._trusted(tuple(map(neg, self.coords)))

    def __mul__(self, n: int) -> "NumClass":
        # a bool, although an int, is no multiplier
        if type(n) is not int:
            return NotImplemented
        return NumClass._trusted(tuple(n * a for a in self.coords))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.coords)


D = NumClass((0,) * 9 + (1,))


def pair(a: NumClass, b: NumClass) -> int:
    """Intersection pairing, evaluated by the closed form of the Gram matrix:
    with s the sum of the first nine coordinates and d the last,
    a.b = s_a s_b - (a_1 b_1 + ... + a_9 b_9) + 3 (d_a s_b + d_b s_a)
    + 10 d_a d_b."""
    xa, xb = a.coords, b.coords
    da, db = xa[9], xb[9]
    sa = sum(xa) - da
    sb = sum(xb) - db
    # 11, not 10: the dot product runs over all ten coordinates, so it
    # also subtracts d_a d_b.
    return sa * sb - sum(map(mul, xa, xb)) + 3 * (da * sb + db * sa) + 11 * da * db


def linear_form(a: NumClass) -> tuple[int, ...]:
    """The ten integers l with a.x = l_1 x_1 + ... + l_10 x_10 for every
    class x: the Gram matrix times the coordinates of a.  The last entry
    is a.D."""
    x = a.coords
    d = x[9]
    s = sum(x) - d
    base = s + 3 * d
    return (*[base - v for v in x[:9]], 3 * s + 10 * d)


def self_int(a: NumClass) -> int:
    return pair(a, a)


# The fixed sequence E_1, ..., E_10 in the basis B; classes are immutable,
# so every caller shares these.
_STANDARD = tuple(
    NumClass(tuple(1 if k == i else 0 for k in range(RANK))) for i in range(9)
) + (NumClass((-1,) * 9 + (3,)),)


def generator_e(i: int) -> NumClass:
    """The i-th member of the fixed isotropic sequence, 1 <= i <= 10."""
    if type(i) is not int or not 1 <= i <= 10:
        raise ValueError(f"index out of range: {i!r}")
    return _STANDARD[i - 1]


def generator_pair(i: int, j: int) -> NumClass:
    """The isotropic class E_{i,j} = D - E_i - E_j for distinct i, j."""
    if i == j:
        raise ValueError("generator_pair needs two distinct indices")
    return D - generator_e(i) - generator_e(j)


def standard_sequence() -> tuple[NumClass, ...]:
    return _STANDARD


def is_primitive(a: NumClass) -> bool:
    """True iff the coordinate gcd is 1 (a is not a proper multiple)."""
    if a.is_zero():
        raise ValueError("the zero class is neither primitive nor imprimitive")
    return gcd(*a.coords) == 1


def is_positive(a: NumClass) -> bool:
    """Effectivity in the unnodal model: positive pairing with D.

    Only defined on nonzero classes of nonnegative square.
    """
    if a.is_zero():
        raise ValueError("positivity of the zero class is undefined")
    if self_int(a) < 0:
        raise ValueError("positivity of a negative-square class is undefined here")
    return pair(a, D) > 0


def is_two_divisible(a: NumClass) -> bool:
    return not any(map(and_, a.coords, repeat(1)))


def sequence_combination(coeffs: Sequence[int], a0: int = 0) -> NumClass:
    """The class a_1 E_1 + ... + a_10 E_10 + a0 E_{9,10}, in closed form.

    E_10 = 3D - (E_1 + ... + E_9) and E_{9,10} = E_1 + ... + E_8 - 2D, so
    the coordinates are a_i - a_10 + a0 (i <= 8), a_9 - a_10 and
    3 a_10 - 2 a0.  ValueError unless a0 and every coefficient are ints
    (checked first) and there are ten coefficients.
    """
    if not set(map(type, coeffs)) <= {int} or type(a0) is not int:
        raise ValueError("coefficients must be integers")
    if len(coeffs) != 10:
        raise ValueError("expected ten sequence coefficients")
    a10 = coeffs[9]
    shift = a0 - a10
    return NumClass._trusted(
        tuple(v + shift for v in coeffs[:8]) + (coeffs[8] - a10, 3 * a10 - 2 * a0)
    )


class NotBigError(ValueError):
    """A class that is zero, not big or not positive, as `require_big`
    finds it; the message names the first condition that fails."""


def require_big(a: NumClass) -> tuple[int, int]:
    """(a.D, a^2) of a big positive class; NotBigError naming the first
    condition a fails otherwise."""
    if a.is_zero():
        raise NotBigError("class is not positive: it is zero")
    q = self_int(a)
    if q <= 0:
        raise NotBigError("class is not big: the self-intersection is not positive")
    d = pair(a, D)
    if d <= 0:
        raise NotBigError("class is not positive: it pairs nonpositively with d")
    return d, q


def gram_matrix() -> tuple[tuple[int, ...], ...]:
    """Gram matrix of the basis B, entry by entry from the pairing."""
    basis = [generator_e(i) for i in range(1, 10)] + [D]
    return tuple(tuple(pair(x, y) for y in basis) for x in basis)


def _leading_minors() -> list[int]:
    """Leading principal minors of the Gram matrix in the basis order
    (D, E_1, ..., E_9), by fraction-free (Bareiss) elimination without
    pivoting: the k-th pivot is the k-th minor and every division is exact.

    D comes first because each E_i has square 0, so in the order of B the
    first pivot would vanish; in this order the minors are 10, -9, 8, ...,
    -1.  Reordering the basis is a congruence by a permutation, so neither
    invariant changes.  A zero minor raises ArithmeticError.
    """
    g = gram_matrix()
    order = (RANK - 1, *range(RANK - 1))
    m = [[g[i][j] for j in order] for i in order]
    minors = []
    prev = 1
    for k in range(RANK):
        piv = m[k][k]
        if piv == 0:
            raise ArithmeticError(f"leading minor {k + 1} of the Gram matrix is zero")
        minors.append(piv)
        for i in range(k + 1, RANK):
            for j in range(k + 1, RANK):
                m[i][j] = (m[i][j] * piv - m[i][k] * m[k][j]) // prev
        prev = piv
    return minors


def gram_determinant() -> int:
    """Exact determinant: the last leading minor."""
    return _leading_minors()[-1]


def gram_signature() -> tuple[int, int]:
    """(positive, negative) inertia of the form by Jacobi's rule: with no
    leading minor zero, the negative inertia is the number of sign changes
    in 1, minor_1, ..., minor_10."""
    minors = [1, *_leading_minors()]
    neg = sum((a < 0) != (b < 0) for a, b in zip(minors, minors[1:]))
    return RANK - neg, neg
