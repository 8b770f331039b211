"""Integer model of the Enriques lattice with a distinguished isotropic basis.

The lattice is Z^10 carrying the unique even unimodular form of signature
(1, 9).  We fix once and for all an isotropic 10-sequence E_1, ..., E_10
(classes with E_i^2 = 0 and E_i.E_j = 1 for i != j) together with
D = (E_1 + ... + E_10)/3, which satisfies D^2 = 10 and D.E_i = 3.
Coordinates of every class are taken in the basis

    B = (E_1, ..., E_9, D),

which is integral: E_10 = 3D - (E_1 + ... + E_9) and the isotropic classes
E_{i,j} = D - E_i - E_j all have integer coordinates.  Unimodularity
(det = -1) and the signature are not assumed; `gram_determinant` and
`gram_signature` compute both exactly and the test suite pins them.

Divisor classes modulo torsion are `NumClass`; full divisor classes are
`PicClass`, a numerical class plus one bit for the canonical class K
(2K = 0, K numerically trivial).

Positivity convention: a nonzero class with nonnegative square counts as
positive (effective in the unnodal model) iff it pairs positively with D.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

RANK = 10

__all__ = [
    "RANK",
    "NumClass",
    "PicClass",
    "ZERO",
    "D",
    "K",
    "pair",
    "self_int",
    "generator_e",
    "generator_pair",
    "standard_sequence",
    "is_primitive",
    "is_positive",
    "is_two_divisible",
    "from_decomposition",
    "gram_matrix",
    "gram_determinant",
    "gram_signature",
]


@dataclass(frozen=True)
class NumClass:
    """A numerical divisor class: integer coordinates in the basis B."""

    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != RANK:
            raise ValueError(f"a class needs {RANK} coordinates, got {len(self.coords)}")
        if not all(isinstance(c, int) for c in self.coords):
            raise ValueError("coordinates must be integers")

    def __add__(self, other: "NumClass") -> "NumClass":
        return NumClass(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "NumClass") -> "NumClass":
        return NumClass(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "NumClass":
        return NumClass(tuple(-a for a in self.coords))

    def __mul__(self, n: int) -> "NumClass":
        if not isinstance(n, int):
            return NotImplemented
        return NumClass(tuple(n * a for a in self.coords))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def to_json(self) -> list[int]:
        return list(self.coords)

    @classmethod
    def from_json(cls, data: Sequence[int]) -> "NumClass":
        return cls(tuple(int(c) for c in data))


@dataclass(frozen=True)
class PicClass:
    """A divisor class: numerical part plus the 2-torsion bit for K."""

    num: NumClass
    eps: int = 0

    def __post_init__(self):
        if self.eps not in (0, 1):
            raise ValueError("eps must be 0 or 1")

    def __add__(self, other: "PicClass") -> "PicClass":
        return PicClass(self.num + other.num, self.eps ^ other.eps)

    def to_json(self) -> dict:
        return {"coords": self.num.to_json(), "eps": self.eps}

    @classmethod
    def from_json(cls, data: dict) -> "PicClass":
        return cls(NumClass.from_json(data["coords"]), int(data["eps"]))


ZERO = NumClass((0,) * RANK)
D = NumClass((0,) * 9 + (1,))
K = PicClass(ZERO, 1)


def pair(a: NumClass, b: NumClass) -> int:
    """Intersection pairing, evaluated by the closed form of the Gram matrix."""
    xa, xb = a.coords, b.coords
    sa = sum(xa[:9])
    sb = sum(xb[:9])
    dot = sum(p * q for p, q in zip(xa, xb)) - xa[9] * xb[9]
    return sa * sb - dot + 3 * (xa[9] * sb + xb[9] * sa) + 10 * xa[9] * xb[9]


def self_int(a: NumClass) -> int:
    return pair(a, a)


def generator_e(i: int) -> NumClass:
    """The i-th member of the fixed isotropic sequence, 1 <= i <= 10."""
    if not 1 <= i <= 10:
        raise ValueError(f"index out of range: {i}")
    if i <= 9:
        return NumClass(tuple(1 if k == i - 1 else 0 for k in range(RANK)))
    return NumClass((-1,) * 9 + (3,))


def generator_pair(i: int, j: int) -> NumClass:
    """The isotropic class E_{i,j} = D - E_i - E_j for distinct i, j."""
    if i == j:
        raise ValueError("generator_pair needs two distinct indices")
    return D - generator_e(i) - generator_e(j)


def standard_sequence() -> tuple[NumClass, ...]:
    return tuple(generator_e(i) for i in range(1, 11))


def is_primitive(a: NumClass) -> bool:
    """True iff the coordinate gcd is 1 (a is not a proper multiple)."""
    if a.is_zero():
        raise ValueError("the zero class is neither primitive nor imprimitive")
    g = 0
    for c in a.coords:
        g = gcd(g, c)
    return g == 1


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
    return all(c % 2 == 0 for c in a.coords)


def from_decomposition(
    head: Iterable[int],
    a9: int,
    a10: int,
    a0: int,
    eps: int = 0,
) -> PicClass:
    """Build a_1 E_1 + ... + a_7 E_7 + a9 E_9 + a10 E_10 + a0 E_{9,10} + eps K.

    `head` supplies a_1..a_7 (shorter input is padded with zeros on the
    right).  All coefficients must be nonnegative.
    """
    hs = list(head)
    if len(hs) > 7:
        raise ValueError("head takes at most seven coefficients")
    hs += [0] * (7 - len(hs))
    if any(c < 0 for c in hs) or a9 < 0 or a10 < 0 or a0 < 0:
        raise ValueError("negative coefficient in decomposition")
    total = ZERO
    for i, c in enumerate(hs, start=1):
        total = total + c * generator_e(i)
    total = total + a9 * generator_e(9) + a10 * generator_e(10)
    total = total + a0 * generator_pair(9, 10)
    return PicClass(total, eps)


def gram_matrix() -> tuple[tuple[int, ...], ...]:
    """Gram matrix of the basis B, entry by entry from the pairing."""
    basis = [generator_e(i) for i in range(1, 10)] + [D]
    return tuple(tuple(pair(x, y) for y in basis) for x in basis)


def gram_determinant() -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    m = [list(row) for row in gram_matrix()]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def gram_signature() -> tuple[int, int]:
    """(positive, negative) inertia of the form, by exact congruence
    diagonalization over the rationals."""
    n = RANK
    m = [[Fraction(x) for x in row] for row in gram_matrix()]

    def add_row_col(dst: int, src: int, factor: Fraction) -> None:
        for j in range(n):
            m[dst][j] += factor * m[src][j]
        for i in range(n):
            m[i][dst] += factor * m[i][src]

    pos = neg = 0
    for k in range(n):
        if m[k][k] == 0:
            swapped = False
            for r in range(k + 1, n):
                if m[r][r] != 0:
                    m[k], m[r] = m[r], m[k]
                    for row in m:
                        row[k], row[r] = row[r], row[k]
                    swapped = True
                    break
            if not swapped:
                for r in range(k + 1, n):
                    if m[k][r] != 0:
                        add_row_col(k, r, Fraction(1))
                        break
                else:
                    continue  # zero row: contributes nothing
        piv = m[k][k]
        if piv > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if m[i][k] != 0:
                add_row_col(i, k, -m[i][k] / piv)
    return pos, neg
