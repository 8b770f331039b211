"""Reference arithmetic for checking outputs.

Everything here is written from the definitions, shares no code with the
`enriques` package, and runs outside the timed region. Classes are
ten-tuples of integers in the basis (e_1, ..., e_9, d) with e_i.e_j = 1 for
i != j, e_i^2 = 0, e_i.d = 3 and d^2 = 10.
"""

from __future__ import annotations

from typing import Sequence

RANK = 10
D = (0,) * 9 + (1,)
E = tuple(tuple(1 if k == i else 0 for k in range(RANK)) for i in range(9)) + (
    (-1,) * 9 + (3,),
)


def pair(x: Sequence[int], y: Sequence[int]) -> int:
    sx, sy = sum(x[:9]), sum(y[:9])
    dot = sum(a * b for a, b in zip(x[:9], y[:9]))
    return sx * sy - dot + 3 * (x[9] * sy + y[9] * sx) + 10 * x[9] * y[9]


def combine(*terms: tuple[int, Sequence[int]]) -> tuple[int, ...]:
    """The class sum(k * x) over (k, x) terms."""
    out = [0] * RANK
    for k, x in terms:
        for i in range(RANK):
            out[i] += k * x[i]
    return tuple(out)


# Simple roots of the Weyl group: alpha_0 = d - e_1 - e_2 - e_3 and
# alpha_i = e_i - e_{i+1}. Each has square -2, so x -> x + (x.a) a is an
# isometry fixing the positive cone.
ROOTS = (combine((1, D), (-1, E[0]), (-1, E[1]), (-1, E[2])),) + tuple(
    combine((1, E[i]), (-1, E[i + 1])) for i in range(9)
)


def reflect(x: Sequence[int], root: Sequence[int]) -> tuple[int, ...]:
    k = pair(x, root)
    return tuple(a + k * b for a, b in zip(x, root))


def quadratic_value(a0: int, head: Sequence[int], a9: int, a10: int) -> int:
    """Half the square of a_1 e_1 + ... + a_7 e_7 + a9 e_9 + a10 e_10
    + a0 (d - e_9 - e_10)."""
    x = class_of_coefficients(a0, head, a9, a10)
    return pair(x, x) // 2


def class_of_coefficients(a0: int, head: Sequence[int], a9: int, a10: int) -> tuple[int, ...]:
    pair_class = combine((1, D), (-1, E[8]), (-1, E[9]))
    terms = [(v, E[i]) for i, v in enumerate(head)]
    return combine(*terms, (a9, E[8]), (a10, E[9]), (a0, pair_class))


def is_fundamental(a0: int, head: Sequence[int], a9: int, a10: int) -> bool:
    vals = (a0, *head, a9, a10)
    return (
        len(head) == 7
        and min(vals) >= 0
        and all(head[i] >= head[i + 1] for i in range(6))
        and a9 + a10 >= a0 >= a9 >= a10
    )


def profile_of_coefficients(a0: int, head: Sequence[int], a9: int, a10: int) -> tuple[int, ...]:
    """Pairings of the presented class with its own ten sequence members
    and the eighth slot, sorted: a - a_i, a, a + a0 - a9, a + a0 - a10."""
    a = a0 + sum(head) + a9 + a10
    return tuple(a - v for v in head) + (a, a + a0 - a9, a + a0 - a10)


def profile_error(p: Sequence[int]) -> str | None:
    if len(p) != 10 or not all(isinstance(v, int) for v in p):
        return "profile is not ten integers"
    if p[0] < 1:
        return "profile entry below 1"
    if any(p[i] > p[i + 1] for i in range(9)):
        return "profile not sorted"
    if sum(p) % 3:
        return "profile total not divisible by 3"
    if sum(p[:7]) < 2 * (p[7] + p[8] + p[9]):
        return "profile breaks the head/tail inequality"
    return None


def genus_of_profile(p: Sequence[int]) -> int:
    s = sum(p)
    return (s * s // 9 - sum(v * v for v in p)) // 2 + 1


def component_name(g: int, p: Sequence[int], eps: int) -> str:
    body = ",".join(str(v) for v in p)
    if all(v % 2 == 0 for v in p):
        return f"E^{'+' if eps == 0 else '-'}_{{{g};{body}}}"
    return f"E_{{{g};{body}}}"


def isotropic_sequence_error(members: Sequence[Sequence[int]]) -> str | None:
    if len(members) != 10:
        return "sequence does not have ten members"
    for f in members:
        if pair(f, f) != 0:
            return "sequence member is not isotropic"
        if pair(f, D) <= 0:
            return "sequence member is not positive"
    for i in range(10):
        for j in range(i + 1, 10):
            if pair(members[i], members[j]) != 1:
                return "sequence members do not pair to 1"
    return None


def class_on_sequence(
    a0: int, head: Sequence[int], a9: int, a10: int, members: Sequence[Sequence[int]]
) -> tuple[int, ...]:
    """Evaluate a fundamental presentation on a concrete sequence: head on
    members 1..7, a9 and a10 on members 9 and 10, a0 on d' - s_9 - s_10
    where 3 d' is the sum of the members."""
    total = combine(*((1, f) for f in members))
    if any(v % 3 for v in total):
        raise ValueError("sequence total is not divisible by 3")
    d_seq = tuple(v // 3 for v in total)
    terms = [(v, members[i]) for i, v in enumerate(head)]
    return combine(
        *terms,
        (a9, members[8]),
        (a10, members[9]),
        (a0, d_seq),
        (-a0, members[8]),
        (-a0, members[9]),
    )
