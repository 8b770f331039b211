"""Brute-force engines for positive primitive isotropic classes.

Everything here is search, not formula: these routines certify the closed
forms in `fundamental` and `components` by exhaustion.

A positive isotropic class F is searched through its pairing tuple
m_i = F.E_i against the fixed sequence.  Writing t = F.D, pairing with
3D = E_1 + ... + E_10 gives sum(m) = 3t, and expanding F in the dual frame
gives the exact identities

    F^2 = (1/9) sum(m)^2 - sum(m^2)        (so isotropy == sum(m^2) = t^2),
    F   = sum_i (m_10 - m_i) E_i  (i <= 9)  +  (t - 3 m_10) D.

Nonnegativity of every m_i is not an assumption: two nonzero classes in the
closure of the same positive cone of a signature-(1, 9) form pair
nonnegatively, with zero only for proportional classes.  An exact bound on
t given F.L <= cap comes from the reverse Cauchy-Schwarz inequality in the
orthogonal complement of D:

    F.L >= (t/10) (d - sqrt(d^2 - 10 q)),   d = L.D,  q = L^2 > 0,

so admissible layers satisfy q t^2 - 2 cap d t + 10 cap^2 <= 0 or
t d <= 10 cap.  The layer-by-layer search is therefore complete; the test
suite re-certifies completeness by re-running with extra layers and by the
naive coordinate-box search `box_isotropics` (the oracle's oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from operator import mul
from typing import Sequence

import numpy as np

from .lattice import (
    NumClass,
    generator_e,
    gram_matrix,
    is_primitive,
    linear_form,
    pair,
    require_big,
)

__all__ = [
    "PhiVector",
    "IsotropicSequence",
    "order_key",
    "enumerate_isotropics",
    "box_isotropics",
    "eight_lowest",
    "phi_vector_oracle",
]


def order_key(t: Sequence[int]) -> tuple:
    """Sort key for the order on 10-tuples: total first, then the first
    differing entry among positions 1..9 (the tenth never decides)."""
    return (sum(t), tuple(t[:9]))


@dataclass(frozen=True)
class PhiVector:
    """The minimal intersection profile of a polarization with an isotropic
    10-sequence.  Validates the arithmetic every realizable profile obeys:
    positive and sorted, total divisible by 3, and the first seven entries
    dominating twice the last three."""

    phis: tuple[int, ...]

    def __post_init__(self):
        p = self.phis
        if len(p) != 10 or not all(isinstance(v, int) for v in p):
            raise ValueError("a phi-vector has ten integer entries")
        if p[0] < 1:
            raise ValueError("phi-vector entries must be positive")
        if any(p[i] > p[i + 1] for i in range(9)):
            raise ValueError("phi-vector entries must be nondecreasing")
        if sum(p) % 3:
            raise ValueError("phi-vector total must be divisible by 3")
        if sum(p[:7]) < 2 * (p[7] + p[8] + p[9]):
            raise ValueError(
                "phi-vector fails the head/tail inequality "
                "phi_1+...+phi_7 >= 2(phi_8+phi_9+phi_10)"
            )

    def __iter__(self):
        return iter(self.phis)

    def __getitem__(self, i):
        return self.phis[i]

    def __len__(self):
        return 10

    def total(self) -> int:
        return sum(self.phis)

    def all_even(self) -> bool:
        return all(v % 2 == 0 for v in self.phis)

    def self_intersection(self) -> int:
        s = self.total()
        return s * s // 9 - sum(v * v for v in self.phis)

    def genus(self) -> int:
        return self.self_intersection() // 2 + 1


@dataclass(frozen=True)
class IsotropicSequence:
    """Ten pairwise-transverse half-pencil classes: isotropic, primitive,
    positive, any two pairing to 1."""

    members: tuple[NumClass, ...]

    def __post_init__(self):
        """Member by member: isotropic, primitive, positive; then every
        pair.  Each member's linear form is computed once, so every check
        is a dot product (its D-entry is the member's pairing with D)."""
        ms = self.members
        if len(ms) != 10:
            raise ValueError("an isotropic sequence has ten members")
        forms = [linear_form(f) for f in ms]
        for f, lf in zip(ms, forms):
            if sum(map(mul, f.coords, lf)) != 0:
                raise ValueError("sequence member is not isotropic")
            g = gcd(*f.coords)
            if g == 0:
                raise ValueError("the zero class is neither primitive nor imprimitive")
            if g != 1 or lf[9] <= 0:
                raise ValueError("sequence member is not positive primitive")
        for i in range(9):
            lf = forms[i]
            for f in ms[i + 1 :]:
                if sum(map(mul, lf, f.coords)) != 1:
                    raise ValueError("sequence members must pairwise pair to 1")


def _from_pairing(m: Sequence[int], t: int) -> NumClass:
    m10 = m[9]
    return NumClass._trusted(tuple(m10 - m[i] for i in range(9)) + (t - 3 * m10,))


def _t_limit(cap: int, d: int, q: int) -> int:
    """Largest t with a possible solution of F.L <= cap (reverse
    Cauchy-Schwarz bound); exact integer arithmetic."""
    if cap <= 0:
        return 0

    def ok(t: int) -> bool:
        return t * d <= 10 * cap or q * t * t - 2 * cap * d * t + 10 * cap * cap <= 0

    disc = d * d - 10 * q
    if disc < 0:
        raise ArithmeticError("pairing with D violates the cone inequality")
    tm = cap * (d + isqrt(disc)) // q
    while ok(tm + 1):
        tm += 1
    while tm > 0 and not ok(tm):
        tm -= 1
    return tm


def _layer_solutions(t: int, weights: list[int], kappa: int, cap: int) -> list[tuple[int, tuple[int, ...]]]:
    """All m >= 0 with sum(m) = 3t, sum(m^2) = t^2 and
    kappa + sum(w_i m_i) <= cap, as (value, m) pairs.

    `weights` must be sorted nonincreasing so the budget prune is sharp;
    the caller un-permutes.
    """
    out: list[tuple[int, tuple[int, ...]]] = []
    sufneg = [0] * 11
    for i in range(9, -1, -1):
        sufneg[i] = sufneg[i + 1] + min(0, weights[i])
    m = [0] * 10

    def rec(pos: int, run: int, run2: int, used: int) -> None:
        if pos == 10:
            if run == 0 and run2 == 0 and used <= cap:
                out.append((used, tuple(m)))
            return
        k = 10 - pos
        km1 = k - 1
        disc = km1 * (k * run2 - run * run)
        if disc < 0:
            return
        rt = isqrt(disc)
        lo = max(0, (run - rt + k - 1) // k - 1)
        hi = min(run, isqrt(run2), (run + rt) // k + 1)
        w = weights[pos]
        sn = sufneg[pos + 1]
        for v in range(lo, hi + 1):
            rv = run - v
            r2v = run2 - v * v
            if r2v < 0:
                break
            if rv * rv > km1 * r2v:  # no balanced completion
                continue
            if r2v > rv * rv:  # no concentrated completion
                continue
            u = used + w * v
            if u + (sn * isqrt(r2v) if sn else 0) > cap:
                if sn == 0 and w > 0:
                    break
                continue
            m[pos] = v
            rec(pos + 1, rv, r2v, u)
        m[pos] = 0

    rec(0, 3 * t, t * t, kappa)
    return out


def _enumerate_with_values(L: NumClass, cap: int, extra_layers: int = 0) -> list[tuple[int, NumClass]]:
    d, q = require_big(L)
    y = L.coords
    raw = [y[i] for i in range(9)] + [0]
    order = sorted(range(10), key=lambda i: -raw[i])
    weights = [raw[i] for i in order]
    found: list[tuple[int, NumClass]] = []
    # t = F.D is at least 3: sum(m) = 3t and sum(m^2) = t^2 force t^2 >= 3t
    for t in range(3, _t_limit(cap, d, q) + extra_layers + 1):
        kappa = t * y[9]
        for value, m_ord in _layer_solutions(t, weights, kappa, cap):
            m = [0] * 10
            for slot, v in zip(order, m_ord):
                m[slot] = v
            f = _from_pairing(m, t)
            if is_primitive(f):
                found.append((value, f))
    found.sort(key=lambda pf: (pf[0], pf[1].coords))
    return found


def enumerate_isotropics(L: NumClass, cap: int, extra_layers: int = 0) -> list[NumClass]:
    """All positive primitive isotropic F with F.L <= cap, sorted by the
    value F.L and then by coordinates.

    A cap below phi(L) yields an empty list.  `extra_layers` widens the
    proven search bound; the result must not change, and the verification
    suite checks exactly that.
    """
    return [f for _, f in _enumerate_with_values(L, cap, extra_layers)]


def box_isotropics(L: NumClass, cap: int, box: int = 2) -> list[NumClass]:
    """Naive reference search: every positive primitive isotropic class
    with coordinates in [-box, box] and F.L <= cap, sorted by the value
    F.L and then by coordinates.  Independent of the pairing-tuple
    machinery; used to cross-check it.

    With c_1..c_9 the E-coordinates and x the D-coordinate,
    F^2 = s^2 - q + 6 s x + 10 x^2 for s = sum(c_i) and q = sum(c_i^2),
    so the first nine coordinates leave a quadratic in x with at most two
    roots.  One pass over x in [-box, box] tabulates the in-box roots of
    every (s, q) in two tables: the smaller root in the first, the larger
    one, if both lie in the box, in the second, and box + 1 where there is
    no such root.  The scan reads x off the tables instead of trying each
    value, so its cost grows like (2 box + 1)^9; keep box <= 3.
    """
    if not isinstance(box, int) or box < 0:
        raise ValueError(f"box must be a nonnegative integer, got {box!r}")
    require_big(L)
    y = np.array(L.coords, dtype=np.int64)
    y10 = int(y[9])
    sy = int(y[:9].sum())

    # root tables, flat, indexed by (s + 9 box) * n_q + q
    no_root = box + 1
    n_q = 9 * box * box + 1
    s_grid = np.arange(-9 * box, 9 * box + 1, dtype=np.int64)[:, None]
    q_grid = np.arange(n_q, dtype=np.int64)[None, :]
    lower = np.full((s_grid.shape[0], n_q), no_root, dtype=np.int64)
    upper = lower.copy()
    for x in range(-box, box + 1):
        root = s_grid * s_grid - q_grid + 6 * x * s_grid + 10 * x * x == 0
        first = root & (lower == no_root)
        upper[root & ~first] = x
        lower[first] = x
    tables = (lower.ravel(), upper.ravel())

    # coordinates 3..9 vectorised over the C-order flat index of their
    # block, coordinates 1 and 2 looped over; a row's coordinates are
    # unravelled from its index only once its root is known
    shape = (2 * box + 1,) * 7
    vals = np.arange(-box, box + 1, dtype=np.int64)
    s7 = q7 = np.zeros((), dtype=np.int64)
    for _ in shape:
        s7, q7 = np.add.outer(s7, vals), np.add.outer(q7, vals * vals)
    s7 = s7.ravel()
    key7 = (s7 + 9 * box) * n_q + q7.ravel()
    del q7
    hits: list[tuple[int, tuple[int, ...]]] = []
    for a in range(-box, box + 1):
        for b in range(-box, box + 1):
            key = key7 + ((a + b) * n_q + a * a + b * b)
            for table in tables:
                xs = table[key]
                sel = np.flatnonzero(xs != no_root)
                x, s9 = xs[sel], s7[sel] + (a + b)
                positive = 3 * s9 + 10 * x > 0
                sel, x, s9 = sel[positive], x[positive], s9[positive]
                if sel.size == 0:
                    continue
                full = np.empty((sel.size, 10), dtype=np.int64)
                full[:, 0], full[:, 1], full[:, 9] = a, b, x
                full[:, 2:9] = np.column_stack(np.unravel_index(sel, shape)) - box
                values = s9 * sy - full[:, :9] @ y[:9] + 3 * (x * sy + y10 * s9) + 10 * x * y10
                keep = values <= cap
                full, values = full[keep], values[keep]
                prim = np.gcd.reduce(np.abs(full), axis=1) == 1
                hits += zip(values[prim].tolist(), map(tuple, full[prim].tolist()))
    hits.sort()
    return [NumClass(coords) for _, coords in hits]


def eight_lowest(L: NumClass) -> tuple[int, ...]:
    """The eight smallest values F.L over distinct positive primitive
    isotropic classes."""
    require_big(L)
    lam = sorted(pair(L, generator_e(i)) for i in range(1, 11))
    found = _enumerate_with_values(L, lam[7])
    if len(found) < 8:
        raise AssertionError("search missed part of the standard sequence")
    return tuple(v for v, _ in found[:8])


def _best_sequences(
    pool: list[tuple[int, NumClass]],
    seed_key: tuple,
    max_sets: int,
) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """Smallest value tuple over 10-member pairwise-1 subsets of the pool,
    with the index sets attaining it (at most max_sets of them; the tuple
    itself is always exact).  The pool must be sorted by (value, coords)."""
    n = len(pool)
    vals = [v for v, _ in pool]
    classes = [f for _, f in pool]
    coords = np.array([f.coords for f in classes], dtype=np.int64)
    g = np.array(gram_matrix(), dtype=np.int64)
    ones = (coords @ g @ coords.T) == 1
    # bitmasks need arbitrary precision: shift with Python ints, never int64
    adj = [sum(1 << int(j) for j in np.nonzero(ones[i])[0]) for i in range(n)]

    best_key = seed_key
    best_tuple: tuple[int, ...] | None = None
    best_sets: list[tuple[int, ...]] = []

    def rec(cand: int, chosen: list[int], chosen_vals: list[int]) -> None:
        nonlocal best_key, best_tuple, best_sets
        k = len(chosen)
        if k == 10:
            tup = tuple(chosen_vals)
            key = order_key(tup)
            if key < best_key:
                best_key, best_tuple, best_sets = key, tup, [tuple(chosen)]
            elif key == best_key and len(best_sets) < max_sets:
                if best_tuple is None:
                    best_tuple = tup
                best_sets.append(tuple(chosen))
            return
        need = 10 - k
        # optimistic completion: the `need` cheapest remaining candidates;
        # any real completion dominates it entrywise, so its key is a bound
        opt = list(chosen_vals)
        b = cand
        while b and len(opt) < 10:
            j = (b & -b).bit_length() - 1
            opt.append(vals[j])
            b &= b - 1
        if len(opt) < 10:
            return
        opt_key = order_key(opt)
        if opt_key > best_key:
            return
        if opt_key == best_key and len(best_sets) >= max_sets:
            return
        b = cand
        while b:
            j = (b & -b).bit_length() - 1
            b &= b - 1
            chosen.append(j)
            chosen_vals.append(vals[j])
            rec(cand & adj[j] & ~((1 << (j + 1)) - 1), chosen, chosen_vals)
            chosen.pop()
            chosen_vals.pop()

    rec((1 << n) - 1, [], [])
    if best_tuple is None:
        raise AssertionError("no isotropic 10-sequence found in the certified pool")
    return best_tuple, best_sets


def phi_vector_oracle(
    L: NumClass, max_sequences: int = 1000
) -> tuple[PhiVector, tuple[IsotropicSequence, ...]]:
    """Minimal value tuple over all isotropic 10-sequences, plus computing
    sequences attaining it.

    Self-certifying pool growth: any sequence whose tuple could compete has
    all members below C* = sum(best) - sum(eight lowest) - (eighth lowest),
    because nine distinct members account for at least the eight lowest
    values plus the eighth again.  The first pool is searched at the
    largest standard pairing, so it holds the ten standard members, and
    its first eight values are the eight lowest.  The pool cap is grown
    until it covers its own C*, and each cap is searched once.

    Two rounds always suffice.  Round 1's pool fixes the eight lowest
    values and so the slack subtracted from sum(best).  The best key
    orders by sum first, so round 2, on a larger pool, finds a sum at most
    round 1's, and its C* is at most the cap it searched.

    The minimal tuple is always exact.  Degenerate classes can admit
    astronomically many computing sequences (millions already at genus 2),
    so collection stops at max_sequences; a result strictly shorter than
    the limit is the complete set, in lexicographic member-coordinate
    order.
    """
    if max_sequences < 1:
        raise ValueError("max_sequences must be at least 1")
    require_big(L)
    lam = [pair(L, generator_e(i)) for i in range(1, 11)]
    seed = order_key(sorted(lam))
    cap = max(lam)
    for _ in range(2):
        pool = _enumerate_with_values(L, cap)
        if len(pool) < 10:
            raise AssertionError("search missed part of the standard sequence")
        slack = sum(v for v, _ in pool[:8]) + pool[7][0]
        tup, sets = _best_sequences(pool, seed, max_sequences)
        needed = sum(tup) - slack
        if cap >= needed:
            break
        cap = needed
    else:
        raise AssertionError("sequence search cap failed to stabilize")
    sequences = []
    for idxs in sets:
        members = sorted((pool[i] for i in idxs), key=lambda pf: (pf[0], pf[1].coords))
        sequences.append(IsotropicSequence(tuple(f for _, f in members)))
    sequences.sort(key=lambda s: tuple(f.coords for f in s.members))
    return PhiVector(tup), tuple(sequences)
