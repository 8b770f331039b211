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
from math import isqrt
from typing import Sequence

import numpy as np

from .lattice import (
    D,
    NumClass,
    generator_e,
    gram_matrix,
    is_positive,
    is_primitive,
    pair,
    self_int,
)

__all__ = [
    "PhiVector",
    "IsotropicSequence",
    "order_key",
    "enumerate_isotropics",
    "box_isotropics",
    "phi",
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
        ms = self.members
        if len(ms) != 10:
            raise ValueError("an isotropic sequence has ten members")
        for f in ms:
            if self_int(f) != 0:
                raise ValueError("sequence member is not isotropic")
            if not is_primitive(f) or not is_positive(f):
                raise ValueError("sequence member is not positive primitive")
        for i in range(10):
            for j in range(i + 1, 10):
                if pair(ms[i], ms[j]) != 1:
                    raise ValueError("sequence members must pairwise pair to 1")

    def values_against(self, cls: NumClass) -> tuple[int, ...]:
        return tuple(sorted(pair(f, cls) for f in self.members))


def _from_pairing(m: Sequence[int], t: int) -> NumClass:
    m10 = m[9]
    return NumClass(tuple(m10 - m[i] for i in range(9)) + (t - 3 * m10,))


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


def _require_big(L: NumClass) -> tuple[int, int]:
    if L.is_zero():
        raise ValueError("zero class")
    q = self_int(L)
    if q <= 0:
        raise ValueError("class is not big: self-intersection must be positive")
    if not is_positive(L):
        raise ValueError("class is not positive")
    return pair(L, D), q


def _enumerate_with_values(L: NumClass, cap: int, extra_layers: int = 0) -> list[tuple[int, NumClass]]:
    d, q = _require_big(L)
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
    """Naive reference search: scan every coordinate vector with entries in
    [-box, box].  Independent of the pairing-tuple machinery; used to
    cross-check it.  Cost grows like (2 box + 1)^10, so keep box <= 3.
    """
    _require_big(L)
    y = np.array(L.coords, dtype=np.int64)
    sy = int(y[:9].sum())
    vals = np.arange(-box, box + 1, dtype=np.int64)
    inner = np.stack(np.meshgrid(*([vals] * 7), indexing="ij"), axis=-1).reshape(-1, 7)
    s6 = inner[:, :6].sum(axis=1)
    q6 = (inner[:, :6] ** 2).sum(axis=1)
    xd = inner[:, 6]
    hits: list[tuple[int, tuple[int, ...]]] = []
    for a in vals:
        for b in vals:
            for c in vals:
                s9 = int(a + b + c) + s6
                q9 = int(a * a + b * b + c * c) + q6
                sq = s9 * s9 - q9 + 6 * xd * s9 + 10 * xd * xd
                mask = sq == 0
                if not mask.any():
                    continue
                rows = inner[mask]
                s9m = s9[mask]
                xdm = xd[mask]
                positive = 3 * s9m + 10 * xdm > 0
                rows = rows[positive]
                s9m = s9m[positive]
                xdm = xdm[positive]
                if rows.shape[0] == 0:
                    continue
                head = np.array([a, b, c], dtype=np.int64)
                full = np.hstack([np.broadcast_to(head, (rows.shape[0], 3)), rows])
                g = np.gcd.reduce(np.abs(full), axis=1)
                prim = g == 1
                full = full[prim]
                s9m = s9m[prim]
                xdm = xdm[prim]
                if full.shape[0] == 0:
                    continue
                dot9 = full[:, :9] @ y[:9]
                values = s9m * sy - dot9 + 3 * (xdm * sy + int(y[9]) * s9m) + 10 * xdm * int(y[9])
                keep = values <= cap
                for row, v in zip(full[keep], values[keep]):
                    hits.append((int(v), tuple(int(x) for x in row)))
    hits.sort()
    return [NumClass(coords) for _, coords in hits]


def phi(L: NumClass) -> int:
    """min F.L over positive isotropic F, by exhaustion below the best
    standard-sequence value (always attained, so one pass suffices)."""
    _require_big(L)
    cap = min(pair(L, generator_e(i)) for i in range(1, 11))
    found = _enumerate_with_values(L, cap)
    if not found:
        raise AssertionError("search missed the standard sequence")
    return found[0][0]


def eight_lowest(L: NumClass) -> tuple[int, ...]:
    """The eight smallest values F.L over distinct positive primitive
    isotropic classes."""
    _require_big(L)
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
            key = (sum(tup), tup[:9])
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
        opt_key = (sum(opt), tuple(opt[:9]))
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
    values plus the eighth again.  The pool cap is grown until it covers
    its own C*.

    The minimal tuple is always exact.  Degenerate classes can admit
    astronomically many computing sequences (millions already at genus 2),
    so collection stops at max_sequences; a result strictly shorter than
    the limit is the complete set, in lexicographic member-coordinate
    order.
    """
    if max_sequences < 1:
        raise ValueError("max_sequences must be at least 1")
    _require_big(L)
    lows = eight_lowest(L)
    slack = sum(lows) + lows[-1]
    lam = [pair(L, generator_e(i)) for i in range(1, 11)]
    seed = (sum(lam), tuple(sorted(lam)[:9]))
    cap = max(lam)
    for _ in range(12):
        pool = _enumerate_with_values(L, cap)
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
