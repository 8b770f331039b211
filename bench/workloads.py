"""The three workloads: how each one makes its operations from a seed and
how each operation's output is checked.

A run is a number of blocks. Block b of workload w under seed s draws its
inputs from `random.Random(f"{w}:{s}:{b}")`, so the same seed gives the same
inputs and a longer run only appends blocks. Every check here uses the
reference arithmetic in `arith`, never the code path being timed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import arith
from enriques.fundamental import class_from_presentation

DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"


@dataclass
class Op:
    """One operation: CLI arguments for `enriques.cli.main`, or the
    arguments of one `rewrite_to_fundamental` call."""

    kind: str  # "cli" or "rewrite"
    args: tuple
    expect: dict = field(default_factory=dict)


class Workload:
    name = ""
    block_seconds = 1.0  # nominal wall time of one block, measured when it was set

    def make_ops(self, seed: int, blocks: int) -> list[Op]:
        ops: list[Op] = []
        for b in range(blocks):
            ops.extend(self.block(random.Random(f"{self.name}:{seed}:{b}")))
        return ops

    def block(self, rng: random.Random) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> list[Op]:
        """Cheap operations run before timing, so lazy set-up is done."""
        raise NotImplementedError

    def check(self, op: Op, output) -> str | None:
        """None when the output is right, else what is wrong with it."""
        raise NotImplementedError


def _load_json(text: str):
    try:
        return json.loads(text), None
    except ValueError as exc:
        return None, f"output is not JSON: {exc}"


# ---------------------------------------------------------------------------
# components-large


class ComponentsLarge(Workload):
    """`components --genus G --format json` for ten genera per block, one
    near each of ten log-spaced points of [250, 1000): the seed moves each
    genus by up to 1.5% either way, so the work per block stays steady."""

    name = "components-large"
    LOW, HIGH, STRATA, JITTER = 250, 1000, 10, 0.015
    block_seconds = 7.5

    def __init__(self, digests: dict[str, str] | None = None):
        if digests is None:
            digests = json.loads(DIGESTS_FILE.read_text()) if DIGESTS_FILE.exists() else {}
        self.digests = digests

    def block(self, rng):
        ratio = (self.HIGH / self.LOW) ** (1 / self.STRATA)
        ops = []
        for k in range(self.STRATA):
            center = self.LOW * ratio ** (k + 0.5)
            g = rng.randint(round(center * (1 - self.JITTER)), round(center * (1 + self.JITTER)))
            ops.append(
                Op("cli", ("components", "--genus", str(g), "--format", "json"), {"genus": g})
            )
        return ops

    def warmup(self):
        return [Op("cli", ("components", "--genus", "30", "--format", "json"), {"genus": 30})]

    def check(self, op, output):
        g = op.expect["genus"]
        want = self.digests.get(str(g))
        if want is not None and hashlib.sha256(output.encode()).hexdigest() != want:
            return f"genus {g}: output bytes differ from the recorded digest"
        data, err = _load_json(output)
        if err:
            return err
        rows = data.get("components")
        if data.get("genus") != g or not isinstance(rows, list) or data.get("count") != len(rows):
            return "header fields do not match the rows"
        names = set()
        prev = None
        for row in rows:
            err = self._row_error(g, row)
            if err:
                return f"genus {g}, row {row.get('name')!r}: {err}"
            p = row["phi"]
            key = (sum(p), tuple(p[:9]), row["eps"])
            if prev is not None and key <= prev:
                return f"genus {g}: rows out of order at {row['name']}"
            prev = key
            names.add(row["name"])
        if len(names) != len(rows):
            return f"genus {g}: repeated component names"
        return None

    @staticmethod
    def _row_error(g, row):
        p = row.get("phi")
        err = arith.profile_error(p if isinstance(p, list) else [])
        if err:
            return err
        if row.get("genus") != g or arith.genus_of_profile(p) != g:
            return "genus identity fails"
        c = row.get("coefficients") or {}
        a0, head, a9, a10 = c.get("a0"), tuple(c.get("head") or ()), c.get("a9"), c.get("a10")
        if not all(isinstance(v, int) for v in (a0, *head, a9, a10)):
            return "coefficients are not integers"
        if not arith.is_fundamental(a0, head, a9, a10):
            return "coefficients are not fundamental"
        if arith.profile_of_coefficients(a0, head, a9, a10) != tuple(p):
            return "coefficients do not map to the profile"
        if arith.quadratic_value(a0, head, a9, a10) != g - 1:
            return "coefficients have the wrong square"
        even = all(v % 2 == 0 for v in p)
        eps = row.get("eps")
        if eps not in (0, 1) or (eps == 1 and not even) or c.get("eps") != eps:
            return "eps rule fails"
        if row.get("two_divisible") is not even:
            return "two_divisible does not match the profile"
        if row.get("name") != arith.component_name(g, p, eps):
            return "name does not match the profile"
        return None


# ---------------------------------------------------------------------------
# phivector-classes

# The ROADMAP class 2,0,1,0,2,2,-2,1,2,-1 (genus 3): this word in the simple
# roots (indices into arith.ROOTS) carries the class of coefficients
# 1;0,0,0,0,0,0,0;1,0 onto it, so its phi-vector is (2,...,2,3).
ROADMAP_CLASS = (2, 0, 1, 0, 2, 2, -2, 1, 2, -1)
ROADMAP_COEFFS = (1, (0,) * 7, 1, 0)
ROADMAP_WORD = (
    9, 8, 7, 6, 5, 4, 3, 2, 1, 1, 2, 3, 4, 5, 6, 7, 0, 3, 4, 5, 6, 2, 3, 4,
    5, 0, 3, 4, 2, 3, 1, 2, 0, 3, 4, 5, 6, 7, 8, 9, 7, 8, 0, 3, 4, 5, 6, 7,
    5, 6, 4, 5, 3, 4, 2, 3, 1, 2, 0, 3, 4, 5, 6, 2, 3, 2, 1,
)


def apply_word(x, word):
    for k in word:
        x = arith.reflect(x, arith.ROOTS[k])
    return x


def distance_ratio(x) -> float:
    """(L.d)^2 / L^2: 10 on the ray of d, larger the farther the class
    sits from the fundamental chamber. The search oracle's cost grows
    steeply with it."""
    return arith.pair(x, arith.D) ** 2 / arith.pair(x, x)


class PhivectorClasses(Workload):
    """`phivector --class=C --format json` on classes reflected away from a
    fundamental presentation. Each block holds a fixed number of classes
    from each near stratum of `distance_ratio`; each run also holds the
    ROADMAP class and one seeded far class, which hang with the current
    oracle."""

    name = "phivector-classes"
    # (low, high, classes per block): the cheap stratum holds the median,
    # the slowest one the tail percentile
    NEAR = (
        (0.0, 12.0, 60),
        (12.0, 14.0, 8),
        (14.0, 15.0, 10),
        (15.0, 16.0, 10),
        (16.0, 17.0, 12),
    )
    FAR = 30.0
    MAX_DEPTH = 20
    SCALES = (1, 1, 2, 2, 3, 4, 6, 9)
    block_seconds = 3.7  # 2.9 s of near classes, plus a share of the two hangs

    def _coefficients(self, rng):
        while True:
            m = rng.choice(self.SCALES)
            head = tuple(sorted((rng.randint(0, m) for _ in range(7)), reverse=True))
            a10 = rng.randint(0, m)
            a9 = rng.randint(a10, m + a10)
            a0 = rng.randint(a9, a9 + a10)
            if arith.quadratic_value(a0, head, a9, a10) >= 1:
                return a0, head, a9, a10

    def _op(self, coeffs, word):
        x = apply_word(arith.class_of_coefficients(*coeffs), word)
        a0, head, a9, a10 = coeffs
        return Op(
            "cli",
            ("phivector", "--class=" + ",".join(map(str, x)), "--format", "json"),
            {
                "class": list(x),
                "phi": list(arith.profile_of_coefficients(*coeffs)),
                "genus": arith.quadratic_value(*coeffs) + 1,
                "coefficients": {"a0": a0, "head": list(head), "a9": a9, "a10": a10, "eps": 0},
            },
        )

    def _draw(self, rng):
        coeffs = self._coefficients(rng)
        word = [rng.randrange(len(arith.ROOTS)) for _ in range(rng.randint(0, self.MAX_DEPTH))]
        return coeffs, word, distance_ratio(apply_word(arith.class_of_coefficients(*coeffs), word))

    def make_ops(self, seed, blocks):
        rng = random.Random(f"{self.name}:{seed}:far")
        while True:
            coeffs, word, r = self._draw(rng)
            if r >= self.FAR:
                break
        far = [self._op(ROADMAP_COEFFS, ROADMAP_WORD), self._op(coeffs, word)]
        ops = super().make_ops(seed, blocks)
        return far + ops

    def block(self, rng):
        quota = [k for _, _, k in self.NEAR]
        ops = []
        while any(quota):
            coeffs, word, r = self._draw(rng)
            for i, (lo, hi, _) in enumerate(self.NEAR):
                if lo <= r < hi and quota[i]:
                    quota[i] -= 1
                    ops.append(self._op(coeffs, word))
        rng.shuffle(ops)
        return ops

    def warmup(self):
        return [self._op((1, (0,) * 7, 1, 1), ())]  # the class d

    def check(self, op, output):
        data, err = _load_json(output)
        if err:
            return err
        want = op.expect
        for key in ("class", "phi", "genus", "coefficients"):
            if data.get(key) != want[key]:
                return f"{key}: expected {want[key]}, got {data.get(key)}"
        if data.get("eps") != 0:
            return "eps is not 0"
        if data.get("two_divisible") is not all(v % 2 == 0 for v in want["class"]):
            return "two_divisible is wrong"
        if data.get("component") != arith.component_name(want["genus"], want["phi"], 0):
            return "component name is wrong"
        return None


# ---------------------------------------------------------------------------
# certify


class Certify(Workload):
    """Each verify suite once with a raised --gmax, plus seeded
    `rewrite_to_fundamental` calls on nonnegative decompositions."""

    name = "certify"
    GMAX = {"lattice": 100, "roundtrip": 30, "paper-tables": 100, "dominating": 100, "bounds": 100}
    CHECKS = {"lattice": 8, "roundtrip": 7, "paper-tables": 6, "dominating": 9, "bounds": 3}
    REWRITES = 200
    MAX_COEFF = 9
    block_seconds = 3.3

    def block(self, rng):
        ops = [
            Op("cli", ("verify", "--suite", s, "--gmax", str(g), "--format", "json"), {"suite": s})
            for s, g in self.GMAX.items()
        ]
        while len(ops) < len(self.GMAX) + self.REWRITES:
            cs = tuple(rng.randint(0, self.MAX_COEFF) for _ in range(10))
            a0 = rng.randint(0, self.MAX_COEFF)
            if not any(cs) and not a0:
                continue
            ops.append(Op("rewrite", (cs, a0, rng.randint(0, 1))))
        rng.shuffle(ops)
        return ops

    def warmup(self):
        return [
            Op("cli", ("verify", "--suite", "lattice", "--gmax", "100", "--format", "json"), {"suite": "lattice"}),
            Op("rewrite", ((1,) * 10, 1, 0)),
        ]

    def check(self, op, output):
        if op.kind == "rewrite":
            return self._rewrite_error(op, output)
        data, err = _load_json(output)
        if err:
            return err
        s = op.expect["suite"]
        checks = data.get("checks") or []
        if data.get("suite") != s or data.get("gmax") != self.GMAX[s]:
            return "suite or gmax not echoed"
        if len(checks) != self.CHECKS[s]:
            return f"{s}: expected {self.CHECKS[s]} checks, got {len(checks)}"
        failed = [c.get("name") for c in checks if c.get("passed") is not True]
        if failed or data.get("passed") is not True:
            return f"{s}: checks failed: {failed}"
        return None

    @staticmethod
    def goal_class(cs, a0):
        pair_class = arith.combine((1, arith.D), (-1, arith.E[8]), (-1, arith.E[9]))
        return arith.combine(*zip(cs, arith.E), (a0, pair_class))

    def _rewrite_error(self, op, output):
        cs, a0_in, eps_in = op.args
        fc, seq = output
        goal = self.goal_class(cs, a0_in)
        a0, head, a9, a10 = fc.a0, tuple(fc.head), fc.a9, fc.a10
        if not arith.is_fundamental(a0, head, a9, a10):
            return "coefficients are not fundamental"
        even = all(v % 2 == 0 for v in (a0, *head, a9, a10))
        if fc.eps != (eps_in if even else 0):
            return "eps rule fails"
        members = [f.coords for f in seq.members]
        err = arith.isotropic_sequence_error(members)
        if err:
            return err
        if arith.class_on_sequence(a0, head, a9, a10, members) != goal:
            return "presentation does not rebuild the input class"
        if class_from_presentation(fc, seq).coords != goal:
            return "class_from_presentation does not rebuild the input class"
        if 2 * arith.quadratic_value(a0, head, a9, a10) != arith.pair(goal, goal):
            return "coefficients have the wrong square"
        return None


WORKLOADS = {w.name: w for w in (ComponentsLarge, PhivectorClasses, Certify)}
