"""Tests of the benchmark itself: inputs, checks, deadline and tracing.

    python3 -m pytest bench/tests -q
"""

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import arith
import harness
import workloads as W
from spans import Tracer

import enriques.cli
from enriques.lattice import NumClass, pair

BENCH = Path(__file__).resolve().parent.parent
ALL = [cls() for cls in W.WORKLOADS.values()]


@pytest.mark.parametrize("w", ALL, ids=lambda w: w.name)
def test_same_seed_same_inputs(w):
    a = w.make_ops(7, 1)
    assert a == w.make_ops(7, 1)
    assert a != w.make_ops(8, 1)
    # a longer run only appends blocks
    assert w.make_ops(7, 2)[: len(a)] == a


def test_reference_pairing_matches_the_package():
    rng = random.Random(3)
    for _ in range(200):
        x = tuple(rng.randint(-5, 5) for _ in range(10))
        y = tuple(rng.randint(-5, 5) for _ in range(10))
        assert arith.pair(x, y) == pair(NumClass(x), NumClass(y))
    for root in arith.ROOTS:
        assert arith.pair(root, root) == -2


def test_every_phivector_run_holds_the_roadmap_class_and_one_far_class():
    assert W.apply_word(arith.class_of_coefficients(*W.ROADMAP_COEFFS), W.ROADMAP_WORD) == W.ROADMAP_CLASS
    w = W.PhivectorClasses()
    for seed in (1, 2):
        for blocks in (1, 3):
            classes = [tuple(op.expect["class"]) for op in w.make_ops(seed, blocks)]
            assert classes.count(W.ROADMAP_CLASS) == 1
            ratios = [W.distance_ratio(x) for x in classes]
            assert sum(r >= w.FAR for r in ratios) == 2
            assert sum(r < w.NEAR[-1][1] for r in ratios) == blocks * sum(k for _, _, k in w.NEAR)


def _first_cheap(ops, limit):
    return next(op for op in ops if W.distance_ratio(op.expect["class"]) < limit)


def test_correct_outputs_pass():
    w = W.PhivectorClasses()
    ops = w.warmup() + [_first_cheap(w.make_ops(1, 1), 14)]
    assert [r.status for r in harness.run_ops(w, ops, 10)] == ["ok", "ok"]


@pytest.mark.parametrize("key", ["phi", "genus", "coefficients", "class"])
def test_corrupted_phivector_expectation_fails(key):
    w = W.PhivectorClasses()
    op = w.warmup()[0]
    if key == "coefficients":
        op.expect[key] = dict(op.expect[key], a0=op.expect[key]["a0"] + 1)
    elif key == "genus":
        op.expect[key] += 1
    else:
        op.expect[key] = [op.expect[key][0] + 1] + op.expect[key][1:]
    (r,) = harness.run_ops(w, [op], 10)
    assert r.status == "wrong" and key in r.detail


def test_corrupted_component_digest_fails():
    w = W.ComponentsLarge(digests={"30": "0" * 64})
    (r,) = harness.run_ops(w, w.warmup(), 10)
    assert r.status == "wrong" and "digest" in r.detail
    (r,) = harness.run_ops(W.ComponentsLarge(digests={}), w.warmup(), 10)
    assert r.status == "ok"


def test_component_row_checks_catch_a_changed_row():
    w = W.ComponentsLarge(digests={})
    op = w.warmup()[0]
    out = json.loads(harness.execute(op))
    row = out["components"][3]
    row["phi"] = sorted(row["phi"][:-1] + [row["phi"][-1] + 3])
    assert w.check(op, json.dumps(out))
    out = json.loads(harness.execute(op))
    out["components"][1], out["components"][2] = out["components"][2], out["components"][1]
    assert "order" in w.check(op, json.dumps(out))


def test_corrupted_certify_expectations_fail():
    w = W.Certify()
    verify_op, rewrite_op = w.warmup()
    assert w.check(rewrite_op, harness.execute(rewrite_op)) is None
    other = W.Op("rewrite", ((2,) * 10, 1, 0))
    assert w.check(other, harness.execute(rewrite_op))
    verify_op.expect["suite"] = "bounds"
    (r,) = harness.run_ops(w, [verify_op], 10)
    assert r.status == "wrong"


def test_deadline_overrun_counts_as_failed():
    w = W.PhivectorClasses()
    roadmap = next(op for op in w.make_ops(1, 1) if tuple(op.expect["class"]) == W.ROADMAP_CLASS)
    (r,) = harness.run_ops(w, [roadmap], 0.3)
    assert r.status == "timeout"
    assert 0.3 <= r.seconds < 1.0


def test_percentile_and_samples_beyond():
    xs = list(range(1, 101))
    assert harness.percentile(xs, 50) == 50
    assert harness.percentile(xs, 90) == 90
    assert harness.samples_beyond(100, 90) == 10
    assert harness.samples_beyond(40, 75) == 10


def _small_ops():
    ph = W.PhivectorClasses()
    return [
        W.ComponentsLarge(digests={}).warmup()[0],
        W.Op("cli", ("components", "--genus", "80", "--format", "json"), {"genus": 80}),
        *ph.warmup(),
        _first_cheap(ph.make_ops(2, 1), 16),
        *W.Certify().warmup(),
    ]


class _AnyWorkload:
    """Dispatches each check to the workload that made the operation."""

    def check(self, op, output):
        if op.kind == "rewrite" or op.args[0] == "verify":
            return W.Certify().check(op, output)
        if op.args[0] == "components":
            return W.ComponentsLarge(digests={}).check(op, output)
        return W.PhivectorClasses().check(op, output)


def test_traced_self_times_sum_to_wall_time():
    ops = _small_ops()
    plain = harness.run_ops(_AnyWorkload(), ops, 30)
    tracer = Tracer()
    tracer.install()
    try:
        traced = harness.run_ops(_AnyWorkload(), ops, 30, tracer)
    finally:
        tracer.uninstall()
    assert all(r.status == "ok" for r in plain + traced)
    wall_plain = sum(r.seconds for r in plain)
    wall_traced = sum(r.seconds for r in traced)
    selfs = tracer.self_times()
    assert all(s >= 0 for s in selfs.values())
    assert all(selfs[layer] > 0 for layer in ("lattice", "oracle", "fundamental", "components", "verify", "cli"))
    total = sum(selfs.values())
    assert total <= wall_traced
    assert wall_traced - total <= max(wall_traced - wall_plain, 0) + 0.002 * len(ops)
    assert tracer.counts["lattice.numclass_new"] > 0 and tracer.counts["oracle.phivector_new"] > 0
    calls, seconds = tracer.function_stats("fundamental.rewrite_to_fundamental")
    assert calls == 1 and seconds > 0


def test_tracer_uninstall_restores_the_package():
    original = enriques.cli.main
    post_init = NumClass.__post_init__
    tracer = Tracer()
    tracer.install()
    assert enriques.cli.main is not original
    tracer.uninstall()
    assert enriques.cli.main is original
    assert NumClass.__post_init__ is post_init


def test_timeout_under_tracing_leaves_consistent_spans():
    w = W.PhivectorClasses()
    roadmap = next(op for op in w.make_ops(1, 1) if tuple(op.expect["class"]) == W.ROADMAP_CLASS)
    tracer = Tracer()
    tracer.install()
    try:
        results = harness.run_ops(w, [roadmap, *w.warmup()], 0.3, tracer)
    finally:
        tracer.uninstall()
    assert [r.status for r in results] == ["timeout", "ok"]
    n = len(tracer.span_start)
    assert n == len(tracer.span_end) == len(tracer.span_parent) == len(tracer.span_name)
    assert not any(math.isnan(t) for t in tracer.span_end)
    assert tracer.stack == [-1]


COMMAND = [sys.executable, "bench/run.py", "--deadline", "certify=30", "--tail", "certify=50"]


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_one_result_line(trace, section):
    proc = subprocess.run(
        COMMAND + ["--workload", "certify", "--seed", "3", "--seconds", "1", "--trace", trace],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[section]
    }


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        COMMAND + ["--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
