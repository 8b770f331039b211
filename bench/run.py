"""Benchmark of the enriques CLI: one workload, one seed, one JSON line.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0 \\
        --deadline certify=30 --tail certify=99

Run from the root of a checkout; the package is imported from its `src`.
`--deadline W=S` and `--tail W=P` give each workload's per-operation
deadline in seconds and tail percentile (BENCHMARK.json holds both).
With `--trace 0` the last line of stdout carries the end-to-end metrics,
with `--trace 1` the per-layer ones; a summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

from calibration import reference_scale

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"
SETUP_RUNS = 7  # fresh interpreters per set-up measurement
MIN_BEYOND = 10  # samples a run keeps beyond its tail percentile
BUDGET_S = 120.0  # timed seconds per run, so that a run ends within 180 s

# one single-threaded process: keep numpy's BLAS from starting threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _per_workload(pairs: list[str], flag: str) -> dict[str, float]:
    out = {}
    for item in pairs:
        name, sep, value = item.partition("=")
        if not sep:
            raise SystemExit(f"{flag} takes WORKLOAD=VALUE, got {item!r}")
        out[name] = float(value)
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--deadline", action="append", default=[], metavar="W=SECONDS")
    p.add_argument("--tail", action="append", default=[], metavar="W=PERCENTILE")
    args = p.parse_args(argv)
    deadlines = _per_workload(args.deadline, "--deadline")
    tails = _per_workload(args.tail, "--tail")
    if args.workload not in deadlines or args.workload not in tails:
        p.error(f"--deadline and --tail must name {args.workload}")
    return args, deadlines[args.workload], tails[args.workload]


def _summarize(results) -> dict:
    bad = [r for r in results if r.status != "ok"]
    for r in bad:
        if r.status != "timeout":
            print(f"  {r.status}: {r.detail}", file=sys.stderr)
    return {
        "correct": not any(r.status in ("wrong", "error") for r in results),
        "attempted": len(results),
        "failed": len(bad),
    }


def end_to_end(workload, ops, deadline, tail) -> dict:
    import harness

    run_cal = []
    setup = statistics.median(s * reference_scale([c]) for s, c in harness.import_seconds(SRC, SETUP_RUNS))
    harness.run_ops(workload, workload.warmup(), deadline)
    results = harness.run_ops(workload, ops, deadline, budget=BUDGET_S, calibration=run_cal)
    scale = reference_scale(run_cal)
    seconds = [r.seconds * scale for r in results]
    ok = sum(r.status == "ok" for r in results)
    beyond = harness.samples_beyond(len(results), tail)
    print(
        f"{workload.name}: {len(results)} operations, {ok} ok, "
        f"{beyond} samples beyond p{tail:g}, {sum(r.seconds for r in results):.2f} s timed, "
        f"{scale:.4f} reference seconds per second",
        file=sys.stderr,
    )
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (ok / sum(seconds), "1/s"),
        "latency_p50_s": (harness.percentile(seconds, 50), "s"),
        "latency_tail_s": (harness.percentile(seconds, tail), "s"),
        "ok_share": (ok / len(results), "share"),
        "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
    }
    return {**_summarize(results), "metrics": metrics}


# per-layer metric -> wrapped function, as named by spans.Tracer
FUNCTIONS = {
    "components.enumerate_components": "components.enumerate_components",
    "oracle.phi_vector_oracle": "oracle.phi_vector_oracle",
    "oracle.eight_lowest": "oracle.eight_lowest",
    "oracle.box_isotropics": "oracle.box_isotropics",
    "oracle.enumerate_isotropics": "oracle.enumerate_isotropics",
    "oracle.enumerate_with_values": "oracle._enumerate_with_values",
    "oracle.best_sequences": "oracle._best_sequences",
    "fundamental.fundamental_presentation": "fundamental.fundamental_presentation",
    "fundamental.divisor_class": "fundamental.FundamentalCoefficients.divisor_class",
    "fundamental.rewrite_to_fundamental": "fundamental.rewrite_to_fundamental",
}
CALL_COUNTS = (
    "components.enumerate_components",
    "fundamental.divisor_class",
    "fundamental.rewrite_to_fundamental",
)


def per_layer(workload, ops, deadline, seed) -> dict:
    """Run the operations untraced, then traced; report per-layer numbers
    from the traced pass and the ratio of the two wall times."""
    import harness
    from spans import Tracer

    plain_cal, traced_cal = [], []
    numpy_s = statistics.median(
        s * reference_scale([c]) for s, c in harness.numpy_import_seconds(SRC, SETUP_RUNS)
    )
    harness.run_ops(workload, workload.warmup(), deadline)
    plain = harness.run_ops(workload, ops, deadline, budget=BUDGET_S / 2, calibration=plain_cal)
    tracer = Tracer()
    tracer.install()
    try:
        traced = harness.run_ops(workload, ops, deadline, tracer, BUDGET_S / 2, traced_cal)
    finally:
        tracer.uninstall()
    scale = reference_scale(traced_cal)
    wall_plain = sum(r.seconds for r in plain) * reference_scale(plain_cal)
    wall_traced = sum(r.seconds for r in traced) * scale
    path = TRACE_DIR / f"trace-{workload.name}-seed{seed}.tsv"
    tracer.write(path)
    selfs = {layer: s * scale for layer, s in tracer.self_times().items()}
    print(
        f"{workload.name}: {len(ops)} operations traced, {len(tracer.span_start)} spans "
        f"in {path.relative_to(ROOT)}; in reference seconds traced {wall_traced:.2f}, "
        f"untraced {wall_plain:.2f}, outside any span {wall_traced - sum(selfs.values()):.3f}",
        file=sys.stderr,
    )
    metrics = {"setup.numpy_import_s": (numpy_s, "s")}
    for layer, s in selfs.items():
        metrics[f"{layer}.self_s"] = (s, "s")
    metrics["cli.output_bytes"] = (sum(r.output_bytes for r in traced), "bytes")
    for metric, fn in FUNCTIONS.items():
        calls, seconds = tracer.function_stats(fn)
        metrics[f"{metric}.s"] = (seconds * scale, "s")
        if metric in CALL_COUNTS:
            metrics[f"{metric}.calls"] = (calls, "count")
    for key, n in tracer.counts.items():
        metrics[f"{key}.calls"] = (n, "count")
    metrics["trace.overhead_share"] = (wall_traced / wall_plain, "ratio")
    return {**_summarize(plain + traced), "metrics": metrics}


def main(argv=None) -> int:
    args, deadline, tail = parse_args(argv)
    if not (SRC / "enriques" / "cli.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from harness import samples_beyond
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    blocks = max(1, round(args.seconds / workload.block_seconds))
    if args.trace:
        ops = workload.make_ops(args.seed, max(1, blocks // 2))
        result = per_layer(workload, ops, deadline, args.seed)
    else:
        ops = workload.make_ops(args.seed, blocks)
        while samples_beyond(len(ops), tail) < MIN_BEYOND:
            blocks += 1
            ops = workload.make_ops(args.seed, blocks)
        result = end_to_end(workload, ops, deadline, tail)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
