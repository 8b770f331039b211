"""The CI gates that are not tier-1 tests, one command each, run from any
directory (pytest does not collect this file):

    python tests/ci_gates.py memory
    python tests/ci_gates.py smoke
    python tests/ci_gates.py bench-tests

memory: four commands, each in its own child process, must peak at or
below their bound of RSS.  The largest listing the package is sized for,
genus 3000 written row by row, at 150 MB; the bounds sweep to genus 400,
which holds the walk's buckets for the whole window, at 100 MB; the
roundtrip sweep to genus 400, which holds the window's buckets and the
profile search while it lists each genus (75.7 MB on a 2-core x86-64
machine), at 100 MB; and the search oracle on a class whose pool holds
2,333 classes, with its numpy pairing matrix, at 90 MB (77.4-77.6 MB at
commit aa032b2).  The genus-3000 listing (199,798,012 bytes of JSON; the
tier-1 digest test stops at genus 943) must keep the SHA-256 recorded from
the listing of commit dd17fe4.

smoke: each benchmark workload runs for one second, with the command,
deadlines and tails that BENCHMARK.json gives, once plain and once traced
(--trace 1, which wraps the package's public functions and reads numpy's
import time); every run must end on a JSON line with "correct": true and
"failed": 0.

bench-tests: the benchmark harness's own tests, bench/tests, have two
known failures (ROADMAP item 0): both need an operation that overruns a
0.3 s deadline, and the class they use now finishes in about 1 ms.
Exactly those two must fail and every other test pass: a new failure, an
error (collection errors included) or a skip fails the gate, and so does
either known failure passing, which means item 0 was mended and the pin
must go.

Each gate prints one line per run and exits with the reasons of every
failure, or 0.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

REPO_DIR = Path(__file__).resolve().parent.parent

# command, bound on peak RSS in MB, SHA-256 of stdout or None
MEMORY_GATES = (
    ("components --genus 3000", 150, "d1c38be114551ccfbfafdd3616b57302ccb8c71802c4d98388104b0afaedf071"),
    ("verify --suite bounds --gmax 400", 100, None),
    ("verify --suite roundtrip --gmax 400", 100, None),
    ("phivector --class=-2,-2,-2,0,0,0,0,0,0,3 --oracle", 90, None),
)

KNOWN_FAILURES = frozenset({
    "bench/tests/test_bench.py::test_deadline_overrun_counts_as_failed",
    "bench/tests/test_bench.py::test_timeout_under_tracing_leaves_consistent_spans",
})


def run_child(argv, sink):
    """Run argv from the repository root, with the package's src first on
    PYTHONPATH, handing its stdout to `sink` in chunks as it comes; return
    its exit code, its own peak RSS in MB and its wall time in seconds.
    The peak is the child's own ru_maxrss, read by os.wait4 on its pid
    (the RUSAGE_CHILDREN peak would carry one child's into the next)."""
    path = os.pathsep.join(filter(None, [str(REPO_DIR / "src"), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=REPO_DIR, env={**os.environ, "PYTHONPATH": path})
    with child.stdout:
        for chunk in iter(lambda: child.stdout.read(1 << 16), b""):
            sink(chunk)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, usage.ru_maxrss / 1024, time.perf_counter() - start


def memory():
    bad = []
    for command, bound, want in MEMORY_GATES:
        argv = [sys.executable, "-m", "enriques.cli", *command.split(), "--format", "json"]
        digest = hashlib.sha256()
        code, peak, wall = run_child(argv, digest.update)
        print(f"{command}: {wall:.2f} s, peak RSS {peak:.1f} MB, sha256 {digest.hexdigest()}", flush=True)
        if code != 0:
            bad.append(f"{command}: exit code {code}")
        elif peak > bound:
            bad.append(f"{command}: peak RSS {peak:.1f} MB exceeds {bound} MB")
        elif want and digest.hexdigest() != want:
            bad.append(f"{command}: output differs from its recorded digest")
    return bad


def smoke():
    spec = json.loads((REPO_DIR / "BENCHMARK.json").read_text())
    bad = []
    for workload in spec["workloads"]:
        for trace in ("0", "1"):
            name = f'{workload["name"]} --trace {trace}'
            argv = spec["command"] + ["--workload", workload["name"], "--seconds", "1", "--trace", trace]
            chunks = []
            code, _, _ = run_child(argv, chunks.append)
            lines = b"".join(chunks).decode().strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {}
            print(name, code, lines[-1] if lines else "(no output)", flush=True)
            if result.get("correct") is not True or result.get("failed") != 0:
                bad.append(name)
    return [f"benchmark smoke failed: {', '.join(bad)}"] if bad else []


def junit_cases(report):
    """Each test case of a JUnit XML report as its pytest id and the set
    of its outcomes among failure, error and skipped (empty: it passed)."""
    for case in ET.parse(report).getroot().iter("testcase"):
        name = case.get("classname").replace(".", "/") + ".py::" + case.get("name")
        yield name, {child.tag for child in case} & {"failure", "error", "skipped"}


def pin_verdict(report, returncode):
    """The summary line of a bench/tests run and its problems: every case
    that errs or skips, every failure not in KNOWN_FAILURES, every known
    failure that passes, and a pytest exit status other than 0 or 1."""
    failed, bad, passed = set(), [], 0
    for name, outcomes in junit_cases(report):
        if outcomes == {"failure"}:
            failed.add(name)
        elif outcomes:
            bad.append(f"{name}: {', '.join(sorted(outcomes))}")
        else:
            passed += 1
    bad += [f"{name}: failed, not a known failure" for name in sorted(failed - KNOWN_FAILURES)]
    bad += [f"{name}: known failure no longer fails" for name in sorted(KNOWN_FAILURES - failed)]
    if returncode not in (0, 1):
        bad.append(f"pytest exit status {returncode}")
    return f"bench/tests: {passed} passed, {len(failed & KNOWN_FAILURES)} known failure(s)", bad


def bench_tests():
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "bench-tests.xml"
        argv = [sys.executable, "-m", "pytest", "-q", "bench/tests", f"--junitxml={report}"]
        code, _, _ = run_child(argv, sys.stdout.buffer.write)
        summary, bad = pin_verdict(report, code)
    print(summary, flush=True)
    return bad


GATES = {"memory": memory, "smoke": smoke, "bench-tests": bench_tests}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("gate", choices=GATES)
    bad = GATES[parser.parse_args(argv).gate]()
    if bad:
        sys.exit("\n".join(bad))


if __name__ == "__main__":
    main()
