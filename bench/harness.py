"""Running operations under a deadline, and the statistics reported.

Operations run one after another in this process, each under a wall-clock
deadline enforced with an interval timer (SIGALRM). CLI operations call
`enriques.cli.main` with stdout and stderr captured in memory. Outputs are
checked after the timer stops, so checking is never timed.

Between operations, a fixed loop from `calibration` is timed, so that the
caller can report reference seconds.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import enriques.cli
import enriques.fundamental
from calibration import calibration_seconds


class DeadlineExceeded(BaseException):
    """Raised by the interval timer; a BaseException so that no handler in
    the package can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


CALIBRATION_EVERY_S = 0.1  # wall seconds between calibration samples


@dataclass
class Result:
    seconds: float
    status: str  # "ok", "wrong", "error", "timeout" or "skipped"
    detail: str = ""
    output_bytes: int = 0


def execute(op):
    """Run one operation; returns its output (captured stdout for a CLI
    call, the returned value for a rewrite)."""
    if op.kind == "rewrite":
        cs, a0, eps = op.args
        return enriques.fundamental.rewrite_to_fundamental(cs, a0, eps)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = enriques.cli.main(list(op.args))
        except SystemExit as exc:
            code = exc.code
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.getvalue().strip()[:200]}")
    return out.getvalue()


def run_ops(
    workload, ops, deadline: float, tracer=None, budget: float = math.inf, calibration=None
) -> list[Result]:
    """Run and check each operation. Once the timed seconds reach
    `budget`, the remaining operations are not started: each is recorded
    as failed, with the deadline as its time, so that a run always ends.
    When `calibration` is a list, calibration samples are appended to it
    before the first operation and then every CALIBRATION_EVERY_S."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    results = []
    spent = 0.0
    last_sample = -math.inf
    try:
        for i, op in enumerate(ops):
            if spent >= budget:
                results.append(Result(deadline, "skipped", "run budget used up"))
                continue
            if calibration is not None and perf_counter() - last_sample >= CALIBRATION_EVERY_S:
                calibration.append(calibration_seconds())
                last_sample = perf_counter()
            output = None
            status, detail = "ok", ""
            if tracer is not None:
                tracer.begin_op(i)
            t0 = perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, min(deadline, budget - spent))
                try:
                    output = execute(op)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except DeadlineExceeded:
                status, detail = "timeout", f"over the {deadline} s deadline"
            except Exception as exc:  # any failure of the program is a failed operation
                status, detail = "error", f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
            if tracer is not None:
                tracer.end_op(t1)
            if status == "ok":
                if tracer is not None:
                    tracer.suspend()  # checks may call the package
                detail = workload.check(op, output) or ""
                if tracer is not None:
                    tracer.resume()
                if detail:
                    status = "wrong"
            size = len(output.encode()) if isinstance(output, str) else 0
            results.append(Result(t1 - t0, status, detail, size))
            spent += t1 - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return results


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest value with at least pct
    percent of the values at or below it."""
    xs = sorted(values)
    return xs[max(0, math.ceil(pct / 100 * len(xs)) - 1)]


def samples_beyond(n: int, pct: float) -> int:
    return n - max(1, math.ceil(pct / 100 * n))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


# A fresh interpreter samples the calibration loop, then imports the package.
PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, {bench!r})\n"
    "from calibration import calibration_seconds\n"
    "cal = sorted(calibration_seconds() for _ in range(5))[2]\n"
    "t = time.perf_counter()\n"
    "import enriques.cli\n"
    "print(time.perf_counter() - t, cal, enriques.cli.__file__)\n"
)


def _probe(src: Path, *flags: str) -> tuple[float, float, str]:
    """(import seconds, calibration seconds, stderr) of one fresh
    interpreter importing enriques.cli."""
    proc = subprocess.run(
        [sys.executable, *flags, "-c", PROBE.format(bench=str(Path(__file__).resolve().parent))],
        env=_child_env(src),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    seconds, cal, path = proc.stdout.split()
    if not Path(path).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"imported enriques from {path}, not from {src}")
    return float(seconds), float(cal), proc.stderr


def import_seconds(src: Path, runs: int) -> list[tuple[float, float]]:
    """(wall time of `import enriques.cli`, calibration loop time) in fresh
    interpreters, after one launch that is not counted (it may compile
    bytecode)."""
    _probe(src)
    return [_probe(src)[:2] for _ in range(runs)]


def numpy_import_seconds(src: Path, runs: int) -> list[tuple[float, float]]:
    """(cumulative import time of numpy, calibration loop time) from
    `-X importtime`, while fresh interpreters import enriques.cli."""
    out = []
    for _ in range(runs):
        _, cal, stderr = _probe(src, "-X", "importtime")
        for line in stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "numpy":
                out.append((int(parts[1]) / 1e6, cal))
                break
        else:
            raise RuntimeError("numpy missing from the -X importtime output")
    return out
