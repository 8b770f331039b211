"""How fast this machine runs Python code at the moment.

On a shared machine that speed drifts by a fifth over tens of seconds. The
benchmark times a fixed loop next to the work it measures and reports
reference seconds: seconds on a machine that runs the loop in
REFERENCE_CALIBRATION_S. This module imports nothing that the package
imports, so that fresh interpreters can use it before they time the import
of the package.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_CALIBRATION_S = 0.0025  # loop time that defines a reference second


def calibration_seconds() -> float:
    """Time of a fixed pure-Python integer loop. It builds no containers,
    so what the package leaves on the heap does not change it."""
    t0 = perf_counter()
    s = 0
    for i in range(30_000):
        s += i * i % 7
    return perf_counter() - t0


def reference_scale(samples) -> float:
    """Factor from wall seconds to reference seconds, given the loop times
    sampled while the wall seconds were measured."""
    return REFERENCE_CALIBRATION_S * len(samples) / sum(samples)
