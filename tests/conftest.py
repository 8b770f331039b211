"""Fixtures shared by the test modules: the benchmark's workloads, read
from bench/ and never changed, supply operations and their own checks,
and every test must leave the cyclic collector enabled."""

import gc
import importlib
import json
from pathlib import Path

import pytest

REPO_DIR = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def workloads():
    """The benchmark's workload module, imported from bench/ (whose modules
    import one another by bare name)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(REPO_DIR / "bench"))
        yield importlib.import_module("workloads")


@pytest.fixture(scope="session")
def benchmark_ops():
    """`benchmark_ops(workload, seed)`, the operations of one seed over the
    blocks of a run as long as BENCHMARK.json's."""
    seconds = json.loads((REPO_DIR / "BENCHMARK.json").read_text())["run_seconds"]

    def ops(workload, seed):
        return workload.make_ops(seed, max(1, round(seconds / workload.block_seconds)))

    return ops


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail any test that leaves the cyclic collector disabled: the
    component builders pause it, and a pause that outlives them would go
    on for the rest of the process."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic collector disabled")
