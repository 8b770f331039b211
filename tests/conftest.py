"""Fixtures shared by the test modules: the benchmark's workloads, read
from bench/ and never changed, supply operations and their own checks,
and every test must leave the cyclic collector enabled.  A run that skips
any test fails."""

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


def _skipped(reporter):
    """The number of tests and test modules skipped, as the summary line
    counts them."""
    return len(reporter.stats.get("skipped", []))


def pytest_sessionfinish(session):
    """Fail a run that skipped a test or a test module, whatever else it
    did: tier-1 passes only with none skipped, so no check can stop
    running unnoticed."""
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if _skipped(reporter) and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    skipped = _skipped(terminalreporter)
    if skipped:
        terminalreporter.write_sep("=", f"{skipped} skipped: a run passes only with no test skipped", red=True)
