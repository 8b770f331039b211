"""The rule of `tests/ci_gates.py bench-tests` on synthetic JUnit reports:
bench/tests passes only with exactly its two known failures."""

import pytest

from ci_gates import KNOWN_FAILURES, pin_verdict

OTHER = "bench/tests/test_bench.py::test_correct_outputs_pass"
DEADLINE, TRACING = sorted(KNOWN_FAILURES)


def write_report(path, outcomes):
    """A JUnit report, as pytest writes it, with one test case for each
    id in `outcomes`, holding one element for each outcome named."""
    cases = []
    for name, tags in outcomes.items():
        module, _, test = name.partition(".py::")
        children = "".join(f'<{tag} message="x"/>' for tag in tags)
        cases.append(f'<testcase classname="{module.replace("/", ".")}" name="{test}">{children}</testcase>')
    path.write_text(f'<testsuites><testsuite name="pytest">{"".join(cases)}</testsuite></testsuites>')
    return path


def test_exactly_the_known_failures_pass_the_pin(tmp_path):
    report = write_report(tmp_path / "r.xml", {OTHER: [], DEADLINE: ["failure"], TRACING: ["failure"]})
    assert pin_verdict(report, 1) == ("bench/tests: 1 passed, 2 known failure(s)", [])


@pytest.mark.parametrize(
    ("outcomes", "returncode", "problem"),
    [
        ({OTHER: ["failure"]}, 1, f"{OTHER}: failed, not a known failure"),
        ({TRACING: []}, 1, f"{TRACING}: known failure no longer fails"),
        ({OTHER: ["error"]}, 1, f"{OTHER}: error"),
        ({OTHER: ["skipped"]}, 1, f"{OTHER}: skipped"),
        ({OTHER: ["failure", "error"]}, 1, f"{OTHER}: error, failure"),
        ({}, 2, "pytest exit status 2"),
    ],
    ids=["third-failure", "known-failure-passes", "error", "skip", "failure-and-error", "exit-status"],
)
def test_any_other_outcome_fails_the_pin(tmp_path, outcomes, returncode, problem):
    report = write_report(tmp_path / "r.xml", {DEADLINE: ["failure"], TRACING: ["failure"], **outcomes})
    assert pin_verdict(report, returncode)[1] == [problem]
