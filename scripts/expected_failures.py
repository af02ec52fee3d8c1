"""Fail unless the JUnit reports hold exactly the expected test failures.

Usage:
    python scripts/expected_failures.py REPORT.xml [REPORT.xml ...]

Two tests fail by construction, so the steps that run them are always red
and a new failure beside them would go unseen. This check reads the
``--junitxml`` reports of those steps and exits 1 when any other test fails
or errors, or when an expected failure passes or is missing from every
report. Standard library only.
"""

import sys
import xml.etree.ElementTree as ET

EXPECTED = (
    # its clause "C > 2 on (0, pi/4)" is false past x = 0.598; see the README, "Tests"
    "tests/test_acceptance.py::test_criterion_02_lgi_curve",
    # pins per-layer ratios of the scalar chain, which the LGI engine no longer calls
    "benchmarks/test_benchmark.py::test_traced_counts_repeat_and_see_every_call",
)


def junit_key(nodeid: str) -> tuple[str, str]:
    """The (classname, name) pair pytest's JUnit report gives a node id."""
    path, *scopes, name = nodeid.split("::")
    return ".".join([path.removesuffix(".py").replace("/", "."), *scopes]), name


def main(paths: list[str]) -> int:
    outcomes = {}
    for path in paths:
        try:
            cases = ET.parse(path).getroot().iter("testcase")
        except (OSError, ET.ParseError) as exc:
            print(f"cannot read report {path}: {exc}", file=sys.stderr)
            return 1
        for case in cases:
            failed = case.find("failure") is not None or case.find("error") is not None
            key = (case.get("classname", ""), case.get("name", ""))
            outcomes[key] = outcomes.get(key, False) or failed
    expected = {junit_key(nodeid): nodeid for nodeid in EXPECTED}
    problems = [f"unexpected failure: {'::'.join(key)}" for key, failed in outcomes.items()
                if failed and key not in expected]
    for key, nodeid in expected.items():
        if key not in outcomes:
            problems.append(f"expected failure is missing: {nodeid}")
        elif not outcomes[key]:
            problems.append(f"expected failure now passes: {nodeid}")
    for problem in problems:
        print(problem, file=sys.stderr)
    failures = sum(outcomes.values())
    print(f"{len(outcomes)} tests, {failures} failed, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
