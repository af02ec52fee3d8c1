"""The CI check that only the tests failing by construction fail."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "expected_failures", Path(__file__).resolve().parent.parent / "scripts" / "expected_failures.py"
)
expected_failures = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(expected_failures)

CRITERION_02 = ("tests.test_acceptance", "test_criterion_02_lgi_curve")
TRACED = ("benchmarks.test_benchmark", "test_traced_counts_repeat_and_see_every_call")
PASSING = ("tests.test_cli.TestLgiScan", "test_peak_row")


def _report(tmp_path, name, cases):
    lines = ['<testsuites><testsuite name="pytest">']
    for (classname, test), outcome in cases:
        inner = f"<{outcome} message='x'/>" if outcome else ""
        lines.append(f'<testcase classname="{classname}" name="{test}">{inner}</testcase>')
    lines.append("</testsuite></testsuites>")
    path = tmp_path / name
    path.write_text("\n".join(lines))
    return str(path)


def test_node_ids_map_to_junit_keys():
    assert expected_failures.junit_key("tests/test_acceptance.py::test_criterion_02_lgi_curve") == CRITERION_02
    assert expected_failures.junit_key("tests/test_cli.py::TestLgiScan::test_peak_row") == PASSING


@pytest.mark.parametrize(
    "tests_cases, bench_cases, code",
    [
        ([(CRITERION_02, "failure"), (PASSING, None)], [(TRACED, "failure")], 0),
        ([(CRITERION_02, "failure"), (PASSING, "failure")], [(TRACED, "failure")], 1),
        ([(CRITERION_02, "failure"), (PASSING, "error")], [(TRACED, "failure")], 1),
        ([(CRITERION_02, None), (PASSING, None)], [(TRACED, "failure")], 1),
        ([(PASSING, None)], [(TRACED, "failure")], 1),
        ([(CRITERION_02, "failure")], [], 1),
    ],
    ids=["only-expected", "new-failure", "new-error", "expected-passes", "expected-missing", "bench-missing"],
)
def test_verdict(tmp_path, capsys, tests_cases, bench_cases, code):
    reports = [_report(tmp_path, "tests.xml", tests_cases), _report(tmp_path, "bench.xml", bench_cases)]
    assert expected_failures.main(reports) == code


def test_unreadable_report_fails(tmp_path, capsys):
    assert expected_failures.main([str(tmp_path / "absent.xml")]) == 1
    assert "cannot read report" in capsys.readouterr().err
