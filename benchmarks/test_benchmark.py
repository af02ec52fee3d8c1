"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest benchmarks -q

They live outside the package's ``testpaths``, so the package test suite
does not run them.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from check import check_cond_surface, check_lgi_scan  # noqa: E402
from run import WORKLOADS  # noqa: E402
from workloads import measure, rounds  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _result(*args: str) -> dict:
    done = _run(*args, "--size", "tiny", "--seconds", "0.3")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_emits_every_named_metric(workload, trace):
    result = _result("--workload", workload, "--seed", "7", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_traced_counts_repeat_and_see_every_call():
    first, second = (_result("--workload", "lgi_scan", "--seed", "3", "--trace", "1")["metrics"] for _ in range(2))
    counts = lambda metrics: {k: v["value"] for k, v in metrics.items() if k.endswith(".calls")}
    assert counts(first) == counts(second)
    # per engine evaluation: 16 collapses of which 4 are null, 28 propagators, one validate per Born rule
    assert first["lgi.null_collapse_frac"]["value"] == 0.25
    assert first["dynamics.propagator_per_point"]["value"] == 28.0
    assert first["measurement.validate_per_born"]["value"] == 1.0
    assert first["conditional.conditional_probability.calls"]["value"] == 0.0


def _corrupting(stream):
    """Rewrite the first data row of each CLI output after the timed call."""
    for ops in stream:
        for op in ops:
            real_call, path = op.call, op.out

            def call(real_call=real_call, path=path):
                rc = real_call()
                lines = Path(path).read_text().split("\n")
                fields = lines[2].split(",")
                fields[-2] = repr(float(fields[-2]) + 1e-6)
                lines[2] = ",".join(fields)
                Path(path).write_text("\n".join(lines))
                return rc

            op.call = call
        yield ops


@pytest.mark.parametrize("workload", ["lgi_scan", "cond_surface"])
def test_corrupted_row_counts_as_failure(workload, tmp_path):
    clean = measure(rounds(workload, 5, "tiny", str(tmp_path)), 0.0)
    assert clean.failed == 0 and clean.points > 0
    corrupted = measure(_corrupting(rounds(workload, 5, "tiny", str(tmp_path))), 0.0)
    assert corrupted.failed == len(corrupted.op_s) == 1
    assert corrupted.points == 0


def test_checker_rejects_wrong_row_count_and_values():
    rows = [f"{x!r},{3 * math.cos(2 * x) - math.cos(6 * x)!r},false" for x in (1.0, 2.0)]
    text = "# photonclock lgi-scan version=0\nx,C,violates\n" + "\n".join(rows) + "\n"
    assert check_lgi_scan(text, 1.0, 2.0, 1).ok
    assert not check_lgi_scan(text, 1.0, 2.0, 2).ok
    assert not check_lgi_scan(text.replace(rows[1], rows[1].replace(",false", ",true")), 1.0, 2.0, 1).ok
    surface = "# photonclock cond-surface omega=1\nlambda_c,lambda_r,P_stationary,P_timeavg,advantage\n"
    assert not check_cond_surface(surface, 2).ok


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "lgi_scan", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
