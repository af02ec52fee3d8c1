"""The photonclock benchmark: one seeded, closed-loop workload per invocation.

    python3 benchmarks/run.py --workload lgi_scan --seed 1 --seconds 50 --trace 0

Workloads are ``lgi_scan``, ``cond_surface`` and ``point_queries`` (see
workloads.py and README.md). The workload runs in a fresh interpreter with
one caller thread and BLAS/OpenMP capped at one thread. Its set-up is timed
in further fresh interpreters, and the median is reported. Every output is
checked against the closed forms outside the timed interval.

With ``--trace 0`` the last line of stdout is the end-to-end result; with
``--trace 1`` it carries the per-layer metrics of a traced run, and the spans
are written under ``.bench_out/``. The line before it holds the provenance.
The benchmark uses ``src/`` of its own checkout and exits non-zero, printing
no result, when that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("lgi_scan", "cond_surface", "point_queries")
# op_p50_s is left in the provenance line: on a host whose speed swings
# between two modes the per-run median jumps between them (see README.md)
END_TO_END_UNITS = {"setup_s": "s", "points_per_s": "1/s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 6
THREAD_CAPS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class ChildFailed(RuntimeError):
    pass


def _child(args: list[str], env: dict, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and parse the JSON on its last stdout line."""
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            env=env, stdout=subprocess.PIPE, text=True, cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"worker {args[0]} ran past the time limit") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"worker {args[0]} exited {done.returncode}")
    return json.loads(lines[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured wall time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks the scans for the smoke tests")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "photonclock" / "__init__.py").is_file():
        print(f"benchmark: no photonclock source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # the measured loop, plus room for the set-up probes, one op past the end
    # of the loop and writing the spans
    deadline = time.monotonic() + 2.0 * args.seconds + 60.0
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
    env = dict(os.environ, **THREAD_CAPS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    workdir = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    setup = lambda: _child(["setup", args.workload, workdir], env, deadline)["setup_s"]
    probes = 0 if args.trace else SETUP_REPEATS // 2
    try:
        # half the set-up probes before the workload and half after, so that
        # their median samples the host's speed across the whole run
        setups = [setup() for _ in range(probes)]
        raw = _child(["run", args.workload, str(args.seed), repr(args.seconds), str(args.trace),
                      args.size, workdir, str(spans_path)], env, deadline)
        setups += [setup() for _ in range(probes)]
    except ChildFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = raw["passes"]
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        metrics = raw["per_layer"]
    else:
        measured = passes[0]
        values = {
            "setup_s": statistics.median(setups),
            "points_per_s": measured["points"] / measured["busy_s"],
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "ops_per_pass": [p["ops"] for p in passes],
        "failed_frac": failed / attempted,
        "failure_reasons": raw["reasons"],
        "passes": passes,
        "setup_runs_s": setups,
        "max_abs_dev": raw["max_abs_dev"],
        "bytes_out_per_op": raw["bytes_out_per_op"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": raw["python"],
        "numpy": raw["numpy"],
        "commit": _commit(),
        "thread_caps": {name: env[name] for name in THREAD_CAPS},
        "spans": str(spans_path.relative_to(ROOT)) if args.trace else None,
    }
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print("provenance " + json.dumps(provenance))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
