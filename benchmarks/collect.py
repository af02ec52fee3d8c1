"""Run the benchmark on several seeds and summarize each end-to-end metric.

    python3 benchmarks/collect.py --runs 10 --out benchmarks/baseline.json
    python3 benchmarks/collect.py --runs 5 --workloads lgi_scan

For each workload and metric it reports the values, their median and
quartiles (statistics.quantiles, n=4), and the spread (q3 - q1) / median
next to the metric's bound in BENCHMARK.json. Runs are sequential, one
workload at a time, with seeds 1 .. runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["provenance"] = json.loads(lines[-2].partition(" ")[2])
    return result


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": spread < bound / 3.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()

    summary = {"run_seconds": spec["run_seconds"], "runs": args.runs, "workloads": {}}
    for workload in args.workloads:
        results = [run_once(workload, seed, spec["run_seconds"], 0)
                   for seed in range(1, args.runs + 1)]
        metrics = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            metrics[metric["name"]] = summarize(values, metric["bound"])
            row = metrics[metric["name"]]
            print(f"{workload:14s} {metric['name']:13s} median {row['median']:.6g} {metric['unit']:4s} "
                  f"spread {row['spread']:.4f} (bound {metric['bound']}) "
                  f"{'steady' if row['steady'] else 'UNSTEADY'}", flush=True)
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": metrics,
            # one traced run for the per-layer numbers, only when writing a record
            "traced": run_once(workload, 1, spec["run_seconds"], 1)["metrics"] if args.out else None,
            "provenance": results[0]["provenance"],
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
