"""One workload in a fresh interpreter; started by run.py, never by hand.

    worker.py setup <workload> <workdir>
        Time ``import photonclock`` plus one minimal CLI call that touches
        every layer the workload uses, and print {"setup_s": ...}.

    worker.py run <workload> <seed> <seconds> <trace> <size> <workdir> <spans_path>
        Warm the same layers, then run the closed loop and print the raw
        measurements as one JSON line. With trace 1 the loop runs twice, for
        half the time each: untraced, then with every public function wrapped.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# one minimal call per workload into every layer it uses; it fills the lazy
# caches (the 4097-state phase grid) that the timed ops rely on
WARM_ARGV = {
    "lgi_scan": ["lgi-scan", "--x-steps", "1"],
    "cond_surface": ["cond-surface", "--grid-n", "2"],
    "point_queries": ["report", "--format", "json"],
}


def _warm(workload: str, workdir: str) -> None:
    from photonclock import cli

    out = os.path.join(workdir, f"warm-{os.getpid()}.out")
    rc = cli.main(WARM_ARGV[workload] + ["--out", out])
    os.remove(out)
    if rc != 0:
        raise SystemExit(f"warm-up call {WARM_ARGV[workload]} exited {rc}")


def _check_source(src: Path) -> None:
    import photonclock

    if Path(photonclock.__file__).resolve().parent.parent != src:
        raise SystemExit(f"photonclock imported from {photonclock.__file__}, not from {src}")


def setup(workload: str, workdir: str, src: Path) -> dict:
    start = time.perf_counter()
    _warm(workload, workdir)  # imports photonclock first
    elapsed = time.perf_counter() - start
    _check_source(src)
    return {"setup_s": elapsed}


def _pass_summary(result) -> dict:
    times = sorted(result.op_s)
    n = len(times)
    summary = {
        "ops": n,
        "points": result.points,
        "failed": result.failed,
        "busy_s": result.busy_s,
        "op_p50_s": statistics.median(times),
    }
    if n > 10:
        # the highest percentile with at least ten samples beyond it
        summary["op_tail_s"] = times[n - 11]
        summary["op_tail_pct"] = 100.0 * (n - 10) / n
    return summary


def _per_layer(base, traced, spans: dict, null_code: int) -> dict:
    from tracer import SPAN_NAMES, span_summary

    calls, self_s = span_summary(spans)
    ops = len(traced.op_s)
    index = {name: i for i, name in enumerate(SPAN_NAMES)}
    metrics = {}
    for name, i in index.items():
        metrics[f"{name}.calls"] = (float(calls[i]) / ops, "calls/op")
        metrics[f"{name}.self_s"] = (float(self_s[i]) / ops, "s/op")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    collapses = spans["fid"] == index["measurement.luders_collapse"]
    null = collapses & (spans["outcome"] == null_code)
    metrics["lgi.null_collapse_frac"] = (ratio(int(null.sum()), int(collapses.sum())), "ratio")
    metrics["dynamics.propagator_per_point"] = (
        ratio(calls[index["dynamics.propagator"]], calls[index["lgi.lgi_functional_engine"]]), "ratio")
    metrics["measurement.validate_per_born"] = (
        ratio(calls[index["qstate.validate"]], calls[index["measurement.born_probability"]]), "ratio")
    metrics["cli.bytes_out"] = (traced.bytes_out / ops, "B/op")
    for layer in ("lgi", "conditional"):
        metrics[f"{layer}.max_abs_dev"] = (max(base.max_dev[layer], traced.max_dev[layer]), "abs")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced.op_s) / statistics.median(base.op_s) - 1.0, "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run(workload: str, seed: int, seconds: float, trace: bool, size: str, workdir: str,
        spans_path: str, src: Path) -> dict:
    _warm(workload, workdir)
    _check_source(src)
    import numpy

    from workloads import measure, rounds

    passes = []
    if not trace:
        passes.append(measure(rounds(workload, seed, size, workdir), seconds))
    else:
        from tracer import Tracer

        passes.append(measure(rounds(workload, seed, size, workdir), seconds / 2.0))
        tracer = Tracer()
        tracer.install()
        try:
            passes.append(measure(rounds(workload, seed, size, workdir), seconds / 2.0, tracer))
        finally:
            tracer.uninstall()
        tracer.save(spans_path)

    out = {
        "passes": [_pass_summary(p) for p in passes],
        "reasons": [reason for p in passes for reason in p.reasons][:5],
        "max_abs_dev": {layer: max(p.max_dev[layer] for p in passes) for layer in ("lgi", "conditional")},
        "bytes_out_per_op": passes[-1].bytes_out / len(passes[-1].op_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if trace:
        names = tracer.outcome_names
        null_code = names.index("NullCollapseError") if "NullCollapseError" in names else -1
        out["per_layer"] = _per_layer(passes[0], passes[1], tracer.arrays(), null_code)
    return out


def main(argv: list[str]) -> int:
    src = Path(__file__).resolve().parents[1] / "src"
    if argv[0] == "setup":
        result = setup(argv[1], argv[2], src)
    else:
        workload, seed, seconds, trace, size, workdir, spans_path = argv[1:8]
        result = run(workload, int(seed), float(seconds), trace == "1", size, workdir, spans_path, src)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
