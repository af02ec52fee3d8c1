"""Seeded workload generators and the closed-loop measuring loop.

A workload is an endless stream of rounds; a round is a list of ops. Each op
has a timed ``call`` and an untimed ``check`` against the closed forms. The
seed fixes every input; the package sees only the generated arguments.

* ``lgi_scan``: one op is ``photonclock lgi-scan --x-steps 1024`` over
  ``[a, a + pi]``, ``a`` uniform in [0, 0.5). C has period pi, so the work per
  op is fixed. Nearly all its time is in the sequential collapse engine.
* ``cond_surface``: one op is ``photonclock cond-surface --grid-n 41`` with
  ``--omega`` log-uniform in [1e-3, 1e3]. Nearly all its time is in
  ``conditional_probability``; its data rows must not depend on omega.
* ``point_queries``: rounds of 50 single library calls in a fixed mix,
  shuffled by the seed, through paths the scans never take (START_V,
  unequal schedules, the amplitude formalism, JSON rendering).
"""

from __future__ import annotations

import math
import os
import random
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np
import photonclock as pc
from photonclock import cli

from check import (
    TOL,
    Verdict,
    check_cond_surface,
    check_lgi_scan,
    check_report,
    check_value,
    lgi_closed,
    surface_rows,
)

# README sizes, and the tiny sizes the smoke tests run
SIZES = {"full": {"x_steps": 1024, "grid_n": 41}, "tiny": {"x_steps": 8, "grid_n": 3}}

# ops per kind in one point_queries round. The mix is fixed so that the op
# median sits inside the two_time_correlator cluster, not on the edge
# between two clusters, whatever the seed.
POINT_MIX = {
    "stationary_wd": 4,
    "cond_stationary": 8,
    "two_time_correlator": 18,
    "cond_time_dependent": 8,
    "entanglement_advantage": 3,
    "engine": 4,
    "lgi_value": 4,
    "report": 1,
}

SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)


@dataclass
class Op:
    kind: str
    layer: str  # the layer whose closed-form deviation the check measures
    call: Callable[[], object]
    check: Callable[[object], Verdict]
    points: int = 1
    out: str | None = None  # file the op writes through the CLI


def _cli_op(kind: str, layer: str, argv: list[str], out: str, points: int, check_text) -> Op:
    def check(rc) -> Verdict:
        if rc != 0:
            return Verdict(False, reason=f"photonclock {argv[0]} exited {rc}")
        with open(out, encoding="utf-8") as handle:
            return check_text(handle.read())

    return Op(kind, layer, lambda: cli.main(argv), check, points, out)


def _lgi_scan_rounds(rng: random.Random, size: dict, workdir: str) -> Iterator[list[Op]]:
    steps = size["x_steps"]
    out = os.path.join(workdir, "lgi_scan.csv")
    while True:
        x_min = 0.5 * rng.random()
        x_max = x_min + math.pi
        argv = ["lgi-scan", "--x-min", repr(x_min), "--x-max", repr(x_max),
                "--x-steps", str(steps), "--out", out]
        check_text = lambda text, lo=x_min, hi=x_max: check_lgi_scan(text, lo, hi, steps)
        yield [_cli_op("lgi_scan", "lgi", argv, out, steps + 1, check_text)]


def _cond_surface_rounds(rng: random.Random, size: dict, workdir: str) -> Iterator[list[Op]]:
    grid_n = size["grid_n"]
    out = os.path.join(workdir, "cond_surface.csv")
    first_rows: list[str] = []

    def check_text(text: str, omega: float) -> Verdict:
        verdict = check_cond_surface(text, grid_n)
        if not verdict.ok:
            return verdict
        rows = surface_rows(text)
        if not first_rows:
            first_rows.append(rows)
        elif rows != first_rows[0]:
            return Verdict(False, verdict.max_dev, f"data rows at --omega {omega!r} differ from the first op's")
        return verdict

    while True:
        omega = 10.0 ** rng.uniform(-3.0, 3.0)
        argv = ["cond-surface", "--grid-n", str(grid_n), "--omega", repr(omega), "--out", out]
        check = lambda text, omega=omega: check_text(text, omega)
        yield [_cli_op("cond_surface", "conditional", argv, out, grid_n * grid_n, check)]


def _conditional_op(kind: str, state: pc.StateKind, rng: random.Random, index: int) -> Op:
    # cycle through both measurement kinds and both formalisms
    measurement = (pc.MeasurementKind.SHARP, pc.MeasurementKind.UNSHARP)[index % 2]
    formalism = (pc.Formalism.AMPLITUDE, pc.Formalism.DENSITY_MATRIX)[(index // 2) % 2]
    pair = pc.SharpnessPair(rng.random(), rng.random())
    spec = pc.ClockSpec(10.0 ** rng.uniform(-3.0, 3.0))
    query = pc.ConditionalQuery(state, measurement, pair, formalism)
    product = 1.0 if measurement is pc.MeasurementKind.SHARP else pair.lambda_c * pair.lambda_r
    expected = (1.0 + product) / 2.0 if state is pc.StateKind.STATIONARY else (2.0 + product) / 4.0
    return Op(kind, "conditional", lambda: pc.conditional_probability(query, spec),
              lambda value: check_value(value, expected))


def _point_op(kind: str, index: int, rng: random.Random, workdir: str) -> Op:
    unit = pc.ClockSpec(1.0)
    init = (pc.InitialCondition.START_H, pc.InitialCondition.START_V)[index % 2]
    if kind == "engine":
        x = math.pi * (1.0 - rng.random())  # in (0, pi]
        return Op(kind, "lgi", lambda: pc.lgi_functional_engine(x, None, init),
                  lambda value: check_value(value, lgi_closed(x)))
    if kind == "lgi_value":
        t1 = rng.uniform(0.05, 1.0)
        t2 = t1 + rng.uniform(0.05, 1.5)
        t3 = t2 + rng.uniform(0.05, 1.5)
        t4 = t3 + rng.uniform(0.05, 1.5)
        schedule = pc.LgiSchedule(t1, t2, t3, t4)
        expected = (math.cos(2.0 * (t2 - t1)) + math.cos(2.0 * (t3 - t2))
                    + math.cos(2.0 * (t4 - t3)) - math.cos(2.0 * (t4 - t1)))
        return Op(kind, "lgi", lambda: pc.lgi_value(schedule, unit, init),
                  lambda value: check_value(value, expected))
    if kind == "two_time_correlator":
        t1 = rng.uniform(0.05, 2.0 * math.pi)
        t2 = t1 + rng.uniform(0.05, math.pi)
        return Op(kind, "lgi", lambda: pc.two_time_correlator(t1, t2, unit, init),
                  lambda value: check_value(value, math.cos(2.0 * (t2 - t1))))
    if kind == "cond_stationary":
        return _conditional_op(kind, pc.StateKind.STATIONARY, rng, index)
    if kind == "cond_time_dependent":
        return _conditional_op(kind, pc.StateKind.TIME_DEPENDENT, rng, index)
    if kind == "entanglement_advantage":
        pair = pc.SharpnessPair(rng.random(), rng.random())
        spec = pc.ClockSpec(10.0 ** rng.uniform(-3.0, 3.0))
        return Op(kind, "conditional", lambda: pc.entanglement_advantage(pair, spec),
                  lambda value: check_value(value, pair.lambda_c * pair.lambda_r / 4.0))
    if kind == "stationary_wd":
        spec = pc.ClockSpec(10.0 ** rng.uniform(-3.0, 3.0))
        generator = pc.global_hamiltonian(spec)

        def call():
            psi = pc.stationary_state(spec)
            return psi, pc.wd_residual(generator, psi)

        def check(result) -> Verdict:
            psi, residual = result
            if not residual / spec.omega <= 1e-12:
                return Verdict(False, reason=f"wd residual {residual!r} at omega {spec.omega!r}")
            dev = float(np.max(np.abs(psi - SINGLET)))
            return Verdict(dev <= TOL, dev, "" if dev <= TOL else f"stationary state off the singlet by {dev:.3e}")

        return Op(kind, "conditional", call, check)
    if kind == "report":
        out = os.path.join(workdir, "report.json")
        return _cli_op(kind, "cli", ["report", "--format", "json", "--out", out], out, 1, check_report)
    raise ValueError(f"unknown point query kind {kind!r}")


def _point_query_rounds(rng: random.Random, size: dict, workdir: str) -> Iterator[list[Op]]:
    kinds = [kind for kind, count in POINT_MIX.items() for _ in range(count)]
    while True:
        rng.shuffle(kinds)
        seen: dict[str, int] = {}
        ops = []
        for kind in kinds:
            index = seen[kind] = seen.get(kind, -1) + 1
            ops.append(_point_op(kind, index, rng, workdir))
        yield ops


_GENERATORS = {
    "lgi_scan": _lgi_scan_rounds,
    "cond_surface": _cond_surface_rounds,
    "point_queries": _point_query_rounds,
}


def rounds(workload: str, seed: int, size: str, workdir: str) -> Iterator[list[Op]]:
    """The op stream of a workload; the same seed gives the same ops."""
    return _GENERATORS[workload](random.Random(seed), SIZES[size], workdir)


@dataclass
class Pass:
    """What one closed-loop pass measured."""

    op_s: list[float] = field(default_factory=list)
    points: int = 0
    failed: int = 0
    bytes_out: int = 0
    max_dev: dict[str, float] = field(default_factory=lambda: {"lgi": 0.0, "conditional": 0.0})
    reasons: list[str] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return math.fsum(self.op_s)


def measure(stream: Iterator[list[Op]], seconds: float, tracer=None) -> Pass:
    """Run whole rounds, one op at a time, until ``seconds`` of wall time have passed.

    Only ``op.call()`` is timed; checks run between ops. An op that raises
    or fails its check counts as failed.
    """
    result = Pass()
    start = time.perf_counter()
    for ops in stream:
        for op in ops:
            if op.out is not None and os.path.exists(op.out):
                os.remove(op.out)
            if tracer is not None:
                tracer.current_op = len(result.op_s)
            began = time.perf_counter()
            try:
                value = op.call()
            except Exception as exc:  # a failed op is data, not the end of the run
                value = exc
            result.op_s.append(time.perf_counter() - began)
            if isinstance(value, Exception):
                verdict = Verdict(False, reason=f"{op.kind} raised {value!r}")
            else:
                try:
                    verdict = op.check(value)
                except (OSError, TypeError, ValueError) as exc:
                    verdict = Verdict(False, reason=f"{op.kind} output unreadable: {exc!r}")
            if op.out is not None and os.path.exists(op.out):
                result.bytes_out += os.path.getsize(op.out)
            if verdict.ok:
                result.points += op.points
            else:
                result.failed += 1
                result.reasons.append(verdict.reason)
            if op.layer in result.max_dev:
                result.max_dev[op.layer] = max(result.max_dev[op.layer], verdict.max_dev)
        if time.perf_counter() - start >= seconds:
            break
    if tracer is not None:
        tracer.current_op = -1
    return result
