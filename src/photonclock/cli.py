"""Command line interface.

Subcommands: lgi-scan, cond-surface, cond-slice, report, dof, wd-check.
Datasets are written as CSV (one '#' metadata line, a header line, then
rows) or JSON ({"meta": ..., "rows": [...]}). Floats are printed with 17
significant digits and '\n' endings, so identical configurations produce
byte-identical files. Every reported quantity is dimensionless, which makes
the data independent of --omega.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 numerical integrity.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .conditional import (
    MIN_PANELS,
    ConditionalQuery,
    MeasurementKind,
    QuadratureSpec,
    StateKind,
    conditional_probability,
    stationary_state,
)
from .dof import Spin, massive_graviton_dof, massless_graviton_dof, spin_multiplicity
from .dynamics import ClockSpec, global_hamiltonian, wd_residual
from .errors import NumericalIntegrityError
from .lgi import lgi_functional, lgi_functional_engine, lgi_maximize, violates_classical_bound
from .measurement import SharpnessPair

TOOL = "photonclock"
CROSS_CHECK_TOL = 1e-10
WD_TARGET = 1e-12

C_MAX_EXPECTED = 2.0 * math.sqrt(2.0)
X_STAR_EXPECTED = math.pi / 8.0

# the input envelope: past _X_MAX the engine's schedule times k*x/omega round
# at ulp(3x) and its deviation from the closed form grows with x; the caps
# keep a huge size a usage error instead of a MemoryError
_X_MAX = 1e4
_MAX_X_STEPS = 2**20
_MAX_GRID_N = 1024


@dataclass(frozen=True)
class RunConfig:
    omega: float = 1.0
    panels: int = QuadratureSpec().panels
    grid_n: int = 41
    x_min: float = 0.0
    x_max: float = math.pi
    x_steps: int = 1024
    output_path: str | None = None
    format: str = "csv"

    def __post_init__(self):
        ClockSpec(self.omega)
        if self.grid_n < 2:
            raise ValueError("grid-n must be at least 2")
        if self.grid_n > _MAX_GRID_N:
            raise ValueError(f"grid-n must be at most {_MAX_GRID_N}")
        if self.x_steps < 1:
            raise ValueError("x-steps must be at least 1")
        if self.x_steps > _MAX_X_STEPS:
            raise ValueError(f"x-steps must be at most {_MAX_X_STEPS}")
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError("x window must be finite")
        if self.x_min < 0.0:
            raise ValueError("x-min must be nonnegative")
        if not self.x_min < self.x_max:
            raise ValueError("need x-min < x-max")
        if self.x_max > _X_MAX:
            raise ValueError(f"x-max must be at most {_X_MAX:g}, the engine's accuracy envelope")
        if self.format not in ("csv", "json"):
            raise ValueError("format must be csv or json")


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _native(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def _meta_string(command: str, items: list[tuple[str, object]]) -> str:
    parts = [f"{TOOL} {command} version={__version__}"]
    parts.extend(f"{key}={_fmt(value)}" for key, value in items)
    return " ".join(parts)


def _meta_object(command: str, items: list[tuple[str, object]]) -> dict:
    meta: dict = {"tool": TOOL, "version": __version__, "command": command}
    meta.update({key: _native(value) for key, value in items})
    return meta


def _render_dataset(command: str, meta_items, fieldnames, rows, fmt: str) -> str:
    if fmt == "json":
        obj = {
            "meta": _meta_object(command, meta_items),
            "rows": [dict(zip(fieldnames, map(_native, row))) for row in rows],
        }
        return json.dumps(obj, indent=2) + "\n"
    lines = [f"# {_meta_string(command, meta_items)}", ",".join(fieldnames)]
    lines.extend(",".join(_fmt(value) for value in row) for row in rows)
    return "\n".join(lines) + "\n"


def _emit(text: str, output_path: str | None) -> None:
    if output_path:
        with open(output_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# --- dataset commands -------------------------------------------------------


def cmd_lgi_scan(config: RunConfig) -> int:
    xs = np.linspace(config.x_min, config.x_max, config.x_steps + 1)
    x_star, c_star = lgi_maximize(config.x_min, config.x_max)
    points = np.append(xs, x_star)
    closed = lgi_functional(points)
    values = closed.copy()  # the sequential schedule degenerates at zero gap
    values[points > 0.0] = lgi_functional_engine(points[points > 0.0])
    worst = int(np.argmax(np.abs(values - closed)))
    if abs(values[worst] - closed[worst]) > CROSS_CHECK_TOL:
        raise NumericalIntegrityError(
            f"engine and closed form disagree at x={float(points[worst])!r}: "
            f"{float(values[worst])!r} vs {float(closed[worst])!r}"
        )
    rows = [(x, c, violates_classical_bound(c)) for x, c in zip(xs.tolist(), values[:-1].tolist())]
    meta = [
        ("omega", config.omega),
        ("x_min", config.x_min),
        ("x_max", config.x_max),
        ("x_steps", config.x_steps),
        ("x_star", x_star),
        ("c_star", c_star),
    ]
    text = _render_dataset("lgi-scan", meta, ("x", "C", "violates"), rows, config.format)
    _emit(text, config.output_path)
    return 0


def _conditional_pair(pair: SharpnessPair, spec: ClockSpec, quad: QuadratureSpec) -> tuple[float, float]:
    p_stationary = conditional_probability(
        ConditionalQuery(StateKind.STATIONARY, MeasurementKind.UNSHARP, pair), spec, quad
    )
    p_timeavg = conditional_probability(
        ConditionalQuery(StateKind.TIME_DEPENDENT, MeasurementKind.UNSHARP, pair), spec, quad
    )
    product = pair.lambda_c * pair.lambda_r
    if abs(p_stationary - (1.0 + product) / 2.0) > CROSS_CHECK_TOL:
        raise NumericalIntegrityError(f"stationary conditional off closed form at {pair}")
    if abs(p_timeavg - (2.0 + product) / 4.0) > CROSS_CHECK_TOL:
        raise NumericalIntegrityError(f"time-averaged conditional off closed form at {pair}")
    return p_stationary, p_timeavg


def cmd_cond_surface(config: RunConfig) -> int:
    spec = ClockSpec(config.omega)
    quad = QuadratureSpec(config.panels)
    grid = np.linspace(0.0, 1.0, config.grid_n)
    rows = []
    for lam_c in grid:
        for lam_r in grid:
            pair = SharpnessPair(float(lam_c), float(lam_r))
            p_st, p_td = _conditional_pair(pair, spec, quad)
            rows.append((float(lam_c), float(lam_r), p_st, p_td, p_st - p_td))
    meta = [("omega", config.omega), ("panels", config.panels), ("grid_n", config.grid_n)]
    fields = ("lambda_c", "lambda_r", "P_stationary", "P_timeavg", "advantage")
    _emit(_render_dataset("cond-surface", meta, fields, rows, config.format), config.output_path)
    return 0


def cmd_cond_slice(config: RunConfig) -> int:
    spec = ClockSpec(config.omega)
    quad = QuadratureSpec(config.panels)
    rows = []
    for lam in np.linspace(0.0, 1.0, config.grid_n):
        pair = SharpnessPair(float(lam), float(lam))
        p_st, p_td = _conditional_pair(pair, spec, quad)
        rows.append((float(lam), p_st, p_td))
    meta = [("omega", config.omega), ("panels", config.panels), ("grid_n", config.grid_n)]
    fields = ("lambda", "P_stationary", "P_timeavg")
    _emit(_render_dataset("cond-slice", meta, fields, rows, config.format), config.output_path)
    return 0


def cmd_dof(config: RunConfig, dim: int) -> int:
    rows = [(dim, massless_graviton_dof(dim), massive_graviton_dof(dim))]
    meta = [("dim", dim)]
    fields = ("D", "massless_dof", "massive_dof")
    _emit(_render_dataset("dof", meta, fields, rows, config.format), config.output_path)
    return 0


# --- summary commands -------------------------------------------------------


def _dimensionless_wd_residual(spec: ClockSpec, quad: QuadratureSpec) -> float:
    # residual in units of hbar*omega: evaluate the generator at unit frequency
    return wd_residual(global_hamiltonian(ClockSpec(1.0)), stationary_state(spec, quad))


def _check(name: str, value, target_text: str, passed: bool) -> dict:
    return {"name": name, "value": _native(value), "target": target_text, "pass": bool(passed)}


def _report_checks(spec: ClockSpec, quad: QuadratureSpec) -> list[dict]:
    checks = []
    residual = _dimensionless_wd_residual(spec, quad)
    checks.append(_check("wd_residual", residual, f"wd_residual <= {WD_TARGET:g}", residual <= WD_TARGET))

    p_st = conditional_probability(
        ConditionalQuery(StateKind.STATIONARY, MeasurementKind.SHARP), spec, quad
    )
    p_td = conditional_probability(
        ConditionalQuery(StateKind.TIME_DEPENDENT, MeasurementKind.SHARP), spec, quad
    )
    checks.append(_check("P_sharp_stationary", p_st, "1 +- 1e-12", abs(p_st - 1.0) <= 1e-12))
    checks.append(_check("P_sharp_timeavg", p_td, "0.75 +- 1e-10", abs(p_td - 0.75) <= 1e-10))

    x_star, c_max = lgi_maximize(0.0, math.pi / 2.0)
    c_engine = lgi_functional_engine(x_star)
    checks.append(
        _check("C_max", c_max, f"{_fmt(C_MAX_EXPECTED)} +- 1e-10", abs(c_max - C_MAX_EXPECTED) <= 1e-10)
    )
    checks.append(
        _check("x_star", x_star, f"{_fmt(X_STAR_EXPECTED)} +- 1e-08", abs(x_star - X_STAR_EXPECTED) <= 1e-8)
    )
    checks.append(
        _check(
            "C_max_engine",
            c_engine,
            f"{_fmt(C_MAX_EXPECTED)} +- 1e-10",
            abs(c_engine - C_MAX_EXPECTED) <= 1e-10,
        )
    )

    for dim, massless, massive in ((3, 0, 2), (4, 2, 5), (5, 5, 9)):
        checks.append(
            _check(f"dof_massless({dim})", massless_graviton_dof(dim), str(massless),
                   massless_graviton_dof(dim) == massless)
        )
        checks.append(
            _check(f"dof_massive({dim})", massive_graviton_dof(dim), str(massive),
                   massive_graviton_dof(dim) == massive)
        )

    for label, twice_j, expected in (("1/2", 1, 2), ("1", 2, 3), ("2", 4, 5)):
        value = spin_multiplicity(Spin(twice_j))
        checks.append(_check(f"multiplicity(j={label})", value, str(expected), value == expected))
    return checks


def _render_checks(command: str, meta_items, checks: list[dict], fmt: str) -> str:
    all_pass = all(check["pass"] for check in checks)
    if fmt == "json":
        obj = {"meta": _meta_object(command, meta_items), "checks": checks, "pass": all_pass}
        return json.dumps(obj, indent=2) + "\n"
    lines = [f"# {_meta_string(command, meta_items)}"]
    for check in checks:
        status = "PASS" if check["pass"] else "FAIL"
        lines.append(f"{check['name']} = {_fmt(check['value'])} (target: {check['target']}) {status}")
    failed = sum(1 for check in checks if not check["pass"])
    verdict = "PASS" if all_pass else "FAIL"
    lines.append(f"{command}: {verdict} ({len(checks) - failed}/{len(checks)} checks)")
    return "\n".join(lines) + "\n"


def _finish_checks(command: str, meta_items, checks: list[dict], config: RunConfig) -> int:
    text = _render_checks(command, meta_items, checks, config.format)
    _emit(text, config.output_path)
    failing = [check["name"] for check in checks if not check["pass"]]
    if failing:
        print(f"{TOOL} {command}: failed checks: {', '.join(failing)}", file=sys.stderr)
        return 3
    return 0


def cmd_report(config: RunConfig) -> int:
    spec = ClockSpec(config.omega)
    quad = QuadratureSpec(config.panels)
    meta = [("omega", config.omega), ("panels", config.panels)]
    return _finish_checks("report", meta, _report_checks(spec, quad), config)


def cmd_wd_check(config: RunConfig) -> int:
    spec = ClockSpec(config.omega)
    quad = QuadratureSpec(config.panels)
    residual = _dimensionless_wd_residual(spec, quad)
    checks = [
        _check("wd_residual", residual, f"wd_residual <= {WD_TARGET:g}", residual <= WD_TARGET)
    ]
    meta = [("omega", config.omega), ("panels", config.panels)]
    return _finish_checks("wd-check", meta, checks, config)


# --- argument handling ------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _config_from(args: argparse.Namespace) -> RunConfig:
    fields = {field.name for field in dataclasses.fields(RunConfig)}
    return RunConfig(**{name: value for name, value in vars(args).items() if name in fields})


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--omega", type=float, default=RunConfig.omega, help="clock angular frequency")
    common.add_argument("--out", dest="output_path", metavar="OUT", default=RunConfig.output_path,
                        help="output file (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default=RunConfig.format)

    quad = _Parser(add_help=False)
    quad.add_argument("--panels", type=int, default=RunConfig.panels,
                      help=f"periodic-trapezoid nodes per period: even, at least {MIN_PANELS}, "
                           f"exact from {MIN_PANELS} on (default {RunConfig.panels})")

    grid = _Parser(add_help=False)
    grid.add_argument("--grid-n", type=int, default=RunConfig.grid_n, help="sharpness grid points per axis")

    window = _Parser(add_help=False)
    window.add_argument("--x-min", type=float, default=RunConfig.x_min)
    window.add_argument("--x-max", type=float, default=RunConfig.x_max)
    window.add_argument("--x-steps", type=int, default=RunConfig.x_steps)

    parser = _Parser(prog=TOOL, description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub = subparsers.add_parser("lgi-scan", parents=[common, window],
                                help="Leggett-Garg combination over a phase-gap window")
    sub.set_defaults(handler=lambda args: cmd_lgi_scan(_config_from(args)))

    sub = subparsers.add_parser("cond-surface", parents=[common, quad, grid],
                                help="conditional probabilities over the sharpness grid")
    sub.set_defaults(handler=lambda args: cmd_cond_surface(_config_from(args)))

    sub = subparsers.add_parser("cond-slice", parents=[common, quad, grid],
                                help="conditional probabilities along lambda_c = lambda_r")
    sub.set_defaults(handler=lambda args: cmd_cond_slice(_config_from(args)))

    sub = subparsers.add_parser("report", parents=[common, quad],
                                help="run every headline check and summarize")
    sub.set_defaults(handler=lambda args: cmd_report(_config_from(args)))

    sub = subparsers.add_parser("dof", parents=[common],
                                help="graviton degrees of freedom in D dimensions")
    sub.add_argument("--dim", type=int, required=True, help="spacetime dimension (>= 3)")
    sub.set_defaults(handler=lambda args: cmd_dof(_config_from(args), args.dim))

    sub = subparsers.add_parser("wd-check", parents=[common, quad],
                                help="verify the averaged state is annihilated by the generator")
    sub.set_defaults(handler=lambda args: cmd_wd_check(_config_from(args)))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"{TOOL}: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"{TOOL}: i/o error: {exc}", file=sys.stderr)
        return 2
    except NumericalIntegrityError as exc:
        print(f"{TOOL}: numerical integrity: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
