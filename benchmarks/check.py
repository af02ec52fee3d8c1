"""Output checks against the closed forms. They run outside the timed interval.

Each check returns a Verdict: whether the output is right, the worst
deviation from the closed form it saw (for the per-layer diagnostics), and a
reason when it is wrong.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

TOL = 1e-10
GRID_TOL = 1e-12  # grid coordinates are echoed, not computed by the physics


class Verdict(NamedTuple):
    ok: bool
    max_dev: float = 0.0
    reason: str = ""


def _worst(worst: float, dev: float) -> float:
    # a NaN deviation is the worst possible one
    return math.inf if math.isnan(dev) else max(worst, dev)


def lgi_closed(x: float) -> float:
    return 3.0 * math.cos(2.0 * x) - math.cos(6.0 * x)


def _split_csv(text: str, command: str, header: str) -> list[str] | str:
    lines = text.split("\n")
    if lines[-1] != "":
        return "output does not end with a newline"
    lines.pop()
    if len(lines) < 2 or not lines[0].startswith(f"# photonclock {command} "):
        return "missing metadata line"
    if lines[1] != header:
        return f"unexpected header {lines[1]!r}"
    return lines[2:]


def check_lgi_scan(text: str, x_min: float, x_max: float, x_steps: int) -> Verdict:
    """Rows x,C,violates on the grid x_min..x_max with C = 3cos(2x) - cos(6x)."""
    rows = _split_csv(text, "lgi-scan", "x,C,violates")
    if isinstance(rows, str):
        return Verdict(False, reason=rows)
    if len(rows) != x_steps + 1:
        return Verdict(False, reason=f"{len(rows)} rows, expected {x_steps + 1}")
    step = (x_max - x_min) / x_steps
    worst = 0.0
    for i, row in enumerate(rows):
        try:
            x_text, c_text, flag = row.split(",")
            x, c = float(x_text), float(c_text)
        except ValueError:
            return Verdict(False, worst, f"row {i} malformed: {row!r}")
        if abs(x - (x_min + i * step)) > GRID_TOL * max(1.0, abs(x)):
            return Verdict(False, worst, f"row {i}: x={x!r} off the grid")
        dev = abs(c - lgi_closed(x))
        if not dev <= TOL:
            return Verdict(False, _worst(worst, dev), f"row {i}: C={c!r} off 3cos(2x)-cos(6x) by {dev:.3e}")
        worst = max(worst, dev)
        if flag != ("true" if c > 2.0 + 1e-12 else "false"):
            return Verdict(False, worst, f"row {i}: violates flag {flag!r} wrong for C={c!r}")
    return Verdict(True, worst)


def surface_rows(text: str) -> str:
    """The data part of a cond-surface CSV: everything after the metadata line."""
    return text.partition("\n")[2]


def check_cond_surface(text: str, grid_n: int) -> Verdict:
    """Rows lambda_c,lambda_r,P_stationary,P_timeavg,advantage against the closed forms."""
    rows = _split_csv(text, "cond-surface", "lambda_c,lambda_r,P_stationary,P_timeavg,advantage")
    if isinstance(rows, str):
        return Verdict(False, reason=rows)
    if len(rows) != grid_n * grid_n:
        return Verdict(False, reason=f"{len(rows)} rows, expected {grid_n * grid_n}")
    worst = 0.0
    for i, row in enumerate(rows):
        try:
            lc, lr, p_st, p_td, adv = map(float, row.split(","))
        except ValueError:
            return Verdict(False, worst, f"row {i} malformed: {row!r}")
        grid_dev = max(abs(lc - (i // grid_n) / (grid_n - 1)), abs(lr - (i % grid_n) / (grid_n - 1)))
        if not grid_dev <= GRID_TOL:
            return Verdict(False, worst, f"row {i}: sharpness ({lc!r}, {lr!r}) off the grid")
        product = lc * lr
        dev = max(
            abs(p_st - (1.0 + product) / 2.0),
            abs(p_td - (2.0 + product) / 4.0),
            abs(adv - product / 4.0),
        )
        if not dev <= TOL:
            return Verdict(False, _worst(worst, dev), f"row {i}: off (1+lc*lr)/2, (2+lc*lr)/4 by {dev:.3e}")
        worst = max(worst, dev)
    return Verdict(True, worst)


def check_report(text: str) -> Verdict:
    try:
        passed = json.loads(text).get("pass")
    except (ValueError, AttributeError):
        return Verdict(False, reason="report is not a JSON object")
    if passed is not True:
        return Verdict(False, reason=f'report has "pass": {passed!r}')
    return Verdict(True)


def check_value(value, expected: float) -> Verdict:
    """A library result against its closed form, to TOL."""
    dev = abs(float(value) - expected)
    if not dev <= TOL:
        return Verdict(False, _worst(0.0, dev), f"{value!r} off {expected!r} by {dev:.3e}")
    return Verdict(True, dev)
