"""Command line interface.

Subcommands: lgi-scan, cond-surface, cond-slice, report, dof, wd-check.
Datasets are written as CSV (one '#' metadata line, a header line, then
rows) or JSON ({"meta": ..., "rows": [...]}), with '\n' endings, so
identical configurations produce byte-identical files. CSV floats are the
exact "%.17g" text, rendered for a whole block at once by numpy array passes;
a cell those passes cannot vouch for is written by "%.17g" itself. JSON
floats are Python's repr, as json.dumps writes them. Rows are written in
blocks of BLOCK_ROWS, so memory stays bounded at every size, and --out is
replaced atomically once complete.
Every reported quantity is dimensionless, which makes the data independent
of --omega.

Exit codes: 0 success, 1 usage error, 2 I/O or resource error (out of
memory included), 3 numerical integrity.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import stat
import sys
import tempfile
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
from .lgi import X_MAX as _X_MAX
from .lgi import lgi_functional, lgi_functional_engine, lgi_maximize, violates_classical_bound
from .measurement import SharpnessPair

TOOL = "photonclock"
CROSS_CHECK_TOL = 1e-10
WD_TARGET = 1e-12

C_MAX_EXPECTED = 2.0 * math.sqrt(2.0)
X_STAR_EXPECTED = math.pi / 8.0

# the input envelope: x-max is capped at the engine's domain, lgi.X_MAX; the
# size caps keep a huge size a usage error instead of a MemoryError
_MAX_X_STEPS = 2**20
_MAX_GRID_N = 1024
_MAX_PANELS = 2**16

# rows formatted and written at a time: the text of one block stays near 2 MB
BLOCK_ROWS = 2**14

_BOOL_TEXT = np.array(["false", "true"], dtype=object)  # JSON
_BOOL_CELLS = np.array([b"false", b"true"]).view(np.uint8).reshape(2, 5)  # CSV, NUL-padded as every CSV cell


def _split(a):
    """Dekker's split: a == hi + lo exactly, each with at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _divmod(a, b):
    quotient = a // b  # np.divmod is several times slower on int64
    return quotient, a - quotient * b


# 10**(16 - k) for k = 16 .. -4, all exact doubles, with their Dekker halves
_SCALE = np.array([float(10**n) for n in range(21)])
_SCALE_HI, _SCALE_LO = _split(_SCALE)

# A float cell is 24 bytes, the widest "%.17g" text, "-2.2250738585072014e-308", NUL-padded.
# A value written in fixed notation is first laid out as: byte 0 its sign, bytes 1..5 what
# precedes the digits of a value below 1 ("0." and up to three zeros), byte 6 free, byte 7
# its lead digit and bytes 8..23 its 16 further digits. For k = floor(log10 |v|) >= 0 the
# k + 1 integer digits then move one byte left, to 6..6+k, and byte 7+k takes the point.
# Cells are handled as three 8-byte words that are only copied and masked, never added, so
# byte order does not matter.
_CELL = 24
_DIGITS = np.arange(10**4, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10
_DIGITS = (_DIGITS + ord("0")).astype(np.uint8)
_DIGIT_WORDS = _DIGITS.view(np.uint32).ravel()  # the four ASCII digits of 0..9999, one word each
_TRAILING_ZEROS = np.logical_and.accumulate(_DIGITS[:, ::-1] == ord("0"), axis=1).sum(axis=1, dtype=np.uint8)


def _cell_tables():
    """The first word of a cell by (sign, -k for k < 0, lead digit); and, by
    (k + 4) * 17 + the index of the last nonzero digit, the bytes a cell keeps,
    the bytes it takes from its copy shifted one byte left, and its point."""
    head = np.zeros((2, 5, 10, 8), np.uint8)
    head[..., 0] = np.array([0, ord("-")])[:, None, None]
    head[..., 1:6] = np.array([b"", b"0.", b"0.0", b"0.00", b"0.000"]).view(np.uint8).reshape(5, 1, 5)
    head[..., 7] = np.arange(10) + ord("0")
    k, last, byte = np.arange(-4, 17)[:, None, None], np.arange(17)[:, None], np.arange(_CELL)
    kept = (byte <= 7 + last) & ~((byte >= 6) & (byte <= 7 + k))
    moved = np.broadcast_to((byte >= 6) & (byte <= 6 + k), kept.shape)
    point = (byte == 7 + k) & (k >= 0) & (last > k)
    words = lambda table, fill: (table.view(np.uint8) * np.uint8(fill)).reshape(-1, _CELL).view(np.uint64)
    return head.view(np.uint64).ravel(), words(kept, 0xFF), words(moved, 0xFF), words(point, ord("."))


_HEADS, _KEPT, _MOVED, _POINT = _cell_tables()


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
        if self.panels > _MAX_PANELS:
            raise ValueError(f"panels must be at most {_MAX_PANELS}")
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


def _repeats(values: np.ndarray):
    """``(distinct, inverse)`` with ``distinct[inverse]`` equal to ``values``, when at most
    half of the values are distinct; otherwise None.

    Values are told apart by their bits, so -0.0 stays apart from 0.0.
    """
    bits = values.view(f"u{values.itemsize}")
    ordered = np.sort(bits)
    distinct_count = 1 + np.count_nonzero(ordered[1:] != ordered[:-1])
    if 2 * distinct_count > bits.size:
        return None
    distinct, inverse = np.unique(bits, return_inverse=True)  # the inverse indexes the rows as written
    return distinct.view(values.dtype), inverse


def _float_cells(values: np.ndarray) -> np.ndarray:
    """The ``"%.17g" % v`` text of each float, as the NUL-padded rows of an (n, 24) uint8 matrix.

    "%.17g" writes 1e-4 <= |v| < 1e17 in fixed notation, from the correctly
    rounded 17-digit integer D = round(|v| 10**(16-k)), k = floor(log10 |v|).
    A Dekker two-product gives |v| 10**(16-k) exactly as product + error, and
    product >= 1e16 > 2**53 is an even integer, so product + rint(error) is D
    rounded half to even, as "%.17g" rounds. A D outside [1e16, 1e17) means
    log10 was off by one or the rounding carried into an 18th digit: that
    cell, any other nonzero value and any non-finite value is written by
    "%.17g" itself. Every double below 10**k, -4 <= k <= 16, lies at least
    8e-17 of 10**k below it, so a log10 rounded up to k gives D < 1e16.
    """
    magnitude = np.abs(values)
    fixed = (magnitude >= 1e-4) & (magnitude < 1e17)
    magnitude = np.where(fixed, magnitude, 1.0)
    k = np.clip(np.floor(np.log10(magnitude)), -4, 16).astype(np.intp)
    power = 16 - k
    scale, scale_hi, scale_lo = _SCALE.take(power), _SCALE_HI.take(power), _SCALE_LO.take(power)
    product = magnitude * scale
    hi, lo = _split(magnitude)
    error = ((hi * scale_hi - product) + hi * scale_lo + lo * scale_hi) + lo * scale_lo
    digits = product.astype(np.int64) + np.rint(error).astype(np.int64)
    fixed &= (digits >= 10**16) & (digits < 10**17)
    digits = np.where(fixed, digits, 10**16)  # any 17 digits, so that every table index below is in range

    zero = values == 0.0
    upper, lower = _divmod(digits, 10**8)
    lead, upper = _divmod(upper, 10**8)
    lead *= ~zero  # a zero's digits are now a 1 and sixteen 0s: its 1 becomes 0 too
    words = [*_divmod(upper, 10**4), *_divmod(lower, 10**4)]
    cells = np.empty((values.size, 3), np.uint64)
    cells[:, 0] = _HEADS.take((np.signbit(values) * 5 + np.maximum(-k, 0)) * 10 + lead)
    digit_words = cells[:, 1:].view(np.uint32)
    for index, word in enumerate(words):
        digit_words[:, index] = _DIGIT_WORDS.take(word)

    zeros = _TRAILING_ZEROS.take(words[0])
    for word in words[1:]:
        zeros = np.where(word == 0, zeros + 4, _TRAILING_ZEROS.take(word))
    layout = (k + 4) * 17 + 16 - zeros
    # the integer digits move from this copy, taken before the trailing zeros go, so none of them is lost
    shifted = np.empty_like(cells)
    shifted.view(np.uint8).ravel()[:-1] = cells.view(np.uint8).ravel()[1:]
    cells &= _KEPT.take(layout, axis=0)
    cells |= shifted & _MOVED.take(layout, axis=0)
    cells |= _POINT.take(layout, axis=0)

    cells = cells.view(np.uint8)
    other = ~(fixed | zero)
    if other.any():
        text = ["%.17g" % value for value in values[other].tolist()]
        cells[other] = np.array(text, dtype=f"S{_CELL}").view(np.uint8).reshape(-1, _CELL)
    return cells


def _csv_block(columns) -> str:
    """One block of rows as CSV lines, each led by its '\\n'.

    The rows are assembled in one NUL-padded byte matrix, whose NULs are then
    dropped. The floats of all float columns go through one _float_cells call.
    A float column with at most half of its values distinct sends only those,
    and its rows gather their cells through the inverse.
    """
    rows = len(columns[0])
    widths = [5 if column.dtype == np.bool_ else 20 if column.dtype.kind in "iu" else _CELL for column in columns]
    starts = np.cumsum([1] + [width + 1 for width in widths])  # each cell after its newline or comma
    text = bytearray(rows * (starts[-1] - 1))
    matrix = np.frombuffer(text, np.uint8).reshape(rows, -1)
    matrix[:, 0] = ord("\n")
    matrix[:, starts[1:-1] - 1] = ord(",")
    floats, slots = [], []
    for values, start, width in zip(columns, starts, widths):
        cells = matrix[:, start : start + width]
        if values.dtype == np.bool_:
            cells[:] = _BOOL_CELLS.take(values.view(np.uint8), axis=0)
        elif values.dtype.kind in "iu":
            cells[:] = values.astype("S20").view(np.uint8).reshape(rows, 20)  # exact for all of int64
        else:
            repeats = _repeats(values)
            floats.append(values if repeats is None else repeats[0])
            slots.append((cells, None if repeats is None else repeats[1]))
    if floats:
        parts = np.split(_float_cells(np.concatenate(floats)), np.cumsum([part.size for part in floats[:-1]]))
        for (cells, inverse), part in zip(slots, parts):
            cells[:] = part if inverse is None else part.take(inverse, axis=0)
    return text.translate(None, b"\0").decode("ascii")


def _block_values(columns) -> list:
    """One block of rows as one flat row-major list of the JSON text of each cell's value.

    A column with at most half of its values distinct has each distinct value
    formatted once, and its cells arrive as those strings. Any other column
    arrives as Python values, whose str is their JSON text.
    """
    cells = []
    for values in columns:
        if values.dtype == np.bool_:
            cells.append(_BOOL_TEXT[values.view(np.uint8)])
        elif values.dtype.kind == "f" and not np.isfinite(values).all():
            # json.dumps spells these Infinity, -Infinity and NaN, where str writes inf and nan
            cells.append(np.array([json.dumps(value) for value in values.tolist()], dtype=object))
        elif (repeats := _repeats(values)) is not None:
            distinct, inverse = repeats
            cells.append(np.array(list(map(str, distinct.tolist())), dtype=object)[inverse])
        else:
            cells.append(values)
    if len({cell.dtype for cell in cells}) > 1:
        cells = [cell.astype(object) for cell in cells]  # no promotion of one column to another's type
    return np.column_stack(cells).ravel().tolist()


def _blocks(columns):
    """The columns, BLOCK_ROWS rows at a time."""
    for lo in range(0, len(columns[0]), BLOCK_ROWS):
        yield [column[lo : lo + BLOCK_ROWS] for column in columns]


def _write_rows(handle, command: str, meta_items, fieldnames, columns, fmt: str) -> None:
    """Write a dataset, BLOCK_ROWS rows at a time.

    The text is byte-identical to a CSV with one line per row and "%.17g"
    floats, or to ``json.dumps({"meta": ..., "rows": [...]}, indent=2) + "\n"``.
    """
    if fmt == "json":
        meta = json.dumps({"meta": _meta_object(command, meta_items)}, indent=2)
        handle.write(meta[: -len("\n}")] + ',\n  "rows": [')
        row = ",\n    {\n" + ",\n".join(f"      {json.dumps(name)}: %s" for name in fieldnames) + "\n    }"
        render, tail = lambda block: row * len(block[0]) % tuple(_block_values(block)), "\n  ]\n}\n"
    else:
        handle.write(f"# {_meta_string(command, meta_items)}\n{','.join(fieldnames)}")
        render, tail = _csv_block, "\n"
    for index, block in enumerate(_blocks(columns)):
        text = render(block)
        handle.write(text[1:] if index == 0 and fmt == "json" else text)  # no comma before the first row
    handle.write(tail)


@contextlib.contextmanager
def _output(path: str | None):
    """A text handle on stdout, or on a temp file that replaces ``path`` once complete.

    A run that fails while writing leaves an existing ``path`` untouched and
    no temp file behind. The new file gets the mode ``open(path, "w")`` would
    give it. A path that exists and is not a regular file, such as a FIFO or
    /dev/null, is written directly.
    """
    if not path:
        yield sys.stdout
        return
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(target, "w", encoding="utf-8", newline="") as handle:
            yield handle
        return
    if mode is None:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, temp = tempfile.mkstemp(prefix=f".{os.path.basename(target)}.", dir=os.path.dirname(target))
    try:
        with open(fd, "w", encoding="utf-8", newline="") as handle:
            os.fchmod(fd, stat.S_IMODE(mode))
            yield handle
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def _write_dataset(command: str, meta_items, fieldnames, columns, config: RunConfig) -> None:
    with _output(config.output_path) as handle:
        _write_rows(handle, command, meta_items, fieldnames, columns, config.format)


# --- dataset commands -------------------------------------------------------


def cmd_lgi_scan(config: RunConfig) -> int:
    xs = np.linspace(config.x_min, config.x_max, config.x_steps + 1)
    x_star, c_star = lgi_maximize(config.x_min, config.x_max)
    points = np.append(xs, x_star)
    closed = lgi_functional(points)
    values = closed.copy()  # the sequential schedule degenerates at zero gap
    gaps = np.flatnonzero(points > 0.0)
    for lo in range(0, gaps.size, BLOCK_ROWS):  # bounds the engine's temporaries, ~0.5 kB a point
        block = gaps[lo : lo + BLOCK_ROWS]
        values[block] = lgi_functional_engine(points[block])
    worst = int(np.argmax(np.abs(values - closed)))
    if not abs(values[worst] - closed[worst]) <= CROSS_CHECK_TOL:  # a NaN fails too
        raise NumericalIntegrityError(
            f"engine and closed form disagree at x={float(points[worst])!r}: "
            f"{float(values[worst])!r} vs {float(closed[worst])!r}"
        )
    meta = [
        ("omega", config.omega),
        ("x_min", config.x_min),
        ("x_max", config.x_max),
        ("x_steps", config.x_steps),
        ("x_star", x_star),
        ("c_star", c_star),
    ]
    columns = (xs, values[:-1], violates_classical_bound(values[:-1]))
    _write_dataset("lgi-scan", meta, ("x", "C", "violates"), columns, config)
    return 0


def _conditional_columns(lam_c: np.ndarray, lam_r: np.ndarray, config: RunConfig) -> np.ndarray:
    """The stationary and the time-averaged unsharp conditional at the sharpness points,
    stacked: one call per preparation, one comparison against the closed forms."""
    spec, quad = ClockSpec(config.omega), QuadratureSpec(config.panels)
    pair = SharpnessPair(lam_c, lam_r)
    kinds = (StateKind.STATIONARY, StateKind.TIME_DEPENDENT)
    queries = [ConditionalQuery(kind, MeasurementKind.UNSHARP, pair) for kind in kinds]
    values = np.stack([conditional_probability(query, spec, quad) for query in queries])
    product = lam_c * lam_r
    closed = np.stack([(1.0 + product) / 2.0, (2.0 + product) / 4.0])
    kind, point = np.unravel_index(np.argmax(np.abs(values - closed)), values.shape)
    if not abs(values[kind, point] - closed[kind, point]) <= CROSS_CHECK_TOL:  # a NaN fails too
        raise NumericalIntegrityError(
            f"{kinds[kind].value} conditional and closed form disagree at "
            f"lambda_c={float(lam_c[point])!r}, lambda_r={float(lam_r[point])!r}: "
            f"{float(values[kind, point])!r} vs {float(closed[kind, point])!r}"
        )
    return values


def cmd_cond_surface(config: RunConfig) -> int:
    grid = np.linspace(0.0, 1.0, config.grid_n)
    lam_c, lam_r = (axis.ravel() for axis in np.meshgrid(grid, grid, indexing="ij"))
    p_st, p_td = _conditional_columns(lam_c, lam_r, config)
    meta = [("omega", config.omega), ("panels", config.panels), ("grid_n", config.grid_n)]
    fields = ("lambda_c", "lambda_r", "P_stationary", "P_timeavg", "advantage")
    _write_dataset("cond-surface", meta, fields, (lam_c, lam_r, p_st, p_td, p_st - p_td), config)
    return 0


def cmd_cond_slice(config: RunConfig) -> int:
    lam = np.linspace(0.0, 1.0, config.grid_n)
    p_st, p_td = _conditional_columns(lam, lam, config)
    meta = [("omega", config.omega), ("panels", config.panels), ("grid_n", config.grid_n)]
    fields = ("lambda", "P_stationary", "P_timeavg")
    _write_dataset("cond-slice", meta, fields, (lam, p_st, p_td), config)
    return 0


def cmd_dof(config: RunConfig, dim: int) -> int:
    columns = [np.array([value]) for value in (dim, massless_graviton_dof(dim), massive_graviton_dof(dim))]
    meta = [("dim", dim)]
    fields = ("D", "massless_dof", "massive_dof")
    _write_dataset("dof", meta, fields, columns, config)
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
    with _output(config.output_path) as handle:
        handle.write(_render_checks(command, meta_items, checks, config.format))
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process.

    Parsing leaves it unchanged, and each handler looks up its cmd_* function
    when it runs, not when the tree is built.
    """
    clock = _Parser(add_help=False)
    clock.add_argument("--omega", type=float, default=RunConfig.omega, help="clock angular frequency")

    output = _Parser(add_help=False)
    output.add_argument("--out", dest="output_path", metavar="OUT", default=RunConfig.output_path,
                        help="output file (default: stdout)")
    output.add_argument("--format", choices=("csv", "json"), default=RunConfig.format)

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

    sub = subparsers.add_parser("lgi-scan", parents=[clock, output, window],
                                help="Leggett-Garg combination over a phase-gap window")
    sub.set_defaults(handler=lambda args: cmd_lgi_scan(_config_from(args)))

    sub = subparsers.add_parser("cond-surface", parents=[clock, output, quad, grid],
                                help="conditional probabilities over the sharpness grid")
    sub.set_defaults(handler=lambda args: cmd_cond_surface(_config_from(args)))

    sub = subparsers.add_parser("cond-slice", parents=[clock, output, quad, grid],
                                help="conditional probabilities along lambda_c = lambda_r")
    sub.set_defaults(handler=lambda args: cmd_cond_slice(_config_from(args)))

    sub = subparsers.add_parser("report", parents=[clock, output, quad],
                                help="run every headline check and summarize")
    sub.set_defaults(handler=lambda args: cmd_report(_config_from(args)))

    sub = subparsers.add_parser("dof", parents=[output],
                                help="graviton degrees of freedom in D dimensions")
    sub.add_argument("--dim", type=int, required=True, help="spacetime dimension (>= 3)")
    sub.set_defaults(handler=lambda args: cmd_dof(_config_from(args), args.dim))

    sub = subparsers.add_parser("wd-check", parents=[clock, output, quad],
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
    except MemoryError as exc:
        print(f"{TOOL}: out of memory: {exc}", file=sys.stderr)
        return 2
    except NumericalIntegrityError as exc:
        print(f"{TOOL}: numerical integrity: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
