"""Command line interface.

Subcommands: lgi-scan, cond-surface, cond-slice, report, dof, wd-check.
Datasets are written as CSV (one '#' metadata line, a header line, then
rows) or JSON ({"meta": ..., "rows": [...]}), with '\n' endings, so
identical configurations produce byte-identical files. One block writer,
_write_rows, lays out both, BLOCK_ROWS rows at a time, and every cell is the
same text in both: a float is its exact "%.17g" text (_float_cells). So JSON
has 2 and -0 for 2.0 and -0.0, and refuses inf and NaN, which it has no text
for, as a numerical integrity error. A factored column (values, index), as
cond-surface writes all of its columns, has each value formatted once per
dataset. --out is replaced atomically once complete (_output). Every
reported quantity is dimensionless, which makes the data independent of
--omega.

Exit codes: 0 success, 1 usage error, 2 I/O or resource error (out of
memory included; a closed pipe exits quietly), 3 numerical integrity.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import stat
import sys
import threading

import numpy as np

from . import __version__
from .conditional import (
    PANELS,
    ConditionalQuery,
    MeasurementKind,
    StateKind,
    conditional_probability,
    stationary_state,
)
from .dof import Spin, massive_graviton_dof, massless_graviton_dof, spin_multiplicity
from .dynamics import UNIT_CLOCK, global_hamiltonian, wd_residual
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
# the largest --dim whose massive count D(D - 1)/2 - 1 fits the writer's widest integer cells, 2**64 - 1
_MAX_DIM = (1 + math.isqrt(1 + 2**67)) // 2  # 6074001000

# temp names tried beside an --out target before giving up, an I/O error
_TEMP_TRIES = 100

# rows formatted and written at a time: the text of one block stays near 2 MB
BLOCK_ROWS = 2**14

_BOOL_CELLS = np.array([b"false", b"true"]).view("V5")  # NUL-padded, as every cell


class _BlockText(threading.local):
    """Each thread's NUL-padded block text and the row template it repeats. A block with the
    same template and row count reuses it: each block writes every cell slot, and the template
    holds the rest. A text allocated and freed per block made an op's cost follow glibc's heap
    history: in some processes every README-size op regrew the heap by it, 56 page faults."""

    def __init__(self):
        self.row, self.text = bytearray(), bytearray()


_BLOCK = _BlockText()


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


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _native(value):
    """value as a Python scalar for json.dumps; a non-finite float as its _fmt text, as JSON has no number for it."""
    value = np.asarray(value).item()
    return _fmt(value) if isinstance(value, float) and not math.isfinite(value) else value


def _meta_string(command: str, items: list[tuple[str, object]]) -> str:
    parts = [f"{TOOL} {command} version={__version__}"]
    parts.extend(f"{key}={_fmt(value)}" for key, value in items)
    return " ".join(parts)


def _meta_object(command: str, items: list[tuple[str, object]]) -> dict:
    meta: dict = {"tool": TOOL, "version": __version__, "command": command}
    meta.update({key: _native(value) for key, value in items})
    return meta


def _float_cells(values: np.ndarray) -> np.ndarray:
    """The ``"%.17g" % v`` text of each float, as the NUL-padded rows of an (n, 24) uint8 matrix.

    "%.17g" writes 1e-4 <= |v| < 1e17 in fixed notation, from the correctly
    rounded 17-digit integer D = round(|v| 10**(16-k)), k = floor(log10 |v|).
    A Dekker two-product gives |v| 10**(16-k) exactly as product + error, and
    product >= 1e16 > 2**53 is an even integer, so product + rint(error) is D
    rounded half to even, as "%.17g" rounds. A D outside [1e16, 1e17) means
    log10 was off by one or the rounding carried into an 18th digit: that
    cell and any value outside fixed notation, ±0.0 and non-finite values
    included, is written by "%.17g" itself. Every double below 10**k,
    -4 <= k <= 16, lies at least 8e-17 of 10**k below it, so a log10 rounded
    up to k gives D < 1e16.
    """
    magnitude = np.abs(values)
    fixed = (magnitude >= 1e-4) & (magnitude < 1e17)
    magnitude = np.where(fixed, magnitude, 1.0)
    k = np.minimum(np.maximum(np.floor(np.log10(magnitude)), -4.0), 16.0).astype(np.intp)
    power = 16 - k
    scale, scale_hi, scale_lo = _SCALE.take(power), _SCALE_HI.take(power), _SCALE_LO.take(power)
    product = magnitude * scale
    hi, lo = _split(magnitude)
    error = ((hi * scale_hi - product) + hi * scale_lo + lo * scale_hi) + lo * scale_lo
    digits = product.astype(np.int64) + np.rint(error).astype(np.int64)
    fixed &= (digits >= 10**16) & (digits < 10**17)
    digits = np.where(fixed, digits, 10**16)  # any 17 digits, so that every table index below is in range

    upper, lower = _divmod(digits, 10**8)
    lead, upper = _divmod(upper, 10**8)
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
    other = ~fixed
    if other.any():
        text = ["%.17g" % value for value in values[other].tolist()]
        cells[other] = np.array(text, dtype=f"S{_CELL}").view(np.uint8).reshape(-1, _CELL)
    return cells


def _row_count(column) -> int:
    """The rows of a column: a 1-d array, or a factored column ``(values, index)`` for values[index]."""
    return len(column[1]) if isinstance(column, tuple) else len(column)


def _text_block(columns, pieces) -> bytearray:
    """One block of rows as ASCII bytes, each row pieces[0], cell, pieces[1], ..., cell, pieces[-1].

    The rows are laid out from one repeated row template in a NUL-padded byte
    matrix, the thread's _BLOCK text, whose NULs are then dropped. A factored column comes as ``(cells,
    index)``, its values already formatted (_factored_cells), so its rows only
    gather their cells through the index. The floats of the plain float
    columns go through one _float_cells call, which gives each its text in a
    24-byte cell. Each cell is written as one item.
    """
    rows = _row_count(columns[0])
    widths = [
        _CELL if isinstance(column, tuple) else {"b": 5, "i": 20, "u": 20}.get(column.dtype.kind, _CELL)
        for column in columns
    ]
    template, starts = bytearray(), []
    for piece, width in zip(pieces, widths):
        template += piece
        starts.append(len(template))
        template += bytes(width)
    row = template + pieces[-1]
    if _BLOCK.row != row or len(_BLOCK.text) != len(row) * rows:
        _BLOCK.row, _BLOCK.text = row, row * rows  # a new text: a view of the old may still be alive
    text = _BLOCK.text
    matrix = np.frombuffer(text, np.uint8).reshape(rows, -1)
    floats, slots = [], []  # the plain float columns and their cells
    for values, start, width in zip(columns, starts, widths):
        cells = matrix[:, start : start + width].view(f"V{width}")[:, 0]  # one item a cell
        if isinstance(values, tuple):
            cells[:] = values[0].take(values[1])
        elif values.dtype == np.bool_:
            cells[:] = _BOOL_CELLS.take(values.view(np.uint8))
        elif values.dtype.kind in "iu":
            cells[:] = values.astype("S20").view("V20")  # exact for all of int64
        else:
            floats.append(values)
            slots.append(cells)
    if floats:
        formatted = _float_cells(np.concatenate(floats)).view(f"V{_CELL}").reshape(len(floats), rows)
        for cells, part in zip(slots, formatted):
            cells[:] = part
    return text.translate(None, b"\0")


def _blocks(columns):
    """The columns, BLOCK_ROWS rows at a time; a factored column keeps its cells and slices its index."""
    for lo in range(0, _row_count(columns[0]), BLOCK_ROWS):
        rows = slice(lo, lo + BLOCK_ROWS)
        yield [(column[0], column[1][rows]) if isinstance(column, tuple) else column[rows] for column in columns]


def _factored_cells(columns):
    """The columns with each factored column's values as their 24-byte cells. The values of all
    factored columns are formatted once for the dataset, into one array, BLOCK_ROWS values a
    _float_cells call, so that the call's temporaries stay the size of a block's."""
    factored = [column[0] for column in columns if isinstance(column, tuple)]
    values = np.concatenate(factored) if factored else np.empty(0)
    cells = np.empty(values.size, f"V{_CELL}")
    for lo in range(0, values.size, BLOCK_ROWS):
        cells[lo : lo + BLOCK_ROWS] = _float_cells(values[lo : lo + BLOCK_ROWS]).view(f"V{_CELL}")[:, 0]
    columns, lo = list(columns), 0
    for n, column in enumerate(columns):
        if isinstance(column, tuple):
            columns[n], lo = (cells[lo : lo + column[0].size], column[1]), lo + column[0].size
    return columns


def _write_rows(handle, command: str, meta_items, fieldnames, columns, fmt: str) -> None:
    """Write a dataset, BLOCK_ROWS rows at a time.

    The text is byte-identical to a CSV with one line per row and "%.17g" floats, or
    to ``json.dumps({"meta": ..., "rows": [...]}, indent=2) + "\n"`` with the rows' floats
    in that text; JSON refuses inf and NaN, at their first column and row, before writing.
    A factored float column ``(values, index)`` stands for values[index]: its values are
    formatted once for the dataset (_factored_cells), and each block gathers their cells.
    """
    if fmt == "json":
        for name, column in zip(fieldnames, columns):
            values, index = column if isinstance(column, tuple) else (column, slice(None))
            finite = np.isfinite(values)
            if finite.all():
                continue
            read = finite[index]  # a factored column gathers only its mask; a value no row reads is not written
            if not read.all():
                row = int(read.argmin())
                value = float(values[index][row])
                raise NumericalIntegrityError(f"column {name!r}, row {row}: {value!r} has no JSON text")
        meta = json.dumps({"meta": _meta_object(command, meta_items)}, indent=2)
        head = meta[: -len("\n}")] + ',\n  "rows": ['
        tail = "\n  ]\n}\n" if _row_count(columns[0]) else "]\n}\n"  # json.dumps writes no rows as []
        names = [json.dumps(name) for name in fieldnames]
        pieces = [f",\n    {{\n      {names[0]}: ", *(f",\n      {name}: " for name in names[1:]), "\n    }"]
    else:
        head, tail = f"# {_meta_string(command, meta_items)}\n{','.join(fieldnames)}", "\n"
        pieces = ["\n", *[","] * (len(fieldnames) - 1), ""]
    pieces = [piece.encode("ascii") for piece in pieces]
    handle.write(head.encode("utf-8"))
    for index, block in enumerate(_blocks(_factored_cells(columns))):
        text = _text_block(block, pieces)
        if index == 0 and fmt == "json":
            text = memoryview(text)[1:]  # no comma before the first row
        handle.write(text)
    handle.write(tail.encode("utf-8"))


def _create_temp(target: str) -> tuple[int, str]:
    """A new file ``.{name}.{pid}.{n}`` beside ``target``, opened for writing, with its path.

    One exclusive create makes it, with mode 0o666 less the umask, as
    ``open(path, "w")`` would. A name that is taken, even by a symlink, is
    neither followed nor written: the next n is tried, up to _TEMP_TRIES.
    """
    directory, name = os.path.split(target)
    prefix = os.path.join(directory, f".{name}.{os.getpid()}.")
    for n in range(_TEMP_TRIES):
        temp = f"{prefix}{n}"
        try:
            return os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC, 0o666), temp
        except FileExistsError:
            continue
    raise FileExistsError(f"no free temp name for {target!r}: {prefix}0 to {_TEMP_TRIES - 1} all exist")


@contextlib.contextmanager
def _output(path: str | None):
    """A binary handle on stdout, or on a temp file that replaces ``path`` once complete.

    Stdout is written through ``sys.stdout.buffer``, after the text already
    printed to ``sys.stdout`` is flushed; a ``sys.stdout`` without a buffer is
    an OSError. The temp file comes from _create_temp; a file it replaces
    keeps its own mode. A run that fails while writing leaves an existing
    ``path`` untouched and no temp file behind. One ``lstat`` finds the
    target: only a symlink is resolved, to the file it finally names. A path
    that exists and is not a regular file, such as a FIFO or /dev/null, is
    written directly.
    """
    if path is None:
        stdout = getattr(sys.stdout, "buffer", None)
        if stdout is None:
            raise OSError("stdout has no binary buffer to write to")
        sys.stdout.flush()
        yield stdout
        stdout.flush()  # so that a closed pipe fails here, inside the command
        return
    target = path
    try:
        mode = os.lstat(target).st_mode
        if stat.S_ISLNK(mode):
            target = os.path.realpath(path)
            mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(target, "wb") as handle:
            yield handle
        return
    fd, temp = _create_temp(target)
    try:
        with open(fd, "wb") as handle:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            yield handle
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def _write_dataset(command: str, meta_items, fieldnames, columns, args: argparse.Namespace) -> None:
    with _output(args.out) as handle:
        _write_rows(handle, command, meta_items, fieldnames, columns, args.format)


# --- dataset commands -------------------------------------------------------


def _cross_check(quantity, values: np.ndarray, closed: np.ndarray, where) -> None:
    """Raise NumericalIntegrityError unless every value is within CROSS_CHECK_TOL of closed, naming the worst
    point of the whole array, a NaN first, by where(index) and quantity, or the name of its row when stacked."""
    index = np.unravel_index(np.abs(values - closed).argmax(), values.shape)
    observed, expected = float(values[index]), float(closed[index])
    if not abs(observed - expected) <= CROSS_CHECK_TOL:  # a NaN fails too
        name = quantity if isinstance(quantity, str) else quantity[index[0]]
        raise NumericalIntegrityError(
            f"{name} and closed form disagree at {where(index)}: {observed!r} vs {expected!r}"
        )


def cmd_lgi_scan(args: argparse.Namespace) -> int:
    if not args.x_min < args.x_max:  # the one rule that spans two flags; each flag's range is in its type
        raise ValueError(f"--x-min {args.x_min!r} must be below --x-max {args.x_max!r}")
    xs = np.linspace(args.x_min, args.x_max, args.x_steps + 1)
    x_star, c_star = lgi_maximize(args.x_min, args.x_max)
    points = np.concatenate((xs, [x_star]))
    closed = np.concatenate((lgi_functional(xs), [c_star]))  # c_star is the closed form at x_star
    values = np.empty_like(closed)
    for lo in range(0, points.size, BLOCK_ROWS):  # bounds the engine's temporaries, ~0.5 kB a point
        values[lo : lo + BLOCK_ROWS] = lgi_functional_engine(points[lo : lo + BLOCK_ROWS])
    _cross_check("engine", values, closed, lambda index: f"x={float(points[index])!r}")
    meta = [
        ("omega", args.omega),
        ("x_min", args.x_min),
        ("x_max", args.x_max),
        ("x_steps", args.x_steps),
        ("x_star", x_star),
        ("c_star", c_star),
    ]
    columns = (xs, values[:-1], violates_classical_bound(values[:-1]))
    _write_dataset("lgi-scan", meta, ("x", "C", "violates"), columns, args)
    return 0


def _conditional_columns(lam_c: np.ndarray, lam_r: np.ndarray) -> np.ndarray:
    """The stationary and the time-averaged unsharp conditional at the sharpness points,
    stacked: one call per preparation, one comparison against the closed forms. Both are
    evaluated on the unit clock, UNIT_CLOCK: no conditional reads the frequency."""
    pair = SharpnessPair(lam_c, lam_r)
    kinds = (StateKind.STATIONARY, StateKind.TIME_DEPENDENT)
    queries = [ConditionalQuery(kind, MeasurementKind.UNSHARP, pair) for kind in kinds]
    values = np.array([conditional_probability(query, UNIT_CLOCK) for query in queries])
    product = lam_c * lam_r
    closed = np.array([(1.0 + product) / 2.0, (2.0 + product) / 4.0])
    where = lambda index: f"lambda_c={float(lam_c[index[-1]])!r}, lambda_r={float(lam_r[index[-1]])!r}"
    _cross_check([f"{kind.value} conditional" for kind in kinds], values, closed, where)
    return values


def _product_groups(grid: np.ndarray):
    """``(first, index)``: the row-major pairs of grid x grid grouped by the bits of lc * lr,
    first[g] the first pair of group g in row-major order (the sort is stable), index[pair] its group.

    Each conditional is a function of those bits. In the density-matrix route <Q_c> and <Q_r>
    are exactly +0.0 for both preparations, so for lc, lr in [0, 1] the numerator
    (m0 + lc*m_c - lr*m_r - lc*lr*m_cr)/4 is (m0 - (lc*lr)*m_cr)/4 and the denominator
    (m0 + lc*m_c)/2 is m0/2, bit for bit, as are the closed forms. Each product is >= +0.0
    and finite, so the unsigned order of its bits is its numeric order.
    """
    bits = np.multiply.outer(grid, grid).view(np.uint64).ravel()
    order = bits.argsort(kind="stable")
    ordered = bits.take(order)
    starts = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    index = np.empty_like(order)
    index[order] = starts.cumsum() - 1
    return order[starts], index


def cmd_cond_surface(args: argparse.Namespace) -> int:
    grid = np.linspace(0.0, 1.0, args.grid_n)
    i, j = _divmod(np.arange(args.grid_n**2), args.grid_n)  # row-major in (lambda_c, lambda_r)
    first, index = _product_groups(grid)
    p_st, p_td = _conditional_columns(grid[i[first]], grid[j[first]])
    meta = [("omega", args.omega), ("panels", PANELS), ("grid_n", args.grid_n)]
    fields = ("lambda_c", "lambda_r", "P_stationary", "P_timeavg", "advantage")
    columns = ((grid, i), (grid, j), (p_st, index), (p_td, index), (p_st - p_td, index))  # all factored
    _write_dataset("cond-surface", meta, fields, columns, args)
    return 0


def cmd_cond_slice(args: argparse.Namespace) -> int:
    lam = np.linspace(0.0, 1.0, args.grid_n)
    p_st, p_td = _conditional_columns(lam, lam)
    meta = [("omega", args.omega), ("panels", PANELS), ("grid_n", args.grid_n)]
    fields = ("lambda", "P_stationary", "P_timeavg")
    _write_dataset("cond-slice", meta, fields, (lam, p_st, p_td), args)
    return 0


def cmd_dof(args: argparse.Namespace) -> int:
    dim = args.dim
    columns = [np.array([value]) for value in (dim, massless_graviton_dof(dim), massive_graviton_dof(dim))]
    meta = [("dim", dim)]
    fields = ("D", "massless_dof", "massive_dof")
    _write_dataset("dof", meta, fields, columns, args)
    return 0


# --- summary commands -------------------------------------------------------


def _check(name: str, value, expected, tol: float | None = None) -> dict:
    """One report line: value within tol of expected, equal to it (no tol) or at most tol (no expected).
    Its target text and its pass flag both come from expected and tol; a NaN fails."""
    if expected is None:
        target, passed = f"{name} <= {tol:g}", value <= tol
    elif tol is None:
        target, passed = str(expected), value == expected
    else:
        target, passed = f"{_fmt(expected)} +- {tol:g}", abs(value - expected) <= tol
    return {"name": name, "value": _native(value), "target": target, "pass": bool(passed)}


def _wd_check() -> dict:
    # the residual in units of hbar*omega: the generator is evaluated at unit frequency
    residual = wd_residual(global_hamiltonian(UNIT_CLOCK), stationary_state(UNIT_CLOCK))
    return _check("wd_residual", residual, None, WD_TARGET)


def _report_checks() -> list[dict]:
    p_st = conditional_probability(ConditionalQuery(StateKind.STATIONARY, MeasurementKind.SHARP), UNIT_CLOCK)
    p_td = conditional_probability(ConditionalQuery(StateKind.TIME_DEPENDENT, MeasurementKind.SHARP), UNIT_CLOCK)
    x_star, c_max = lgi_maximize(0.0, math.pi / 2.0)
    checks = [
        _wd_check(),
        _check("P_sharp_stationary", p_st, 1.0, 1e-12),
        _check("P_sharp_timeavg", p_td, 0.75, 1e-10),
        _check("C_max", c_max, C_MAX_EXPECTED, 1e-10),
        _check("x_star", x_star, X_STAR_EXPECTED, 1e-8),
        _check("C_max_engine", lgi_functional_engine(x_star), C_MAX_EXPECTED, 1e-10),
    ]
    for dim, massless, massive in ((3, 0, 2), (4, 2, 5), (5, 5, 9)):
        checks.append(_check(f"dof_massless({dim})", massless_graviton_dof(dim), massless))
        checks.append(_check(f"dof_massive({dim})", massive_graviton_dof(dim), massive))
    for label, twice_j, expected in (("1/2", 1, 2), ("1", 2, 3), ("2", 4, 5)):
        checks.append(_check(f"multiplicity(j={label})", spin_multiplicity(Spin(twice_j)), expected))
    return checks


def _finish_checks(command: str, checks: list[dict], args: argparse.Namespace) -> int:
    """Write the checks and their verdict, as text lines or JSON; 3 when any check fails."""
    meta = [("omega", args.omega), ("panels", PANELS)]
    failing = [check["name"] for check in checks if not check["pass"]]
    if args.format == "json":
        text = json.dumps({"meta": _meta_object(command, meta), "checks": checks, "pass": not failing}, indent=2)
    else:
        lines = [f"# {_meta_string(command, meta)}"]
        for check in checks:
            status = "PASS" if check["pass"] else "FAIL"
            lines.append(f"{check['name']} = {_fmt(check['value'])} (target: {check['target']}) {status}")
        verdict = "FAIL" if failing else "PASS"
        lines.append(f"{command}: {verdict} ({len(checks) - len(failing)}/{len(checks)} checks)")
        text = "\n".join(lines)
    with _output(args.out) as handle:
        handle.write(f"{text}\n".encode("utf-8"))
    if failing:
        print(f"{TOOL} {command}: failed checks: {', '.join(failing)}", file=sys.stderr)
        return 3
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    return _finish_checks("report", _report_checks(), args)


def cmd_wd_check(args: argparse.Namespace) -> int:
    return _finish_checks("wd-check", [_wd_check()], args)


# --- argument handling ------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_bounded(parser, flag: str, kind, low, high, help: str, **kwargs) -> None:
    """Add flag with an argparse type that reads its text as kind and refuses a value outside [low, high],
    NaN included. The range, each end as its repr, exact for a float, ends both the help and the error."""
    span = f"[{low!r}, {high!r}]"

    def bounded(text: str):
        value = kind(text)  # a ValueError is argparse's "invalid <kind> value"
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"{text} is not in {span}")
        return value

    bounded.__name__ = kind.__name__
    parser.add_argument(flag, type=bounded, help=f"{help}, in {span}", **kwargs)


def _out_path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("an empty path names no file")
    return text


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process.

    Parsing leaves it unchanged, and each handler looks up its cmd_* function
    when it runs, not when the tree is built. The top parser's ``commands``
    holds each subcommand's parser, so that main parses a subcommand's
    arguments once, with that parser alone.
    """
    clock = _Parser(add_help=False)
    _add_bounded(clock, "--omega", float, math.ulp(0.0), sys.float_info.max, "clock angular frequency", default=1.0)

    output = _Parser(add_help=False)
    output.add_argument("--out", type=_out_path, help="output file (default: stdout)")
    output.add_argument("--format", choices=("csv", "json"), default="csv")

    grid = _Parser(add_help=False)
    _add_bounded(grid, "--grid-n", int, 2, _MAX_GRID_N, "sharpness grid points per axis", default=41)

    window = _Parser(add_help=False)
    _add_bounded(window, "--x-min", float, 0.0, _X_MAX, "start of the phase-gap window", default=0.0)
    _add_bounded(window, "--x-max", float, 0.0, _X_MAX, "end of the phase-gap window", default=math.pi)
    _add_bounded(window, "--x-steps", int, 1, _MAX_X_STEPS, "intervals across the window", default=1024)

    parser = _Parser(prog=TOOL, description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub = subparsers.add_parser("lgi-scan", parents=[clock, output, window],
                                help="Leggett-Garg combination over a phase-gap window")
    sub.set_defaults(handler=lambda args: cmd_lgi_scan(args))

    sub = subparsers.add_parser("cond-surface", parents=[clock, output, grid],
                                help="conditional probabilities over the sharpness grid")
    sub.set_defaults(handler=lambda args: cmd_cond_surface(args))

    sub = subparsers.add_parser("cond-slice", parents=[clock, output, grid],
                                help="conditional probabilities along lambda_c = lambda_r")
    sub.set_defaults(handler=lambda args: cmd_cond_slice(args))

    sub = subparsers.add_parser("report", parents=[clock, output],
                                help="run every headline check and summarize")
    sub.set_defaults(handler=lambda args: cmd_report(args))

    sub = subparsers.add_parser("dof", parents=[output],
                                help="graviton degrees of freedom in D dimensions")
    _add_bounded(sub, "--dim", int, 3, _MAX_DIM, "spacetime dimension", required=True)
    sub.set_defaults(handler=lambda args: cmd_dof(args))

    sub = subparsers.add_parser("wd-check", parents=[clock, output],
                                help="verify the averaged state is annihilated by the generator")
    sub.set_defaults(handler=lambda args: cmd_wd_check(args))
    parser.commands = subparsers.choices  # each subcommand's parser, by name
    return parser


def main(argv=None) -> int:
    """Run one command; returns its exit code.

    When argv starts with a subcommand, only that subcommand's parser reads the
    rest, so an argument error prints its usage line. No arguments, --help and
    an unknown command go through the top parser.
    """
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    try:
        args = parser.parse_args(argv) if command is None else command.parse_args(argv[1:])
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
    except BrokenPipeError:  # the reader stopped early, as `head` does: no message
        with contextlib.suppress(OSError), open(os.devnull, "wb") as devnull:  # so the flush at exit cannot fail
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 2
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
