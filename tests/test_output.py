"""Dataset output: byte identity with the row-by-row renderer, atomic --out, bounded memory."""

import io
import json
import math
import os
import re
import stat
import struct
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import photonclock
import photonclock.cli as cli
from photonclock.cli import _fmt, _meta_object, _meta_string, _native, main
from photonclock.errors import NumericalIntegrityError


def _json_cell(value):
    """A row value for json.dumps: a float becomes its "%.17g" text behind a NUL, which json.dumps
    escapes as \\u0000 and which no other string in a dataset holds."""
    return "\0" + _fmt(value) if isinstance(value, float) else _native(value)


def _render_dataset(command: str, meta_items, fieldnames, rows, fmt: str) -> str:
    """The row-by-row renderer the block writer replaced: the oracle for every dataset's text.

    JSON is json.dumps's layout with each float of the rows in the CSV's "%.17g" text.
    """
    if fmt == "json":
        obj = {
            "meta": _meta_object(command, meta_items),
            "rows": [dict(zip(fieldnames, map(_json_cell, row))) for row in rows],
        }
        return re.sub(r'"\\u0000([^"]*)"', r"\1", json.dumps(obj, indent=2) + "\n")
    lines = [f"# {_meta_string(command, meta_items)}", ",".join(fieldnames)]
    lines.extend(",".join(_fmt(value) for value in row) for row in rows)
    return "\n".join(lines) + "\n"


def _expanded(column) -> np.ndarray:
    """A dataset column as its plain values: a factored ``(values, index)`` column is ``values[index]``."""
    if isinstance(column, tuple):
        values, index = column
        return values[index]
    return column


def _record_oracle(monkeypatch) -> list[str]:
    """Pass each command's columns on to the writer, and list the oracle's text for them."""
    seen = []
    real = cli._write_dataset

    def spy(command, meta_items, fieldnames, columns, config):
        rows = zip(*(_expanded(column).tolist() for column in columns))
        seen.append(_render_dataset(command, meta_items, fieldnames, rows, config.format))
        real(command, meta_items, fieldnames, columns, config)

    monkeypatch.setattr(cli, "_write_dataset", spy)
    return seen


@pytest.fixture
def oracle(monkeypatch):
    return _record_oracle(monkeypatch)


def assert_matches_oracle(capsys, oracle, argv, out_file):
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert main(argv + ["--out", str(out_file)]) == 0
    assert oracle[0] == oracle[1]
    assert stdout == oracle[0]
    assert out_file.read_bytes() == oracle[0].encode("utf-8")
    oracle.clear()


README_RUNS = [
    ["lgi-scan", "--x-min", "0", "--x-max", repr(math.pi), "--x-steps", "1024"],
    ["cond-surface", "--grid-n", "41"],
    ["cond-slice", "--grid-n", "101"],
    ["dof", "--dim", "4"],
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", README_RUNS, ids=[argv[0] for argv in README_RUNS])
def test_readme_sizes_match_the_oracle(capsys, tmp_path, oracle, argv, fmt):
    assert_matches_oracle(capsys, oracle, argv + ["--format", fmt], tmp_path / "data")


def _cell_bits(value):
    """A bool as itself, any other number as the 8 bytes of its double, so that -0.0 is not 0.0."""
    return value if isinstance(value, bool) else struct.pack("<d", value)


@pytest.mark.parametrize("argv", README_RUNS, ids=[argv[0] for argv in README_RUNS])
def test_json_rows_are_the_csv_doubles(capsys, argv):
    # ints and integral floats both read back as floats; a CSV cell reads back through float()
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()[2:]
    bools = {"true": True, "false": False}
    csv_rows = [[_cell_bits(bools[cell] if cell in bools else float(cell)) for cell in line.split(",")]
                for line in lines]
    assert main(argv + ["--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out, parse_int=float)["rows"]
    assert [[_cell_bits(value) for value in row.values()] for row in rows] == csv_rows


def test_a_non_finite_json_cell_exits_three(capsys, tmp_path, monkeypatch):
    # no command's columns hold inf or NaN after their cross-checks; dof has none to pass
    monkeypatch.setattr(cli, "massive_graviton_dof", lambda dim: math.inf)
    assert main(["dof", "--dim", "4"]) == 0
    assert capsys.readouterr().out.endswith("4,2,inf\n")
    target = tmp_path / "dof.json"
    assert main(["dof", "--dim", "4", "--format", "json", "--out", str(target)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "photonclock: numerical integrity: column 'massive_dof', row 0: inf has no JSON text\n"
    assert list(tmp_path.iterdir()) == []


def test_a_factored_column_is_refused_at_the_first_row_that_gathers_a_nan():
    columns = [(np.array([0.0, np.nan, 1.0]), np.array([0, 2, 2, 1, 1])), np.zeros(5)]
    with pytest.raises(NumericalIntegrityError, match=r"^column 'c', row 3: nan has no JSON text$"):
        cli._write_rows(io.BytesIO(), "test", [], ["c", "d"], columns, "json")


BLOCK_RUNS = [
    ["lgi-scan", "--x-steps", "2"],
    ["lgi-scan", "--x-steps", "3"],
    ["lgi-scan", "--x-steps", "4"],
    ["lgi-scan", "--x-steps", "12"],
    ["cond-slice", "--grid-n", "3"],
    ["cond-slice", "--grid-n", "4"],
    ["cond-slice", "--grid-n", "5"],
    ["cond-surface", "--grid-n", "3"],
    ["dof", "--dim", "5"],
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", BLOCK_RUNS, ids=[" ".join(argv) for argv in BLOCK_RUNS])
def test_block_edges_match_the_oracle(capsys, tmp_path, monkeypatch, oracle, argv, fmt):
    # 1, 3, 4, 5, 9 and 13 rows against blocks of 4: short of, at, and past a block edge
    monkeypatch.setattr(cli, "BLOCK_ROWS", 4)
    assert_matches_oracle(capsys, oracle, argv + ["--format", fmt], tmp_path / "data")


REAL_BLOCK_RUNS = [["lgi-scan", "--x-steps", "40000"], ["cond-surface", "--grid-n", "150"]]
# a CSV run's id is its command name alone
REAL_BLOCK_CASES = [
    pytest.param(argv, fmt, id=argv[0] if fmt == "csv" else f"{argv[0]}-{fmt}")
    for fmt in ("csv", "json")
    for argv in REAL_BLOCK_RUNS
]


@pytest.mark.parametrize("argv, fmt", REAL_BLOCK_CASES)
def test_real_block_edges_match_the_oracle(capsys, tmp_path, oracle, argv, fmt):
    # 40001 and 22500 rows: two full blocks of 2**14 and a partial one, and one of each
    assert cli.BLOCK_ROWS == 2**14
    assert_matches_oracle(capsys, oracle, argv + ["--format", fmt], tmp_path / "data")


window = st.tuples(
    st.floats(0.0, 1e4, allow_nan=False), st.floats(0.0, 1e4, allow_nan=False)
).filter(lambda pair: pair[0] != pair[1]).map(sorted)
omega = st.builds(lambda mantissa, exponent: mantissa * 10.0**exponent,
                  st.floats(1.0, 9.99), st.integers(-300, 300))


@settings(max_examples=40)
@given(
    command=st.sampled_from(["lgi-scan", "cond-surface", "cond-slice"]),
    fmt=st.sampled_from(["csv", "json"]),
    grid_n=st.integers(2, 12),
    x_steps=st.integers(1, 40),
    x_window=window,
    omega=omega,
)
def test_small_runs_match_the_oracle(tmp_path_factory, command, fmt, grid_n, x_steps, x_window, omega):
    with pytest.MonkeyPatch.context() as monkeypatch:
        seen = _record_oracle(monkeypatch)
        argv = [command, "--format", fmt, "--omega", repr(omega)]
        if command == "lgi-scan":
            argv += ["--x-min", repr(x_window[0]), "--x-max", repr(x_window[1]), "--x-steps", str(x_steps)]
        else:
            argv += ["--grid-n", str(grid_n)]
        out_file = tmp_path_factory.mktemp("run") / "data"
        assert main(argv + ["--out", str(out_file)]) == 0
        assert out_file.read_bytes() == seen[0].encode("utf-8")


# the writer on columns no command produces: repeats, signed zeros, extremes, ints, long bool runs
def assert_writes_like_the_oracle(columns, fmt):
    """The writer's text is the oracle's; in JSON, the floats read back bit for bit, and inf or NaN
    is refused at its first row in the first column that holds one, before any text is written."""
    columns = [np.asarray(column) for column in columns]
    fieldnames = [f"c{index}" for index in range(len(columns))]
    meta = [("rows", len(columns[0]))]
    handle = io.BytesIO()
    non_finite = [(name, int(np.argmin(np.isfinite(column)))) for name, column in zip(fieldnames, columns)
                  if not np.isfinite(column).all()]
    if fmt == "json" and non_finite:
        name, row = non_finite[0]
        with pytest.raises(NumericalIntegrityError, match=rf"^column '{name}', row {row}: .* has no JSON text$"):
            cli._write_rows(handle, "test", meta, fieldnames, columns, fmt)
        assert handle.getvalue() == b""
        return
    cli._write_rows(handle, "test", meta, fieldnames, columns, fmt)
    rows = zip(*(column.tolist() for column in columns))
    text = handle.getvalue().decode("utf-8")
    assert text == _render_dataset("test", meta, fieldnames, rows, fmt)
    if fmt == "json":
        rows = json.loads(text, parse_int=float)["rows"]
        for name, column in zip(fieldnames, columns):
            if column.dtype.kind == "f":
                assert np.array([row[name] for row in rows], float).tobytes() == column.tobytes()


def distinct_values(column):
    """The values a one-column block of the whole column formats, or None when it formats every row."""
    column = np.asarray(column)
    groups = cli._row_groups([column])
    return None if groups is None else column[groups[0]]


def assert_groups_rebuild(columns):
    """Each column is its group values gathered back through the inverse, bit for bit; returns the groups."""
    groups = cli._row_groups(columns)
    if groups is not None:
        first, inverse = groups
        for column in columns:
            assert column[first][inverse].tobytes() == column.tobytes()
    return groups


FORMATS = pytest.mark.parametrize("fmt", ["csv", "json"])


@FORMATS
def test_negative_zero_stays_apart_from_zero(fmt):
    column = np.array([0.0, -0.0, 0.0, -0.0, 0.0, 1.0])
    assert distinct_values(column).tobytes() == np.array([0.0, 1.0, -0.0]).tobytes()
    assert_writes_like_the_oracle([column, -column], fmt)


@FORMATS
def test_repeated_extremes(fmt):
    values = [5e-324, -5e-324, 1e300, -1e300, 1.7976931348623157e308, np.inf, -np.inf, np.nan, -np.nan]
    column = np.repeat(values, 3)
    assert distinct_values(column) is not None
    assert_writes_like_the_oracle([column, column[::-1].copy()], fmt)


@FORMATS
@pytest.mark.parametrize("distinct, deduplicated", [(4, True), (5, False)], ids=["half", "half+1"])
def test_half_distinct_is_the_threshold(fmt, distinct, deduplicated):
    column = np.resize(np.arange(distinct) / 3.0, 8)
    assert (distinct_values(column) is not None) == deduplicated
    assert_writes_like_the_oracle([column], fmt)


@FORMATS
def test_repeats_across_block_edges(monkeypatch, fmt):
    monkeypatch.setattr(cli, "BLOCK_ROWS", 4)
    # blocks [a a b b] [b c d e] [e e]: deduplicated, formatted per value, then deduplicated again
    column = np.array([0.1, 0.1, 0.2, 0.2, 0.2, 0.3, 0.4, 0.5, 0.5, 0.5])
    assert_writes_like_the_oracle([column, column[::-1].copy(), column > 0.25], fmt)


@FORMATS
def test_a_tie_in_the_first_column_that_splits_in_another(fmt):
    # rows (0.5, 0.1) and (0.5, 0.2) tie on the sorted column. However the sort orders the tie,
    # at most 4 + 1 of the 12 rows start a group: the block is deduplicated, and each row keeps its cells
    first = np.array([0.5] * 4 + [0.25] * 8)
    second = np.array([0.1, 0.2, 0.1, 0.2] + [0.3] * 8)
    columns = [first, second, first + second]
    assert 3 <= len(assert_groups_rebuild(columns)[0]) <= 5
    assert_writes_like_the_oracle(columns, fmt)


@FORMATS
def test_signed_zeros_and_nan_payloads_repeat_only_as_whole_rows(fmt):
    # each column holds ±0.0 or NaNs that differ only in payload or sign; only whole rows repeat
    nan = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000], np.uint64).view(np.float64)
    distinct_rows = np.array([
        [0.0, nan[0], -0.0],
        [-0.0, nan[1], 0.0],
        [0.0, nan[1], 0.0],
        [nan[0], -0.0, nan[2]],
        [nan[2], 0.0, nan[1]],
    ])
    rows = distinct_rows[np.random.default_rng(3).permutation(np.repeat(np.arange(5), 3))]
    columns = [rows[:, index].copy() for index in range(3)]
    assert len(assert_groups_rebuild(columns)[0]) == 5
    assert_writes_like_the_oracle(columns, fmt)


def test_cond_surface_conditionals_are_deduplicated_at_the_readme_size():
    # the README-size op writes its three conditional columns through the row groups, not cell by cell
    grid_n = 41
    grid = np.linspace(0.0, 1.0, grid_n)
    i, j = cli._divmod(np.arange(grid_n**2), grid_n)
    p_st, p_td = cli._conditional_columns(grid[i], grid[j], 1.0)
    groups = assert_groups_rebuild([p_st, p_td, p_st - p_td])
    assert groups is not None and 2 * len(groups[0]) <= grid_n**2


def same_groups(got, want):
    """Two _row_groups answers: both None, or the same arrays with the same dtypes."""
    if got is None or want is None:
        return got is want
    return all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want))


@st.composite
def increasing_first_column(draw):
    """A block whose first column strictly increases, with up to two more float columns of any values."""
    first = sorted(draw(st.lists(st.floats(allow_nan=False), max_size=12, unique=True)))
    others = st.lists(st.floats(), min_size=len(first), max_size=len(first))
    return [np.array(first, float), *(np.array(column, float) for column in draw(st.lists(others, max_size=2)))]


@settings(max_examples=200)
@given(columns=increasing_first_column())
@example(columns=[np.array([])])
@example(columns=[np.array([0.5]), np.array([np.nan])])
@example(columns=[np.array([-0.0, 1.0]), np.array([3.0, 3.0]), np.array([-0.0, -0.0])])
def test_an_increasing_first_column_gives_the_sort_paths_answer(columns):
    assert all(a < b for a, b in zip(columns[0].tolist(), columns[0].tolist()[1:]))
    assert same_groups(cli._row_groups(columns), cli._sorted_row_groups(columns))


@pytest.mark.parametrize("first, sorts", [
    ([1.0, 2.0], False),
    ([-0.0, 0.0], True),
    ([0.0, -0.0], True),
    ([1.0, np.nan, 2.0], True),
    ([np.nan, np.nan], True),
    ([1.0, 1.0], True),
    ([2.0, 1.0], True),
    ([], True),
])
def test_only_a_strictly_increasing_first_column_skips_the_sort(monkeypatch, first, sorts):
    # -0.0 beside 0.0 and a NaN compare as no increase; zero rows, where the sort path
    # gives empty groups rather than None, are sorted too
    calls = []
    real = cli._sorted_row_groups
    monkeypatch.setattr(cli, "_sorted_row_groups", lambda columns: calls.append(columns) or real(columns))
    columns = [np.array(first, float), np.zeros(len(first))]
    assert same_groups(cli._row_groups(columns), real(columns))
    assert len(calls) == sorts


@FORMATS
def test_zero_rows(fmt):
    assert_writes_like_the_oracle([np.array([]), np.array([], dtype=bool)], fmt)


@FORMATS
def test_long_bool_column(fmt):
    flags = np.random.default_rng(7).random(300) < 0.5
    assert_writes_like_the_oracle([np.linspace(0.0, 1.0, 300), flags, ~flags], fmt)


@FORMATS
def test_int_columns(fmt):
    repeated = np.array([4, 4, 4, 11, 11, -3, -3, 2**62], dtype=np.int64)
    assert sorted(distinct_values(repeated).tolist()) == [-3, 4, 11, 2**62]
    assert distinct_values(np.arange(8)) is None
    assert_writes_like_the_oracle([repeated, np.arange(8), repeated * 0.5], fmt)


def _pooled_column(draw, rows):
    kind = draw(st.sampled_from(["float", "int", "bool"]))
    if kind == "bool":
        return np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
    if kind == "int":
        pool = st.integers(-(2**63), 2**63 - 1)
    else:
        pool = st.floats()
    values = draw(st.lists(pool, min_size=1, max_size=4))
    picks = draw(st.lists(st.sampled_from(values), min_size=rows, max_size=rows))
    return np.array(picks, dtype=np.int64 if kind == "int" else np.float64)


@st.composite
def pooled_columns(draw):
    fmt = draw(st.sampled_from(["csv", "json"]))
    rows = draw(st.integers(1, 13))
    return fmt, [_pooled_column(draw, rows) for _ in range(draw(st.integers(1, 4)))]


@settings(max_examples=200)
@given(case=pooled_columns())
def test_columns_drawn_from_small_pools_match_the_oracle(case):
    fmt, columns = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(cli, "BLOCK_ROWS", 4)
        assert_writes_like_the_oracle(columns, fmt)


# the CSV float formatter, cell by cell against "%.17g" % v
def assert_formats_like_printf(values):
    values = np.asarray(values, dtype=np.float64)
    cells = cli._float_cells(values)
    lines = np.concatenate([cells, np.full((len(values), 1), ord("\n"), np.uint8)], axis=1)
    text = lines.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]  # as the writer drops NULs
    expected = ["%.17g" % value for value in values.tolist()]
    wrong = [(value, got, want) for value, got, want in zip(values.tolist(), text, expected) if got != want]
    assert len(text) == len(expected) and not wrong, wrong[:10]


@settings(max_examples=300)
@given(values=st.lists(st.floats(), min_size=1, max_size=40))
def test_formatter_on_any_floats(values):
    assert_formats_like_printf(values)


def test_formatter_on_random_bit_patterns():
    rng = np.random.default_rng(20161017)
    for _ in range(32):  # 2**20 patterns, a few MB at a time
        patterns = rng.integers(0, 2**64, size=2**15, dtype=np.uint64, endpoint=False)
        # and the same mantissas with exponents around the fixed-notation range [1e-4, 1e17)
        exponents = rng.integers(1023 - 17, 1023 + 60, size=patterns.size, dtype=np.uint64)
        near = (patterns & np.uint64(0x800F_FFFF_FFFF_FFFF)) | (exponents << np.uint64(52))
        assert_formats_like_printf(np.concatenate([patterns, near]).view(np.float64))


def test_formatter_on_exact_ties():
    # odd / 2**j with 18 significant digits ending in 5: "%.17g" rounds these half to even
    rng = np.random.default_rng(5)
    ties = []
    for exponent in range(-4, 16):  # 10**exponent <= value < 10**(exponent + 1)
        j = 17 - exponent  # so that value * 10**j = numerator * 5**j has 18 digits
        lo, hi = -(-(10**17) // 5**j), min(10**18 // 5**j, 2**53)
        odd = rng.integers(lo // 2, (hi - 1) // 2, size=500) * 2 + 1
        for numerator in odd.tolist():
            digits = str(numerator * 5**j)
            assert len(digits) == 18 and digits.endswith("5")
            ties.append(math.ldexp(numerator, -j))
    ties = np.array(ties)
    assert_formats_like_printf(np.concatenate([ties, -ties]))


def test_formatter_at_powers_of_ten():
    powers = np.array([float(f"1e{exponent}") for exponent in range(-6, 19)])
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    assert_formats_like_printf(np.concatenate([values, -values]))


def test_formatter_on_zeros_extremes_and_integers():
    # integer-valued floats keep the zeros of their integer part
    values = np.array([0.0, 5e-324, 1.7976931348623157e308, 1e15, 7996987319622930.0, 1e16, 120.0, 1.25e17])
    assert_formats_like_printf(np.concatenate([values, -values]))


def test_formatter_does_not_trust_log10(monkeypatch):
    # a decade too high or too low leaves D outside [1e16, 1e17), and "%.17g" writes that cell
    values = np.concatenate([10.0 ** np.arange(-4, 17), np.linspace(1e-4, 1e3, 300), [9.999999999999999e16]])
    real = np.log10
    monkeypatch.setattr(cli.np, "log10", lambda x: real(x) + np.arange(x.size) % 3 - 1)
    assert_formats_like_printf(np.concatenate([values, -values]))


def _failing_second_block(monkeypatch):
    # both formats take their blocks from cli._blocks
    monkeypatch.setattr(cli, "BLOCK_ROWS", 3)
    real = cli._blocks

    def blocks(columns):
        for index, block in enumerate(real(columns)):
            if index == 1:
                raise OSError("no space left on device")
            yield block

    monkeypatch.setattr(cli, "_blocks", blocks)


def test_failure_mid_stream_leaves_no_file(capsys, tmp_path, monkeypatch):
    _failing_second_block(monkeypatch)
    target = tmp_path / "slice.csv"
    assert main(["cond-slice", "--grid-n", "7", "--out", str(target)]) == 2
    assert "no space left" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_failure_mid_stream_keeps_the_old_file(capsys, tmp_path, monkeypatch):
    _failing_second_block(monkeypatch)
    target = tmp_path / "slice.json"
    target.write_bytes(b"old data\n")
    assert main(["cond-slice", "--grid-n", "7", "--format", "json", "--out", str(target)]) == 2
    assert target.read_bytes() == b"old data\n"
    assert list(tmp_path.iterdir()) == [target]


def test_new_file_mode_follows_the_umask_and_a_replaced_file_keeps_its_mode(capsys, tmp_path):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_text("old\n")
    old.chmod(0o604)
    umask = os.umask(0o027)
    try:
        assert main(["dof", "--dim", "4", "--out", str(new)]) == 0
        assert main(["dof", "--dim", "4", "--out", str(old)]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(new.stat().st_mode) == 0o640
    assert stat.S_IMODE(old.stat().st_mode) == 0o604
    assert old.read_bytes() == new.read_bytes()


def test_new_file_mode_comes_from_the_kernel_not_from_reading_the_umask(capsys, tmp_path, monkeypatch):
    # reading the umask sets it to 0 for a moment, which another thread's new file would get
    def forbidden(mask):
        raise AssertionError("os.umask called")

    new = tmp_path / "new.csv"
    umask = os.umask(0o027)
    try:
        with monkeypatch.context() as patched:
            patched.setattr(os, "umask", forbidden)
            assert main(["dof", "--dim", "4", "--out", str(new)]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(new.stat().st_mode) == 0o640


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("squatter", ["file", "symlink"])
def test_a_taken_temp_name_is_neither_clobbered_nor_followed(capsys, tmp_path, existing, squatter):
    target = tmp_path / "data.csv"
    if existing:
        target.write_text("old\n")
    taken, victim = tmp_path / f".data.csv.{os.getpid()}.0", tmp_path / "victim"
    victim.write_text("victim\n")
    if squatter == "file":
        taken.write_text("taken\n")
    else:
        taken.symlink_to(victim)
    assert main(["dof", "--dim", "4", "--out", str(target)]) == 0
    assert target.read_text().endswith("4,2,5\n")
    assert victim.read_text() == "victim\n"
    if squatter == "file":
        assert taken.read_text() == "taken\n"
    else:
        assert taken.is_symlink() and taken.resolve() == victim
    assert sorted(tmp_path.iterdir()) == sorted([target, taken, victim])


def test_no_free_temp_name_is_an_io_error(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_TEMP_TRIES", 2)
    target = tmp_path / "data.csv"
    taken = [tmp_path / f".data.csv.{os.getpid()}.{n}" for n in range(2)]
    for path in taken:
        path.write_text("taken\n")
    assert main(["dof", "--dim", "4", "--out", str(target)]) == 2
    assert "no free temp name" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == taken


def test_a_symlinked_out_writes_through_the_link(capsys, tmp_path):
    target, link = tmp_path / "data.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    link.symlink_to(target)
    assert main(["dof", "--dim", "4", "--out", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_text().endswith("4,2,5\n")


def test_a_link_to_another_directory_replaces_the_file_there(capsys, tmp_path):
    here, there = tmp_path / "here", tmp_path / "there"
    here.mkdir()
    there.mkdir()
    target, link = there / "data.csv", here / "link.csv"
    target.write_text("old\n")
    old_inode = target.stat().st_ino
    link.symlink_to(target)
    assert main(["dof", "--dim", "4", "--out", str(link)]) == 0
    assert link.is_symlink() and link.resolve() == target
    assert target.read_text().endswith("4,2,5\n")
    assert target.stat().st_ino != old_inode  # replaced by the temp file, not written in place
    assert list(here.iterdir()) == [link]
    assert list(there.iterdir()) == [target]


def test_a_dangling_link_creates_the_file_it_names(capsys, tmp_path):
    target, link = tmp_path / "missing.csv", tmp_path / "link.csv"
    link.symlink_to(target)
    assert main(["dof", "--dim", "4", "--out", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_text().endswith("4,2,5\n")
    assert sorted(tmp_path.iterdir()) == [link, target]


def test_a_chain_of_two_links_writes_the_last_target(capsys, tmp_path):
    target, middle, link = tmp_path / "data.csv", tmp_path / "middle.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    middle.symlink_to(target)
    link.symlink_to(middle)
    assert main(["dof", "--dim", "4", "--out", str(link)]) == 0
    assert link.is_symlink() and middle.is_symlink()
    assert target.read_text().endswith("4,2,5\n")
    assert sorted(tmp_path.iterdir()) == [target, link, middle]


def test_out_under_a_symlinked_directory(capsys, tmp_path):
    real, alias = tmp_path / "real", tmp_path / "alias"
    real.mkdir()
    alias.symlink_to(real, target_is_directory=True)
    (real / "old.csv").write_text("old\n")
    for name in ("new.csv", "old.csv"):
        assert main(["dof", "--dim", "4", "--out", str(alias / name)]) == 0
        assert (real / name).read_text().endswith("4,2,5\n")
    assert alias.is_symlink()
    assert sorted(path.name for path in real.iterdir()) == ["new.csv", "old.csv"]


def test_a_relative_out_is_written_in_the_working_directory(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["dof", "--dim", "4", "--out", "data.csv"]) == 0
    assert (tmp_path / "data.csv").read_text().endswith("4,2,5\n")
    assert list(tmp_path.iterdir()) == [tmp_path / "data.csv"]


def test_dev_null_is_written_in_place(capsys):
    assert main(["report", "--out", os.devnull]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_fifo_is_written_in_place(capsys, tmp_path):
    assert main(["cond-slice", "--grid-n", "5"]) == 0
    expected = capsys.readouterr().out
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text(encoding="utf-8")), daemon=True)
    reader.start()
    try:
        assert main(["cond-slice", "--grid-n", "5", "--out", str(fifo)]) == 0
    finally:
        reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [expected]
    assert list(tmp_path.iterdir()) == [fifo]


def test_out_of_memory_exits_two(capsys, monkeypatch):
    def exhausted(config):
        raise MemoryError("cannot allocate 1.8 GB")

    monkeypatch.setattr(cli, "cmd_report", exhausted)
    assert main(["report"]) == 2
    assert capsys.readouterr().err == "photonclock: out of memory: cannot allocate 1.8 GB\n"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc/self/status")
@pytest.mark.parametrize(
    "argv",
    [["cond-surface", "--grid-n", "1024"], ["lgi-scan", "--x-steps", str(2**20)]],
    ids=["cond-surface", "lgi-scan"],
)
def test_edge_of_the_envelope_stays_under_150_mb(tmp_path, argv):
    # VmHWM, the child's own peak RSS in kB: a forked child's ru_maxrss
    # starts from the parent's high-water mark, so it would count pytest's too
    script = (
        "from photonclock.cli import main\n"
        f"assert main({argv + ['--out', str(tmp_path / 'data')]!r}) == 0\n"
        "with open('/proc/self/status') as status:\n"
        "    print(next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n"
    )
    src = os.path.dirname(os.path.dirname(photonclock.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    peak_mb = int(done.stdout) / 1024.0
    assert peak_mb < 150.0
