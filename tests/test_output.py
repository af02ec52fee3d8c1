"""Dataset output: byte identity with the row-by-row renderer, atomic --out, bounded memory."""

import io
import json
import math
import os
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import photonclock
import photonclock.cli as cli
from photonclock.cli import _fmt, _meta_object, _meta_string, _native, main


def _render_dataset(command: str, meta_items, fieldnames, rows, fmt: str) -> str:
    """The row-by-row renderer the block writer replaced: the oracle for every dataset's text."""
    if fmt == "json":
        obj = {
            "meta": _meta_object(command, meta_items),
            "rows": [dict(zip(fieldnames, map(_native, row))) for row in rows],
        }
        return json.dumps(obj, indent=2) + "\n"
    lines = [f"# {_meta_string(command, meta_items)}", ",".join(fieldnames)]
    lines.extend(",".join(_fmt(value) for value in row) for row in rows)
    return "\n".join(lines) + "\n"


def _record_oracle(monkeypatch) -> list[str]:
    """Pass each command's columns on to the writer, and list the oracle's text for them."""
    seen = []
    real = cli._write_dataset

    def spy(command, meta_items, fieldnames, columns, config):
        rows = zip(*(column.tolist() for column in columns))
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
    columns = [np.asarray(column) for column in columns]
    fieldnames = [f"c{index}" for index in range(len(columns))]
    meta = [("rows", len(columns[0]))]
    handle = io.StringIO()
    cli._write_rows(handle, "test", meta, fieldnames, columns, fmt)
    rows = zip(*(column.tolist() for column in columns))
    assert handle.getvalue() == _render_dataset("test", meta, fieldnames, rows, fmt)


def block_specs(column, spec="%.17g"):
    """The spec a one-column block of the whole column is written with: "%s" once deduplicated."""
    return cli._block_values([np.asarray(column)], [spec], 0, len(column))[0]


FORMATS = pytest.mark.parametrize("fmt", ["csv", "json"])


@FORMATS
def test_negative_zero_stays_apart_from_zero(fmt):
    column = np.array([0.0, -0.0, 0.0, -0.0, 0.0, 1.0])
    assert block_specs(column) == ["%s"]
    assert_writes_like_the_oracle([column, -column], fmt)


@FORMATS
def test_repeated_extremes(fmt):
    values = [5e-324, -5e-324, 1e300, -1e300, 1.7976931348623157e308]
    if fmt == "csv":  # json.dumps writes Infinity and NaN, which are not JSON; no dataset holds them
        values += [np.inf, -np.inf, np.nan, -np.nan]
    column = np.repeat(values, 3)
    assert block_specs(column) == ["%s"]
    assert_writes_like_the_oracle([column, column[::-1].copy()], fmt)


@FORMATS
@pytest.mark.parametrize("distinct, spec", [(4, "%s"), (5, "%.17g")], ids=["half", "half+1"])
def test_half_distinct_is_the_threshold(fmt, distinct, spec):
    column = np.resize(np.arange(distinct) / 3.0, 8)
    assert block_specs(column) == [spec]
    assert_writes_like_the_oracle([column], fmt)


@FORMATS
def test_repeats_across_block_edges(monkeypatch, fmt):
    monkeypatch.setattr(cli, "BLOCK_ROWS", 4)
    # blocks [a a b b] [b c d e] [e e]: deduplicated, formatted per value, then deduplicated again
    column = np.array([0.1, 0.1, 0.2, 0.2, 0.2, 0.3, 0.4, 0.5, 0.5, 0.5])
    assert_writes_like_the_oracle([column, column[::-1].copy(), column > 0.25], fmt)


@FORMATS
def test_long_bool_column(fmt):
    flags = np.random.default_rng(7).random(300) < 0.5
    assert_writes_like_the_oracle([np.linspace(0.0, 1.0, 300), flags, ~flags], fmt)


@FORMATS
def test_int_columns(fmt):
    repeated = np.array([4, 4, 4, 11, 11, -3, -3, 2**62], dtype=np.int64)
    assert block_specs(repeated, "%d") == ["%s"]
    assert block_specs(np.arange(8), "%d") == ["%d"]
    assert_writes_like_the_oracle([repeated, np.arange(8), repeated * 0.5], fmt)


def _pooled_column(draw, rows, fmt):
    kind = draw(st.sampled_from(["float", "int", "bool"]))
    if kind == "bool":
        return np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
    if kind == "int":
        pool = st.integers(-(2**63), 2**63 - 1)
    else:
        pool = st.floats(allow_nan=fmt == "csv", allow_infinity=fmt == "csv")
    values = draw(st.lists(pool, min_size=1, max_size=4))
    picks = draw(st.lists(st.sampled_from(values), min_size=rows, max_size=rows))
    return np.array(picks, dtype=np.int64 if kind == "int" else np.float64)


@st.composite
def pooled_columns(draw):
    fmt = draw(st.sampled_from(["csv", "json"]))
    rows = draw(st.integers(1, 13))
    return fmt, [_pooled_column(draw, rows, fmt) for _ in range(draw(st.integers(1, 4)))]


@settings(max_examples=200)
@given(case=pooled_columns())
def test_columns_drawn_from_small_pools_match_the_oracle(case):
    fmt, columns = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(cli, "BLOCK_ROWS", 4)
        assert_writes_like_the_oracle(columns, fmt)


def _failing_second_block(monkeypatch):
    monkeypatch.setattr(cli, "BLOCK_ROWS", 3)
    real = cli._block_values
    calls = []

    def block_values(*args):
        calls.append(args)
        if len(calls) == 2:
            raise OSError("no space left on device")
        return real(*args)

    monkeypatch.setattr(cli, "_block_values", block_values)


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


def test_a_symlinked_out_writes_through_the_link(capsys, tmp_path):
    target, link = tmp_path / "data.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    link.symlink_to(target)
    assert main(["dof", "--dim", "4", "--out", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_text().endswith("4,2,5\n")


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


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in kB on Linux")
@pytest.mark.parametrize(
    "argv",
    [["cond-surface", "--grid-n", "1024"], ["lgi-scan", "--x-steps", str(2**20)]],
    ids=["cond-surface", "lgi-scan"],
)
def test_edge_of_the_envelope_stays_under_150_mb(tmp_path, argv):
    # a child of its own: RUSAGE_CHILDREN would also count earlier children
    script = (
        "import resource, sys\n"
        "from photonclock.cli import main\n"
        f"assert main({argv + ['--out', str(tmp_path / 'data')]!r}) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    src = os.path.dirname(os.path.dirname(photonclock.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    peak_mb = int(done.stdout) / 1024.0
    assert peak_mb < 150.0
