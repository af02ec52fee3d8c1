"""End-to-end command line behavior: formats, determinism, exit codes."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import photonclock.cli as cli
from photonclock import massive_graviton_dof, massless_graviton_dof
from photonclock.cli import main


def run_to_text(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_captured(argv):
    """main(argv) with its own capture, for property tests that cannot take capsys.

    Stdout is a text stream over bytes, as a real one is: datasets go to its buffer.
    """
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    out.flush()
    return rc, out.buffer.getvalue().decode("utf-8"), err.getvalue()


def data_lines(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


CHECK_LINE = re.compile(r"(\S+) = (\S+) \(target: (.+)\) (PASS|FAIL)")


def passes_its_target(value: str, target: str) -> bool:
    """A check line's verdict recomputed from its printed value and target:
    "E +- T", "wd_residual <= T" or an exact integer "N"."""
    if " +- " in target:
        expected, tol = map(float, target.split(" +- "))
        return abs(float(value) - expected) <= tol
    if target.startswith("wd_residual <= "):
        return float(value) <= float(target.removeprefix("wd_residual <= "))
    return int(value) == int(target)


class TestArgumentHandling:
    def test_no_arguments_is_a_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        assert "lgi-scan" in capsys.readouterr().out

    def test_bad_window(self, capsys):
        assert main(["lgi-scan", "--x-min", "2.0", "--x-max", "1.0"]) == 1
        assert main(["lgi-scan", "--x-min", "-0.5"]) == 1

    def test_panels_is_not_an_option(self, capsys):
        # the period average is exact at its one node count, conditional.PANELS
        for command in ("cond-surface", "cond-slice", "report", "wd-check"):
            assert main([command, "--panels", "8"]) == 1
            assert "unrecognized arguments: --panels 8" in capsys.readouterr().err

    def test_envelope_caps_are_usage_errors(self, capsys):
        # each cap is tested one step past it, through the rejection path only
        past_x_max = repr(float(np.nextafter(1e4, np.inf)))
        assert main(["lgi-scan", "--x-min", "9999", "--x-max", past_x_max]) == 1
        assert f"argument --x-max: {past_x_max} is not in [0.0, 10000.0]" in capsys.readouterr().err
        assert main(["lgi-scan", "--x-max", "1e5"]) == 1
        assert main(["lgi-scan", "--x-min", "1e300", "--x-max", "1e301"]) == 1
        assert "argument --x-min: 1e300 is not in [0.0, 10000.0]" in capsys.readouterr().err
        assert main(["lgi-scan", "--x-steps", str(2**20 + 1)]) == 1
        assert "argument --x-steps: 1048577 is not in [1, 1048576]" in capsys.readouterr().err
        assert main(["cond-surface", "--grid-n", "1025"]) == 1
        assert main(["cond-slice", "--grid-n", "1025"]) == 1
        assert "argument --grid-n: 1025 is not in [2, 1024]" in capsys.readouterr().err

    def test_scan_at_the_edge_of_the_window_passes_its_cross_check(self, capsys):
        assert main(["lgi-scan", "--x-min", "9990", "--x-max", "10000", "--x-steps", "64"]) == 0

    def test_subnormal_frequency_is_accepted(self, capsys):
        # the conditional layer works in the phase omega*t and never forms 2*pi/omega
        assert main(["wd-check", "--omega", "1e-310"]) == 0

    def test_bad_grid(self, capsys):
        assert main(["cond-surface", "--grid-n", "1"]) == 1

    def test_bad_frequency(self, capsys):
        assert main(["wd-check", "--omega", "0"]) == 1

    def test_bad_format(self, capsys):
        assert main(["report", "--format", "yaml"]) == 1

    def test_dof_requires_dimension(self, capsys):
        assert main(["dof"]) == 1

    def test_dof_rejects_low_dimension(self, capsys):
        assert main(["dof", "--dim", "2"]) == 1

    def test_dof_takes_no_omega(self, capsys):
        # the table does not depend on a clock, so the flag is not one of dof's
        assert main(["dof", "--dim", "4", "--omega", "7"]) == 1
        assert "unrecognized arguments: --omega 7" in capsys.readouterr().err


DATASET_COMMANDS = ("lgi-scan", "cond-surface", "cond-slice")
# every bounded flag: the subcommands that take it, its kind and its lowest and highest accepted value
BOUNDED_FLAGS = [
    ("--omega", (*DATASET_COMMANDS, "report", "wd-check"), float, math.ulp(0.0), sys.float_info.max),
    ("--grid-n", ("cond-surface", "cond-slice"), int, 2, cli._MAX_GRID_N),
    ("--x-min", ("lgi-scan",), float, 0.0, cli._X_MAX),
    ("--x-max", ("lgi-scan",), float, 0.0, cli._X_MAX),
    ("--x-steps", ("lgi-scan",), int, 1, cli._MAX_X_STEPS),
    ("--dim", ("dof",), int, 3, cli._MAX_DIM),
]
FLAG_EDGES = [
    pytest.param(command, flag, kind, low, high, id=f"{command}{flag}")
    for flag, commands, kind, low, high in BOUNDED_FLAGS
    for command in commands
]


def one_step_past(kind, value, direction):
    return math.nextafter(value, direction * math.inf) if kind is float else value + direction


class TestFlagRanges:
    """Each bounded flag is checked once, by its argparse type, against the range its help prints."""

    @pytest.mark.parametrize("command, flag, kind, low, high", FLAG_EDGES)
    def test_each_end_parses_to_itself(self, command, flag, kind, low, high):
        # through the subcommand's parser alone, so no 2**20-row scan or 1024**2 surface runs
        parser = cli.build_parser().commands[command]
        for value in (low, high):
            args = parser.parse_args([f"{flag}={value!r}"])
            parsed = getattr(args, flag[2:].replace("-", "_"))
            assert type(parsed) is kind and parsed == value

    @pytest.mark.parametrize("command, flag, kind, low, high", FLAG_EDGES)
    def test_one_step_past_each_end_is_a_usage_error(self, capsys, command, flag, kind, low, high):
        # the = form, as "--x-min -5e-324" would read -5e-324 as an option
        for past in (one_step_past(kind, low, -1), one_step_past(kind, high, +1)):
            rc, out, err = run_to_text(capsys, [command, f"{flag}={past!r}"])
            assert (rc, out) == (1, "")
            assert err.startswith(f"usage: photonclock {command} ")
            assert err.splitlines()[-1] == (
                f"photonclock {command}: error: argument {flag}: {past!r} is not in [{low!r}, {high!r}]"
            )

    @pytest.mark.parametrize("command", [*DATASET_COMMANDS, "report", "dof", "wd-check"])
    def test_help_prints_each_range(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "200")  # wide enough that argparse prints each option on one line
        assert main([command, "--help"]) == 0
        lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines() if line.startswith("  --")}
        ranges = [(flag, low, high) for flag, commands, _, low, high in BOUNDED_FLAGS if command in commands]
        assert ranges
        for flag, low, high in ranges:
            assert lines[flag].endswith(f", in [{low!r}, {high!r}]")

    def test_the_window_rule_names_both_flags(self, capsys):
        rc, out, err = run_to_text(capsys, ["lgi-scan", "--x-min", "3", "--x-max", "0.5"])
        assert (rc, out, err) == (1, "", "photonclock: error: --x-min 3.0 must be below --x-max 0.5\n")


class TestDispatch:
    """A subcommand's arguments are parsed once, by that subcommand's parser alone."""

    def test_a_subcommand_never_reaches_the_top_parser(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the top parser parsed a subcommand's arguments")

        monkeypatch.setattr(cli.build_parser(), "parse_args", refuse)
        assert main(["lgi-scan", "--x-steps", "4", "--format", "json"]) == 0
        assert '"rows"' in capsys.readouterr().out
        assert main(["lgi-scan", "--help"]) == 0
        assert "usage: photonclock lgi-scan" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, code", [([], 1), (["--help"], 0), (["bogus"], 1), (["lgi-scan", "--help"], 0)])
    def test_exit_codes_of_the_top_parser_and_help(self, capsys, argv, code):
        assert main(argv) == code

    def test_an_unrecognized_argument_prints_the_subcommand_usage(self, capsys):
        assert main(["lgi-scan", "--bogus"]) == 1
        err = capsys.readouterr().err
        assert "usage: photonclock lgi-scan" in err
        assert "unrecognized arguments: --bogus" in err


# every step count reports lgi_maximize over the whole window, whatever grid it scans;
# 1024 steps is the benchmark's size
@settings(max_examples=40, deadline=None)
@given(
    window=st.tuples(st.floats(0.0, cli._X_MAX), st.floats(0.0, cli._X_MAX)).filter(lambda w: w[0] < w[1]),
    steps=st.integers(1, 2048),
)
@example(window=(0.0, math.pi), steps=1024)
@example(window=(0.0, math.pi), steps=1)
def test_the_scan_reports_the_maximizer_bit_for_bit(window, steps):
    x_min, x_max = window
    argv = ["lgi-scan", "--x-min", repr(x_min), "--x-max", repr(x_max), "--x-steps", str(steps)]
    rc, out, err = run_captured(argv)
    assert rc == 0, err
    fields = dict(part.split("=", 1) for part in out.splitlines()[0].split() if "=" in part)
    assert (float(fields["x_star"]), float(fields["c_star"])) == cli.lgi_maximize(x_min, x_max)


class TestLgiScan:
    def test_small_scan_layout(self, capsys):
        rc, out, _ = run_to_text(capsys, ["lgi-scan", "--x-steps", "8"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("# photonclock lgi-scan version=")
        assert "x_star=" in lines[0] and "c_star=" in lines[0]
        assert lines[1] == "x,C,violates"
        assert len(lines) == 2 + 9
        assert lines[2] == "0,2,false"

    def test_peak_row(self, capsys):
        rc, out, _ = run_to_text(
            capsys,
            ["lgi-scan", "--x-min", "0", "--x-max", str(math.pi / 4), "--x-steps", "2"],
        )
        assert rc == 0
        rows = data_lines(out)[1:]
        assert len(rows) == 3
        x, c, violates = rows[1].split(",")
        assert float(x) == pytest.approx(math.pi / 8, abs=1e-15)
        assert float(c) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
        assert violates == "true"
        assert data_lines(out)[0] == "x,C,violates"

    def test_violation_flags_track_the_window(self, capsys):
        rc, out, _ = run_to_text(
            capsys,
            ["lgi-scan", "--x-min", "0", "--x-max", str(math.pi / 4), "--x-steps", "64"],
        )
        assert rc == 0
        crossing = math.acos((math.sqrt(3.0) - 1.0) / 2.0) / 2.0
        for row in data_lines(out)[1:]:
            x, _, violates = row.split(",")
            x = float(x)
            if 1e-6 < x < crossing - 1e-6:
                assert violates == "true"
            elif x > crossing + 1e-6:
                assert violates == "false"

    def test_maximizer_lands_in_metadata(self, capsys):
        rc, out, _ = run_to_text(
            capsys, ["lgi-scan", "--x-max", str(math.pi / 2), "--x-steps", "4"]
        )
        assert rc == 0
        meta = out.splitlines()[0]
        fields = dict(
            part.split("=", 1) for part in meta.split() if "=" in part
        )
        assert float(fields["x_star"]) == math.pi / 8
        assert float(fields["c_star"]) == pytest.approx(
            2.0 * math.sqrt(2.0), abs=1e-10
        )

    def test_json_layout(self, capsys):
        rc, out, _ = run_to_text(
            capsys, ["lgi-scan", "--x-steps", "4", "--format", "json"]
        )
        assert rc == 0
        obj = json.loads(out)
        assert obj["meta"]["tool"] == "photonclock"
        assert obj["meta"]["command"] == "lgi-scan"
        assert len(obj["rows"]) == 5
        first = obj["rows"][0]
        assert first["x"] == 0.0
        assert first["C"] == 2.0
        assert first["violates"] is False

    def test_integrity_failure_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "lgi_functional_engine", lambda x: 0.0)
        rc, _, err = run_to_text(capsys, ["lgi-scan", "--x-steps", "4"])
        assert rc == 3
        assert "integrity" in err

    def test_nan_from_the_engine_is_an_integrity_failure(self, capsys, monkeypatch):
        # the engine computes every row, x = 0.0 included, so the first NaN is there
        monkeypatch.setattr(cli, "lgi_functional_engine", lambda x: np.full(np.shape(x), math.nan))
        rc, out, err = run_to_text(capsys, ["lgi-scan", "--x-steps", "2"])
        assert rc == 3
        assert out == ""
        assert "engine and closed form disagree at x=0.0: nan vs 2.0" in err

    def test_maximizer_is_cross_checked(self, capsys, monkeypatch):
        # an engine that is right on the grid and wrong anywhere else
        grid = np.linspace(0.0, math.pi, 5)
        engine = lambda x: np.where(np.isin(x, grid), cli.lgi_functional(x), 0.0)
        monkeypatch.setattr(cli, "lgi_functional_engine", engine)
        rc, _, err = run_to_text(capsys, ["lgi-scan", "--x-steps", "4"])
        assert rc == 3
        assert "integrity" in err


class TestConditionalCommands:
    def test_slice_values(self, capsys):
        rc, out, _ = run_to_text(capsys, ["cond-slice", "--grid-n", "5"])
        assert rc == 0
        rows = data_lines(out)[1:]
        assert len(rows) == 5
        for row in rows:
            lam, p_st, p_td = map(float, row.split(","))
            assert p_st == pytest.approx((1.0 + lam * lam) / 2.0, abs=1e-10)
            assert p_td == pytest.approx((2.0 + lam * lam) / 4.0, abs=1e-10)
        assert data_lines(out)[0] == "lambda,P_stationary,P_timeavg"

    def test_surface_values(self, capsys):
        rc, out, _ = run_to_text(capsys, ["cond-surface", "--grid-n", "4"])
        assert rc == 0
        rows = data_lines(out)[1:]
        assert len(rows) == 16
        for row in rows:
            lc, lr, p_st, p_td, adv = map(float, row.split(","))
            assert p_st == pytest.approx((1.0 + lc * lr) / 2.0, abs=1e-10)
            assert p_td == pytest.approx((2.0 + lc * lr) / 4.0, abs=1e-10)
            assert adv == pytest.approx(lc * lr / 4.0, abs=1e-10)

    def test_surface_is_row_major_in_clock_sharpness(self, capsys):
        rc, out, _ = run_to_text(capsys, ["cond-surface", "--grid-n", "3"])
        assert rc == 0
        pairs = [tuple(map(float, row.split(",")[:2])) for row in data_lines(out)[1:]]
        grid = [0.0, 0.5, 1.0]
        assert pairs == [(lc, lr) for lc in grid for lr in grid]

    @pytest.mark.parametrize(
        "command, index, where, error",
        [
            ("cond-surface", 5, "lambda_c=0.5, lambda_r=1.0", 1e-6),
            ("cond-slice", 1, "lambda_c=0.5, lambda_r=0.5", 1e-6),
            ("cond-surface", 5, "lambda_c=0.5, lambda_r=1.0", math.nan),
            ("cond-slice", 1, "lambda_c=0.5, lambda_r=0.5", math.nan),
        ],
    )
    def test_integrity_failure_names_the_point(self, capsys, monkeypatch, command, index, where, error):
        # a conditional that is off the closed form, or NaN, at one grid point only
        real = cli.conditional_probability

        def off_at_one_point(query, spec):
            values = real(query, spec)
            if query.state_kind is cli.StateKind.TIME_DEPENDENT:
                values[index] += error
            return values

        monkeypatch.setattr(cli, "conditional_probability", off_at_one_point)
        rc, _, err = run_to_text(capsys, [command, "--grid-n", "3"])
        assert rc == 3
        assert f"time_dependent conditional and closed form disagree at {where}" in err

    @pytest.mark.parametrize("grid_n", [2, 41])
    def test_surface_makes_one_call_per_preparation(self, capsys, monkeypatch, grid_n):
        calls = []
        real = cli.conditional_probability
        monkeypatch.setattr(cli, "conditional_probability", lambda *args: calls.append(args) or real(*args))
        assert main(["cond-surface", "--grid-n", str(grid_n)]) == 0
        assert len(calls) == 2


class TestDofCommand:
    def test_four_dimensions(self, capsys):
        rc, out, _ = run_to_text(capsys, ["dof", "--dim", "4"])
        assert rc == 0
        assert data_lines(out) == ["D,massless_dof,massive_dof", "4,2,5"]

    def test_eleven_dimensions_json(self, capsys):
        rc, out, _ = run_to_text(capsys, ["dof", "--dim", "11", "--format", "json"])
        assert rc == 0
        obj = json.loads(out)
        assert obj["rows"] == [{"D": 11, "massless_dof": 44, "massive_dof": 54}]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_the_largest_dimension_and_the_first_past_it(self, capsys, fmt):
        # past _MAX_DIM the massive count passes 2**64 - 1, the widest integer cell; it used to end in a TypeError
        largest = cli._MAX_DIM
        assert largest == 6074001000
        assert massive_graviton_dof(largest) <= 2**64 - 1 < massive_graviton_dof(largest + 1)
        rc, out, _ = run_to_text(capsys, ["dof", "--dim", str(largest), "--format", fmt])
        assert rc == 0
        expected = [largest, massless_graviton_dof(largest), massive_graviton_dof(largest)]
        if fmt == "json":
            assert list(json.loads(out)["rows"][0].values()) == expected
        else:
            assert data_lines(out)[1] == ",".join(map(str, expected))
        rc, out, err = run_to_text(capsys, ["dof", "--dim", str(largest + 1), "--format", fmt])
        assert rc == 1 and out == ""
        assert err.splitlines()[-1] == "photonclock dof: error: argument --dim: 6074001001 is not in [3, 6074001000]"


class TestSummaryCommands:
    def test_wd_check_passes(self, capsys):
        rc, out, _ = run_to_text(capsys, ["wd-check"])
        assert rc == 0
        assert "wd_residual" in out
        assert out.splitlines()[-1] == "wd-check: PASS (1/1 checks)"

    def test_report_passes_every_check(self, capsys):
        rc, out, _ = run_to_text(capsys, ["report"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[-1] == "report: PASS (15/15 checks)"
        assert "FAIL" not in out
        assert any(line.startswith("P_sharp_stationary = 1 ") for line in lines)
        assert any(line.startswith("P_sharp_timeavg = 0.75") for line in lines)
        assert any(line.startswith("C_max = 2.82842712") for line in lines)
        assert any(line.startswith("x_star = 0.3926990") for line in lines)
        assert "dof_massless(4) = 2 (target: 2) PASS" in lines
        assert "dof_massive(4) = 5 (target: 5) PASS" in lines
        assert "multiplicity(j=2) = 5 (target: 5) PASS" in lines

    @pytest.mark.parametrize("offset, failing", [(0.5e-10, []), (1.5e-10, ["C_max_engine"])], ids=["in", "out"])
    def test_report_fails_the_one_check_past_its_tolerance(self, capsys, monkeypatch, offset, failing):
        monkeypatch.setattr(cli, "lgi_functional_engine", lambda x: cli.C_MAX_EXPECTED + offset)
        rc, out, err = run_to_text(capsys, ["report"])
        lines = out.splitlines()
        assert rc == (3 if failing else 0)
        assert [line.split(" = ")[0] for line in lines if line.endswith(" FAIL")] == failing
        assert lines[-1] == ("report: FAIL (14/15 checks)" if failing else "report: PASS (15/15 checks)")
        assert err == ("photonclock report: failed checks: C_max_engine\n" if failing else "")
        rc, out, _ = run_to_text(capsys, ["report", "--format", "json"])
        obj = json.loads(out)
        assert rc == (3 if failing else 0)
        assert obj["pass"] is (not failing)
        assert [check["name"] for check in obj["checks"] if not check["pass"]] == failing

    @pytest.mark.parametrize("factor, failing", [(0.5, []), (1.5, ["wd_residual"])], ids=["in", "out"])
    def test_wd_check_fails_past_its_target(self, capsys, monkeypatch, factor, failing):
        monkeypatch.setattr(cli, "wd_residual", lambda generator, state: factor * cli.WD_TARGET)
        rc, out, err = run_to_text(capsys, ["wd-check"])
        lines = out.splitlines()
        assert rc == (3 if failing else 0)
        assert lines[1].endswith(" FAIL" if failing else " PASS")
        assert lines[-1] == ("wd-check: FAIL (0/1 checks)" if failing else "wd-check: PASS (1/1 checks)")
        assert err == ("photonclock wd-check: failed checks: wd_residual\n" if failing else "")
        rc, out, _ = run_to_text(capsys, ["wd-check", "--format", "json"])
        assert rc == (3 if failing else 0)
        assert json.loads(out)["pass"] is (not failing)

    @pytest.mark.parametrize(
        "engine_offset, residual_factor, fails",
        [(None, None, 0), (1.5e-10, None, 1), (-0.5e-10, 1.5, 1)],
        ids=["as-is", "C-out", "C-in-wd-out"],
    )
    def test_each_verdict_follows_from_the_printed_value_and_target(
        self, capsys, monkeypatch, engine_offset, residual_factor, fails
    ):
        if engine_offset is not None:
            monkeypatch.setattr(cli, "lgi_functional_engine", lambda x: cli.C_MAX_EXPECTED + engine_offset)
        if residual_factor is not None:
            monkeypatch.setattr(cli, "wd_residual", lambda generator, state: residual_factor * cli.WD_TARGET)
        _, out, _ = run_to_text(capsys, ["report"])
        verdicts = []
        for line in out.splitlines()[1:-1]:
            _, value, target, verdict = CHECK_LINE.fullmatch(line).groups()
            assert verdict == ("PASS" if passes_its_target(value, target) else "FAIL"), line
            verdicts.append(verdict)
        assert len(verdicts) == 15
        assert verdicts.count("FAIL") == fails

    def test_report_json(self, capsys):
        rc, out, _ = run_to_text(capsys, ["report", "--format", "json"])
        assert rc == 0
        obj = json.loads(out)
        assert obj["pass"] is True
        assert len(obj["checks"]) == 15
        for check in obj["checks"]:
            assert set(check) == {"name", "value", "target", "pass"}
            assert check["pass"] is True

    @pytest.mark.parametrize("bad, text", [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")])
    def test_non_finite_check_value_is_strict_json(self, capsys, monkeypatch, bad, text):
        # JSON has no number for inf or NaN, so the value is the text the text report prints
        monkeypatch.setattr(cli, "lgi_functional_engine", lambda x: bad)

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        rc, out, err = run_to_text(capsys, ["report", "--format", "json"])
        assert rc == 3
        assert err == "photonclock report: failed checks: C_max_engine\n"
        checks = {check["name"]: check for check in json.loads(out, parse_constant=refuse)["checks"]}
        assert checks["C_max_engine"]["value"] == text
        assert checks["C_max_engine"]["pass"] is False
        rc, out, _ = run_to_text(capsys, ["report"])
        assert rc == 3
        assert f"C_max_engine = {text} (target: " in out


class TestFilesAndDeterminism:
    def test_file_output_matches_stdout(self, capsys, tmp_path):
        rc, out, _ = run_to_text(capsys, ["lgi-scan", "--x-steps", "8"])
        assert rc == 0
        target = tmp_path / "scan.csv"
        assert main(["lgi-scan", "--x-steps", "8", "--out", str(target)]) == 0
        capsys.readouterr()
        assert target.read_text(encoding="utf-8") == out

    def test_unix_line_endings(self, tmp_path, capsys):
        target = tmp_path / "scan.csv"
        assert main(["lgi-scan", "--x-steps", "8", "--out", str(target)]) == 0
        capsys.readouterr()
        raw = target.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_text_printed_before_a_dataset_comes_first(self):
        # a text stream holds what print() wrote until it is flushed; the dataset bytes go under it
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        with contextlib.redirect_stdout(out):
            print("before")
            assert main(["dof", "--dim", "4"]) == 0
            print("after")
        out.flush()
        lines = out.buffer.getvalue().decode("utf-8").splitlines()
        assert lines[0] == "before" and lines[1].startswith("# photonclock dof")
        assert lines[-2:] == ["4,2,5", "after"]

    @pytest.mark.parametrize("argv", [["dof", "--dim", "4"], ["wd-check"]], ids=["dataset", "checks"])
    def test_stdout_without_a_buffer_is_an_io_error(self, argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(argv) == 2
        assert err.getvalue() == "photonclock: i/o error: stdout has no binary buffer to write to\n"

    # pytest's capture cannot close a pipe early, so these run the command in a real process: a
    # reader that stops after 100 bytes, as `head -c 100` does, and one that reads nothing, as `true`
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv, read", [(["lgi-scan", "--x-steps", "1048576"], 100), (["report"], 0)], ids=["head", "true"]
    )
    def test_a_closed_pipe_exits_two_without_a_message(self, argv, read, buffered):
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        command = [sys.executable, "-m", "photonclock.cli", *argv]
        process = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        process.stdout.read(read)
        process.stdout.close()
        _, err = process.communicate(timeout=60)
        assert (process.returncode, err) == (2, b"")

    def test_missing_directory_is_an_io_error(self, capsys):
        rc, _, err = run_to_text(
            capsys, ["dof", "--dim", "4", "--out", "/no/such/dir/out.csv"]
        )
        assert rc == 2
        assert "i/o" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["lgi-scan", "--x-steps", "16"],
            ["cond-surface", "--grid-n", "3"],
            ["cond-slice", "--grid-n", "3"],
            ["report"],
            ["dof", "--dim", "4"],
            ["wd-check"],
        ],
        ids=["lgi-scan", "cond-surface", "cond-slice", "report", "dof", "wd-check"],
    )
    def test_reruns_are_byte_identical(self, tmp_path, capsys, argv):
        a = tmp_path / "a.out"
        b = tmp_path / "b.out"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["lgi-scan", "--x-steps", "16"],
            ["cond-surface", "--grid-n", "3"],
            ["cond-slice", "--grid-n", "3"],
            ["report"],
            ["wd-check"],
        ],
        ids=["lgi-scan", "cond-surface", "cond-slice", "report", "wd-check"],
    )
    def test_frequency_does_not_touch_the_data(self, tmp_path, capsys, argv):
        a = tmp_path / "omega1.out"
        b = tmp_path / "omega37.out"
        assert main(argv + ["--omega", "1.0", "--out", str(a)]) == 0
        assert main(argv + ["--omega", "3.7", "--out", str(b)]) == 0
        capsys.readouterr()
        lines_a = data_lines(a.read_text(encoding="utf-8"))
        lines_b = data_lines(b.read_text(encoding="utf-8"))
        assert lines_a == lines_b


class TestCachedParser:
    SEQUENCE = (
        ["cond-slice", "--grid-n", "many"],
        ["cond-surface", "--help"],
        ["lgi-scan", "--x-steps", "8", "--format", "json"],
        ["lgi-scan", "--x-steps", "8", "--format", "json"],
    )

    def test_repeated_calls_answer_like_a_first_call(self, capsys):
        firsts = []
        for argv in self.SEQUENCE:
            cli.build_parser.cache_clear()
            firsts.append(run_to_text(capsys, argv))
        assert [first[0] for first in firsts] == [1, 0, 0, 0]
        assert "usage:" in firsts[0][2] and "--grid-n" in firsts[1][1] and '"rows"' in firsts[2][1]
        cli.build_parser.cache_clear()
        assert [run_to_text(capsys, argv) for argv in self.SEQUENCE] == firsts
        assert cli.build_parser.cache_info().misses == 1


# argv fuzzing: valid and invalid flags and values on every subcommand. Sizes
# stay at most 64, or one step past a cap, so a capped size is only ever rejected.
OUT_FILE, OUT_IN_MISSING_DIR = "<out-file>", "<out-in-missing-dir>"
VALID = {
    "--omega": ["1", "2.5", "5e-324", "1e300"],
    "--format": ["csv", "json"],
    "--out": [OUT_FILE],
    "--grid-n": ["2", "3", "17", "64"],
    "--x-min": ["0", "0.5", "3"],
    "--x-max": ["0.5", "4", "10000"],
    "--x-steps": ["1", "2", "64"],
    "--dim": ["3", "4", "11", "64"],
}
INVALID = {
    "--omega": ["0", "-1", "nan", "inf", "abc"],
    "--format": ["yaml"],
    "--out": [OUT_IN_MISSING_DIR],
    "--grid-n": ["1", "0", "-5", str(cli._MAX_GRID_N + 1), "2.5"],
    "--x-min": ["-1", "nan", "inf", "1e300", "zero"],
    "--x-max": [repr(float(np.nextafter(cli._X_MAX, np.inf))), "1e5", "nan", "-inf"],
    "--x-steps": ["0", "-1", str(cli._MAX_X_STEPS + 1), "1.5"],
    "--dim": ["2", "0", "-1", "four", str(cli._MAX_DIM + 1)],
}
COMMON = ("--omega", "--format", "--out")
OWN_FLAGS = {
    "lgi-scan": COMMON + ("--x-min", "--x-max", "--x-steps"),
    "cond-surface": COMMON + ("--grid-n",),
    "cond-slice": COMMON + ("--grid-n",),
    "report": COMMON,
    "dof": ("--format", "--out", "--dim"),
    "wd-check": COMMON,
}
stray = st.sampled_from([["--bogus"], ["--help"], ["-h"], ["extra"], ["--x-steps"], ["--dim="], ["frobnicate"]])


def _option(flags):
    """One flag of flags with a value, valid two times in three."""
    def with_value(flag):
        valid = st.sampled_from(VALID[flag])
        return (valid | valid | st.sampled_from(INVALID[flag])).map(lambda value: [flag, value])
    return st.sampled_from(flags).flatmap(with_value)


def _argv(command):
    """Mostly the command's own flags; now and then a foreign flag or a stray token."""
    own = _option(OWN_FLAGS.get(command, COMMON))
    groups = st.lists(own | own | own | _option(sorted(VALID)) | stray, max_size=6)
    return groups.map(lambda gs: ([command] if command else []) + [token for g in gs for token in g])


fuzz_argv = st.sampled_from([*OWN_FLAGS, None]).flatmap(_argv)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300)
@given(argv=fuzz_argv)
def test_any_argv_exits_with_a_documented_code(out_dir, argv):
    paths = {OUT_FILE: str(out_dir / "out"), OUT_IN_MISSING_DIR: str(out_dir / "missing" / "out")}
    rc, _, err = run_captured([paths.get(token, token) for token in argv])
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err


# --omega across its whole range: every dimensionless row must be the one at omega = 1
TINY_RUNS = {
    "lgi-scan": ["lgi-scan", "--x-steps", "4"],
    "cond-surface": ["cond-surface", "--grid-n", "3"],
    "cond-slice": ["cond-slice", "--grid-n", "3"],
    "wd-check": ["wd-check"],
    "report": ["report"],
}
log_uniform_omega = st.floats(math.log(5e-324), math.log(1e300)).map(
    lambda exponent: min(max(math.exp(exponent), 5e-324), 1e300)
)


@pytest.fixture(scope="module")
def unit_frequency_rows():
    rows = {}
    for command, argv in TINY_RUNS.items():
        rc, out, _ = run_captured(argv + ["--omega", "1"])
        assert rc == 0
        rows[command] = data_lines(out)
    return rows


@settings(max_examples=80)
@given(command=st.sampled_from(sorted(TINY_RUNS)), omega=log_uniform_omega)
@example(command="lgi-scan", omega=5e-324)
@example(command="cond-surface", omega=5e-324)
@example(command="cond-slice", omega=1e300)
@example(command="wd-check", omega=1e300)
@example(command="report", omega=5e-324)
def test_frequency_across_decades(unit_frequency_rows, command, omega):
    # every drawn omega lies in --omega's range, [5e-324, sys.float_info.max]
    rc, out, err = run_captured(TINY_RUNS[command] + ["--omega", repr(omega)])
    assert rc == 0, err
    assert f"omega={cli._fmt(omega)}" in out
    assert data_lines(out) == unit_frequency_rows[command]


# numpy's Python-level wrappers that the README-size dataset ops reach through the ndarray method,
# the ufunc or the C function they forward to instead. np.count_nonzero stays: on a block's 1681
# bools it takes under 1 us, where the .sum() of the same bools takes about 3 us
FORWARDING_WRAPPERS = ("split", "stack", "append", "clip", "argmax", "argsort", "cumsum", "all", "any",
                       "flatnonzero", "broadcast_shapes", "isscalar")


@pytest.mark.parametrize("argv", [["lgi-scan", "--x-steps", "1024"], ["cond-surface", "--grid-n", "41"]],
                         ids=["lgi-scan", "cond-surface"])
def test_the_readme_size_ops_call_no_forwarding_wrapper(tmp_path, monkeypatch, argv):
    expected, guarded = tmp_path / "expected", tmp_path / "guarded"
    assert main([*argv, "--out", str(expected)]) == 0

    def refuse(name):
        def wrapper(*args, **kwargs):
            raise AssertionError(f"np.{name} was called")
        return wrapper

    for name in FORWARDING_WRAPPERS:
        monkeypatch.setattr(np, name, refuse(name))
    assert main([*argv, "--out", str(guarded)]) == 0
    assert guarded.read_bytes() == expected.read_bytes()
