"""End-to-end command line behavior: formats, determinism, exit codes."""

import json
import math

import numpy as np
import pytest

import photonclock.cli as cli
from photonclock.cli import main


def run_to_text(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def data_lines(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


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

    def test_bad_panels(self, capsys):
        assert main(["cond-slice", "--panels", "7"]) == 1
        assert main(["report", "--panels", "4"]) == 1

    def test_envelope_caps_are_usage_errors(self, capsys):
        # each cap is tested one step past it, through the rejection path only
        past_x_max = repr(float(np.nextafter(1e4, np.inf)))
        assert main(["lgi-scan", "--x-min", "9999", "--x-max", past_x_max]) == 1
        assert "x-max must be at most 10000" in capsys.readouterr().err
        assert main(["lgi-scan", "--x-max", "1e5"]) == 1
        assert main(["lgi-scan", "--x-min", "1e300", "--x-max", "1e301"]) == 1
        assert main(["lgi-scan", "--x-steps", str(2**20 + 1)]) == 1
        assert "x-steps must be at most 1048576" in capsys.readouterr().err
        assert main(["cond-surface", "--grid-n", "1025"]) == 1
        assert main(["cond-slice", "--grid-n", "1025"]) == 1
        assert "grid-n must be at most 1024" in capsys.readouterr().err

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
        assert float(fields["x_star"]) == pytest.approx(math.pi / 8, abs=1e-8)
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
        rc, out, _ = run_to_text(
            capsys, ["cond-slice", "--grid-n", "5", "--panels", "64"]
        )
        assert rc == 0
        rows = data_lines(out)[1:]
        assert len(rows) == 5
        for row in rows:
            lam, p_st, p_td = map(float, row.split(","))
            assert p_st == pytest.approx((1.0 + lam * lam) / 2.0, abs=1e-10)
            assert p_td == pytest.approx((2.0 + lam * lam) / 4.0, abs=1e-10)
        assert data_lines(out)[0] == "lambda,P_stationary,P_timeavg"

    def test_surface_values(self, capsys):
        rc, out, _ = run_to_text(
            capsys, ["cond-surface", "--grid-n", "4", "--panels", "64"]
        )
        assert rc == 0
        rows = data_lines(out)[1:]
        assert len(rows) == 16
        for row in rows:
            lc, lr, p_st, p_td, adv = map(float, row.split(","))
            assert p_st == pytest.approx((1.0 + lc * lr) / 2.0, abs=1e-10)
            assert p_td == pytest.approx((2.0 + lc * lr) / 4.0, abs=1e-10)
            assert adv == pytest.approx(lc * lr / 4.0, abs=1e-10)

    def test_surface_is_row_major_in_clock_sharpness(self, capsys):
        rc, out, _ = run_to_text(
            capsys, ["cond-surface", "--grid-n", "3", "--panels", "64"]
        )
        assert rc == 0
        pairs = [tuple(map(float, row.split(",")[:2])) for row in data_lines(out)[1:]]
        grid = [0.0, 0.5, 1.0]
        assert pairs == [(lc, lr) for lc in grid for lr in grid]


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

    def test_report_json(self, capsys):
        rc, out, _ = run_to_text(capsys, ["report", "--format", "json"])
        assert rc == 0
        obj = json.loads(out)
        assert obj["pass"] is True
        assert len(obj["checks"]) == 15
        for check in obj["checks"]:
            assert set(check) == {"name", "value", "target", "pass"}
            assert check["pass"] is True


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
            ["cond-surface", "--grid-n", "3", "--panels", "64"],
            ["cond-slice", "--grid-n", "3", "--panels", "64"],
            ["report", "--panels", "64"],
            ["dof", "--dim", "4"],
            ["wd-check", "--panels", "64"],
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
            ["cond-surface", "--grid-n", "3", "--panels", "64"],
            ["cond-slice", "--grid-n", "3", "--panels", "64"],
            ["report", "--panels", "64"],
            ["wd-check", "--panels", "64"],
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
