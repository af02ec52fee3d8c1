"""Regenerate every headline dataset and the summary report into one directory.

Usage:
    python scripts/reproduce_results.py --out-dir results
"""

import argparse
import math
import os
import sys

from photonclock.cli import main as cli


def run(argv):
    print(">>> photonclock " + " ".join(argv))
    rc = cli(argv)
    if rc != 0:
        sys.exit(rc)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out-dir", default="results", help="where the files go")
    args = parser.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    out = lambda name: os.path.join(args.out_dir, name)

    # dense curve of the four-time combination, whole symmetric window
    run(["lgi-scan", "--x-min", "0", "--x-max", str(math.pi),
         "--x-steps", "1024", "--out", out("lgi_curve.csv")])

    # zoom on the violating window up to the first quarter
    run(["lgi-scan", "--x-min", "0", "--x-max", str(math.pi / 4),
         "--x-steps", "256", "--out", out("lgi_zoom.csv")])

    # a scan long enough to cross the writer's block edges (2^14 rows each)
    run(["lgi-scan", "--x-steps", "65536", "--out", out("lgi_dense.csv")])
    # and the same in JSON, with its bool column (20001 rows: a full block and a partial one)
    run(["lgi-scan", "--x-steps", "20000", "--format", "json", "--out", out("lgi_dense.json")])
    # the engine's edge, x up to X_MAX, where the rounding of the time 3 dt matters most
    run(["lgi-scan", "--x-min", "9990", "--x-max", "10000", "--x-steps", "4096",
         "--out", out("lgi_edge.csv")])

    # conditional probabilities over the full sharpness grid, in CSV and JSON, plus the diagonal
    run(["cond-surface", "--grid-n", "41", "--out", out("cond_surface.csv")])
    run(["cond-surface", "--grid-n", "41", "--format", "json", "--out", out("cond_surface.json")])
    run(["cond-slice", "--grid-n", "101", "--out", out("cond_slice.csv")])

    # a surface that crosses a block edge of the writer (22500 rows: a full block and a partial one)
    run(["cond-surface", "--grid-n", "150", "--out", out("cond_surface_dense.csv")])

    # headline integer table
    for dim in (3, 4, 5):
        run(["dof", "--dim", str(dim), "--out", out(f"dof_{dim}d.csv")])

    # stationarity and the one-page summary of every check
    run(["wd-check", "--out", out("wd_check.txt")])
    run(["report", "--out", out("report.txt")])
    run(["report", "--format", "json", "--out", out("report.json")])

    print(f"\nall outputs in {args.out_dir}/")
    with open(out("report.txt"), encoding="utf-8") as handle:
        print(handle.read().rstrip())


if __name__ == "__main__":
    main()
