"""Acceptance suite: the ten headline behaviors, one test and one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criterion 2 asserts that the four-time combination exceeds 2 at one hundred
uniform interior points of (0, pi/4). The combination crosses 2 at
x = arccos((sqrt(3) - 1)/2)/2 ~= 0.598, which lies inside that window, so the
clause fails at the 24 sampled points beyond the crossing. The clause is kept
in its literal form on purpose; see the README note on the violation window.
"""

import math

import numpy as np
import pytest

from photonclock import (
    ClockSpec,
    ConditionalQuery,
    Formalism,
    InitialCondition,
    MeasurementKind,
    Outcome,
    SharpnessPair,
    Spin,
    StateKind,
    conditional_probability,
    entanglement_advantage,
    global_hamiltonian,
    joint_effect,
    joint_two_time_probability,
    lgi_functional,
    lgi_functional_engine,
    lgi_maximize,
    massive_graviton_dof,
    massless_graviton_dof,
    spin_multiplicity,
    stationary_state,
    two_time_correlator,
    wd_residual,
)
from photonclock.cli import main as cli_main

UNIT = ClockSpec(1.0)
C_MAX = 2.0 * math.sqrt(2.0)
LAMBDA_GRID = np.linspace(0.0, 1.0, 21)


def _verdict(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:02d} {status}: {detail}")
    if not ok:
        pytest.fail(f"criterion {number:02d}: {detail}")


def test_criterion_01_lgi_maximum():
    x_star, c_star = lgi_maximize(0.0, math.pi / 2.0)
    dx = abs(x_star - math.pi / 8.0)
    dc = abs(c_star - C_MAX)
    de = abs(lgi_functional_engine(x_star) - C_MAX)
    ok = dx <= 1e-8 and dc <= 1e-10 and de <= 1e-10
    _verdict(
        1,
        ok,
        f"maximizer x*={x_star:.12f} (off pi/8 by {dx:.2e}, tol 1e-8), "
        f"C*={c_star:.15f} (off 2*sqrt(2) by {dc:.2e}, tol 1e-10), "
        f"sequential engine off by {de:.2e} (tol 1e-10)",
    )


def test_criterion_02_lgi_curve():
    xs = np.linspace(0.0, math.pi, 1001)[1:]
    worst = max(
        abs(lgi_functional_engine(float(x)) - lgi_functional(float(x))) for x in xs
    )
    engine_ok = worst <= 1e-12

    zero_gap = abs(lgi_functional(0.0) - 2.0)
    zero_ok = zero_gap <= 1e-12

    interior = np.linspace(0.0, math.pi / 4.0, 102)[1:-1]
    values = lgi_functional(interior)
    n_below = int(np.sum(values <= 2.0))
    window_ok = n_below == 0

    detail = (
        f"engine vs closed form on 1000 grid points of (0, pi]: worst {worst:.2e} "
        f"(tol 1e-12, {'ok' if engine_ok else 'FAIL'}); "
        f"C(0) off 2 by {zero_gap:.2e} (tol 1e-12, {'ok' if zero_ok else 'FAIL'}); "
        f"C > 2 at 100 interior points of (0, pi/4): {'ok' if window_ok else 'FAIL'}"
    )
    if not window_ok:
        detail += (
            f" [C <= 2 at {n_below}/100 points; 3cos(2x) - cos(6x) - 2 = "
            f"-2(c - 1)(2c^2 + 2c - 1) with c = cos(2x) crosses zero at "
            f"x = arccos((sqrt(3) - 1)/2)/2 = {math.acos((math.sqrt(3) - 1) / 2) / 2:.12f}, "
            f"inside the sampled window]"
        )
    _verdict(2, engine_ok and zero_ok and window_ok, detail)


def test_criterion_03_stationarity_constraint():
    psi = stationary_state(UNIT)  # produced by one-period averaging, not pinned
    residual = wd_residual(global_hamiltonian(UNIT), psi)
    singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    overlap = abs(np.vdot(singlet, psi))
    ok = residual <= 1e-12
    _verdict(
        3,
        ok,
        f"averaged state annihilated by the global generator: residual "
        f"{residual:.2e} (tol 1e-12); singlet overlap {overlap:.15f}",
    )


def test_criterion_04_sharp_conditionals():
    values = {}
    for kind, key in ((StateKind.STATIONARY, "st"), (StateKind.TIME_DEPENDENT, "td")):
        for formalism in Formalism:
            query = ConditionalQuery(kind, MeasurementKind.SHARP, formalism=formalism)
            values[(key, formalism)] = conditional_probability(query, UNIT)
    st_gap = max(abs(values[("st", f)] - 1.0) for f in Formalism)
    td_gap = max(abs(values[("td", f)] - 0.75) for f in Formalism)
    agree_gap = max(
        abs(values[(k, Formalism.AMPLITUDE)] - values[(k, Formalism.DENSITY_MATRIX)])
        for k in ("st", "td")
    )
    ok = st_gap <= 1e-12 and td_gap <= 1e-10 and agree_gap <= 1e-12
    _verdict(
        4,
        ok,
        f"sharp conditionals: stationary off 1 by {st_gap:.2e} (tol 1e-12, both "
        f"formalisms), time-averaged off 3/4 by {td_gap:.2e} (tol 1e-10, both), "
        f"formalism mismatch {agree_gap:.2e} (tol 1e-12)",
    )


def test_criterion_05_unsharp_conditionals():
    worst_st = worst_td = 0.0
    for lc in LAMBDA_GRID:
        for lr in LAMBDA_GRID:
            pair = SharpnessPair(float(lc), float(lr))
            product = float(lc) * float(lr)
            p_st = conditional_probability(
                ConditionalQuery(StateKind.STATIONARY, MeasurementKind.UNSHARP, pair),
                UNIT,
            )
            p_td = conditional_probability(
                ConditionalQuery(StateKind.TIME_DEPENDENT, MeasurementKind.UNSHARP, pair),
                UNIT,
            )
            worst_st = max(worst_st, abs(p_st - (1.0 + product) / 2.0))
            worst_td = max(worst_td, abs(p_td - (2.0 + product) / 4.0))
    sharp_corner = SharpnessPair(1.0, 1.0)
    corner_st = conditional_probability(
        ConditionalQuery(StateKind.STATIONARY, MeasurementKind.UNSHARP, sharp_corner),
        UNIT,
    )
    corner_td = conditional_probability(
        ConditionalQuery(StateKind.TIME_DEPENDENT, MeasurementKind.UNSHARP, sharp_corner),
        UNIT,
    )
    corner_gap = max(abs(corner_st - 1.0), abs(corner_td - 0.75))
    ok = worst_st <= 1e-10 and worst_td <= 1e-10 and corner_gap <= 1e-12
    _verdict(
        5,
        ok,
        f"unsharp conditionals on the 21x21 sharpness grid: worst deviation "
        f"{worst_st:.2e} from (1 + lc*lr)/2 and {worst_td:.2e} from "
        f"(2 + lc*lr)/4 (tol 1e-10); fully sharp corner off (1, 3/4) by "
        f"{corner_gap:.2e} (tol 1e-12)",
    )


def test_criterion_06_entanglement_advantage():
    worst = 0.0
    most_negative = 0.0
    worst_boundary = 0.0
    for lc in LAMBDA_GRID:
        for lr in LAMBDA_GRID:
            product = float(lc) * float(lr)
            adv = entanglement_advantage(SharpnessPair(float(lc), float(lr)), UNIT)
            worst = max(worst, abs(adv - product / 4.0))
            most_negative = min(most_negative, adv)
            if product == 0.0:
                worst_boundary = max(worst_boundary, abs(adv))
    ok = worst <= 1e-10 and most_negative >= -1e-12 and worst_boundary <= 1e-12
    _verdict(
        6,
        ok,
        f"advantage off lc*lr/4 by at most {worst:.2e} (tol 1e-10); most negative "
        f"value {most_negative:.2e} (floor -1e-12); largest magnitude on the "
        f"lc*lr = 0 boundary {worst_boundary:.2e} (tol 1e-12)",
    )


def test_criterion_07_sequential_engine_oracle():
    rng = np.random.default_rng(20260822)
    t1s = rng.uniform(0.0, 4.0 * math.pi, 1000)
    gaps = rng.uniform(1e-6, 4.0 * math.pi, 1000)
    worst_joint = worst_corr = 0.0
    for t1, gap in zip(t1s, gaps):
        t2 = t1 + gap
        p = joint_two_time_probability(
            InitialCondition.START_H, Outcome.H, t1, Outcome.H, t2, UNIT
        )
        worst_joint = max(
            worst_joint, abs(p - math.cos(t1) ** 2 * math.cos(gap) ** 2)
        )
        target = math.cos(2.0 * gap)
        for init in InitialCondition:
            corr = two_time_correlator(t1, t2, UNIT, init)
            worst_corr = max(worst_corr, abs(corr - target))
    ok = worst_joint <= 1e-12 and worst_corr <= 1e-12
    _verdict(
        7,
        ok,
        f"1000 random time pairs: joint probability off cos^2(t1) cos^2(t2 - t1) "
        f"by at most {worst_joint:.2e}, correlator off cos(2(t2 - t1)) by at most "
        f"{worst_corr:.2e}, both preparations (tol 1e-12)",
    )


def test_criterion_08_povm_structure():
    worst_sum = 0.0
    eig_low, eig_high = 0.0, 1.0
    for lc in LAMBDA_GRID:
        for lr in LAMBDA_GRID:
            pair = SharpnessPair(float(lc), float(lr))
            effects = [
                joint_effect(pair, oc, orr)
                for oc in (Outcome.H, Outcome.V)
                for orr in (Outcome.H, Outcome.V)
            ]
            total = sum(effects)
            worst_sum = max(worst_sum, float(np.max(np.abs(total - np.eye(4)))))
            for eff in effects:
                evals = np.linalg.eigvalsh(eff)
                eig_low = min(eig_low, float(evals.min()))
                eig_high = max(eig_high, float(evals.max()))
    ok = worst_sum <= 1e-15 and eig_low >= -1e-12 and eig_high <= 1.0 + 1e-12
    _verdict(
        8,
        ok,
        f"four joint effects sum to the identity within {worst_sum:.2e} (tol 1e-15) "
        f"across the 21x21 grid; eigenvalue range [{eig_low:.2e}, {eig_high:.15f}] "
        f"inside [-1e-12, 1 + 1e-12]",
    )


def test_criterion_09_dof_table():
    checks = (
        massless_graviton_dof(4) == 2,
        massive_graviton_dof(4) == 5,
        spin_multiplicity(Spin.from_j(2)) == 5,
        spin_multiplicity(Spin.from_j(0.5)) == 2,
        Spin.from_j(0.5).twice_j == 1,
    )
    ok = all(checks)
    _verdict(
        9,
        ok,
        f"massless(4) = {massless_graviton_dof(4)}, massive(4) = "
        f"{massive_graviton_dof(4)}, multiplicity(j=2) = "
        f"{spin_multiplicity(Spin.from_j(2))}, multiplicity(j=1/2) = "
        f"{spin_multiplicity(Spin.from_j(0.5))}, all exact integers",
    )


def test_criterion_10_cli_determinism(tmp_path, capsys):
    report_path = tmp_path / "report.txt"
    report_rc = cli_main(["report", "--out", str(report_path)])
    report_ok = (
        report_rc == 0
        and report_path.read_text(encoding="utf-8").splitlines()[-1]
        == "report: PASS (15/15 checks)"
    )

    commands = {
        "lgi-scan": ["lgi-scan", "--x-steps", "24"],
        "cond-surface": ["cond-surface", "--grid-n", "3"],
        "cond-slice": ["cond-slice", "--grid-n", "3"],
        "report": ["report"],
        "dof": ["dof", "--dim", "4"],
        "wd-check": ["wd-check"],
    }
    rerun_ok = True
    for name, argv in commands.items():
        a = tmp_path / f"{name}-a.out"
        b = tmp_path / f"{name}-b.out"
        rerun_ok &= cli_main(argv + ["--out", str(a)]) == 0
        rerun_ok &= cli_main(argv + ["--out", str(b)]) == 0
        rerun_ok &= a.read_bytes() == b.read_bytes()

    omega_ok = True
    for name, argv in commands.items():
        if name == "dof":  # its table involves no clock, so it takes no --omega
            continue
        lines = []
        for omega in ("1.0", "3.7"):
            path = tmp_path / f"{name}-omega{omega}.out"
            omega_ok &= cli_main(argv + ["--omega", omega, "--out", str(path)]) == 0
            text = path.read_text(encoding="utf-8")
            lines.append(
                [line for line in text.splitlines() if not line.startswith("#")]
            )
        omega_ok &= lines[0] == lines[1]

    capsys.readouterr()
    ok = report_ok and rerun_ok and omega_ok
    _verdict(
        10,
        ok,
        f"report exit code {report_rc} with every check passing ({report_ok}); "
        f"byte-identical reruns for all six commands ({rerun_ok}); data lines "
        f"independent of the configured frequency, 1.0 vs 3.7, for the five commands that take one ({omega_ok})",
    )
