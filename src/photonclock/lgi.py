"""Sequential clock-photon statistics and the Leggett-Garg combination.

The protocol measures the polarization of the clock photon alone at a list
of times. Joint statistics follow the evolve / collapse / evolve pattern:
unitary evolution to the first time, projective collapse on the recorded
outcome, evolution over the gap, Born rule at the second time.

The readout is sharp in the H/V basis, so the collapse on a first outcome o1
leaves the basis ket |o1>, whatever the state was, and the joint probability
is a product of two squared rotation entries:

    P(o1 at t1, o2 at t2) = <o1|U(t1)|psi0>^2 * <o2|U(t2 - t1)|o1>^2.

The amplitudes are entries of the plane rotation U(t) = [[c, s], [-s, c]]
at phase omega*t, so the product is elementwise arithmetic on the cosines
and sines of two phases. One private kernel forms it from arrays of those
cosines and sines, and each public function validates its inputs, evaluates
each distinct phase it needs once and hands the kernel their cosines and
sines. The validated chain of propagator, Lüders collapse and Born rule is
the kernel's test oracle.

For measurements at four equally spaced times with phase gap x = omega*dt,
the three-plus-one correlator combination

    C = C12 + C23 + C34 - C14 = 3 cos(2x) - cos(6x) = 6c - 4c^3,  c = cos(2x),

exceeds the macrorealist bound 2 and reaches 2*sqrt(2) at x = pi/8.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .dynamics import ClockSpec
from .measurement import NULL_PROBABILITY, Outcome
from .qstate import ket

CLASSICAL_BOUND = 2.0

# the engine's domain: past X_MAX its schedule times k*x/omega round at
# ulp(3x), and its deviation from the closed form grows with x (9.3e-10 on [1e5, 1e6])
X_MAX = 1e4
# the largest phase omega*t the engine evaluates, at t4 = 3 dt; the domain of every time
_MAX_PHASE = 3.0 * X_MAX
# the engine's default clock: the combination is dimensionless
_UNIT_CLOCK = ClockSpec(1.0)


class InitialCondition(enum.IntEnum):
    """Which polarization the clock photon is prepared in at t = 0."""

    START_H = 1
    START_V = 2

    @property
    def clock_ket(self) -> np.ndarray:
        return ket("H") if self is InitialCondition.START_H else ket("V")


@dataclass(frozen=True)
class LgiSchedule:
    """Four strictly increasing measurement times."""

    t1: float
    t2: float
    t3: float
    t4: float

    def __post_init__(self):
        times = self.times
        if not all(math.isfinite(t) for t in times):
            raise ValueError("schedule times must be finite")
        if not (times[0] < times[1] < times[2] < times[3]):
            raise ValueError("schedule times must be strictly increasing")

    @property
    def times(self) -> tuple[float, float, float, float]:
        return (self.t1, self.t2, self.t3, self.t4)


def _joint_table(init: InitialCondition, cos1, sin1, cos_gap, sin_gap):
    """P(o1 at t1, o2 at t2) as table[o1.index][o2.index]; a null first outcome gives 0.

    Takes the cosines and sines of the phases omega*t1 and omega*(t2 - t1),
    which broadcast together. U(t1) keeps the prepared ket with amplitude
    +-cos and turns it with +-sin, so the first factor is cos1^2 for the
    prepared outcome and sin1^2 for the other. The transfer factor
    <o2|U(t2 - t1)|o1>^2 is cos_gap^2 when o2 = o1 and sin_gap^2 when not.
    """
    kept, turned = cos1 * cos1, sin1 * sin1  # not **2, which on a numpy scalar calls pow and may round apart
    p_h, p_v = (kept, turned) if init is InitialCondition.START_H else (turned, kept)
    p_h = np.where(p_h >= NULL_PROBABILITY, p_h, 0.0)
    p_v = np.where(p_v >= NULL_PROBABILITY, p_v, 0.0)
    stay, flip = cos_gap * cos_gap, sin_gap * sin_gap
    return (p_h * stay, p_h * flip), (p_v * flip, p_v * stay)


def _correlator(table):
    """<Q(t1) Q(t2)> = P(H, H) - P(H, V) - P(V, H) + P(V, V) from a joint table."""
    (hh, hv), (vh, vv) = table
    return hh - hv - vh + vv


def _pair_table(init: InitialCondition, t1: float, t2: float, spec: ClockSpec):
    """The joint table at two times, inside the domain 0 <= t1 < t2 <= 3 X_MAX / omega."""
    t1, t2 = float(t1), float(t2)
    if not (math.isfinite(t1) and math.isfinite(t2) and 0.0 <= t1 < t2):
        raise ValueError("need 0 <= t1 < t2")
    if not spec.omega * t2 <= _MAX_PHASE:
        raise ValueError(f"need omega * t2 <= 3 * X_MAX = {_MAX_PHASE:g}, the largest phase the engine evaluates")
    first, gap = spec.omega * t1, spec.omega * (t2 - t1)
    return _joint_table(init, np.cos(first), np.sin(first), np.cos(gap), np.sin(gap))


def joint_two_time_probability(
    init: InitialCondition,
    outcome1: Outcome,
    t1: float,
    outcome2: Outcome,
    t2: float,
    spec: ClockSpec,
) -> float:
    """P(outcome1 at t1 and outcome2 at t2) under sharp sequential readout.

    Domain: 0 <= t1 < t2 with omega * t2 <= 3 * X_MAX, the largest phase the
    engine evaluates; anything else raises ValueError.
    """
    return float(_pair_table(init, t1, t2, spec)[outcome1.index][outcome2.index])


def two_time_correlator(
    t1: float, t2: float, spec: ClockSpec, init: InitialCondition = InitialCondition.START_H
) -> float:
    """<Q(t1) Q(t2)> from the four sequential joint probabilities.

    Collapses to cos(2*omega*(t2 - t1)): independent of t1 and of the
    preparation. Domain: 0 <= t1 < t2 with omega * t2 <= 3 * X_MAX, the
    largest phase the engine evaluates; anything else raises ValueError.
    """
    return float(_correlator(_pair_table(init, t1, t2, spec)))


def lgi_value(
    schedule: LgiSchedule, spec: ClockSpec, init: InitialCondition = InitialCondition.START_H
) -> float:
    """C12 + C23 + C34 - C14 over an arbitrary schedule, via the sequential engine.

    Domain: a schedule that starts at t1 >= 0 and ends at omega * t4 <= 3 * X_MAX,
    the largest phase the engine evaluates; anything else raises ValueError.
    """
    if schedule.t1 < 0.0:
        raise ValueError("schedule must start at t >= 0")
    if not spec.omega * float(schedule.t4) <= _MAX_PHASE:
        raise ValueError(f"need omega * t4 <= 3 * X_MAX = {_MAX_PHASE:g}, the largest phase the engine evaluates")
    times = np.array(schedule.times)
    start, end = times[[0, 1, 2, 0]], times[[1, 2, 3, 3]]
    first, gap = spec.omega * start, spec.omega * (end - start)
    c12, c23, c34, c14 = _correlator(_joint_table(init, np.cos(first), np.sin(first), np.cos(gap), np.sin(gap)))
    return float(c12 + c23 + c34 - c14)


def lgi_functional(x) -> float | np.ndarray:
    """Closed form 3 cos(2x) - cos(6x) of the equally spaced combination, for a scalar or an array.

    Domain: |x| <= sys.float_info.max / 2, where 2x stays finite; anything else raises ValueError."""
    xv = np.asarray(x, dtype=float)
    if not (np.abs(xv) <= sys.float_info.max / 2.0).all():  # a NaN fails too
        raise ValueError("x must lie within |x| <= sys.float_info.max / 2, where 2x stays finite")
    value = _closed_form(xv, np.cos)
    return float(value) if xv.ndim == 0 else value


def lgi_functional_engine(
    x, spec: ClockSpec | None = None, init: InitialCondition = InitialCondition.START_H
) -> float | np.ndarray:
    """The same combination evaluated by the collapse-and-evolve engine, for a scalar or an array.

    Domain: every gap in 0 < x <= X_MAX = 1e4, with x / omega a finite time;
    there the engine stays within 1e-10 of the closed form: at most 2.3e-15 on
    (0, pi], 7.7e-15 on [1, 10) and 7.3e-12 on [1e3, 1e4], in 200,000 x per
    range, uniform in the first, log-uniform after. Anything else raises ValueError.

    The quantity is dimensionless, so by default it is evaluated on a unit
    frequency clock, which makes the result independent of any configured
    omega down to the last bit.
    """
    spec = spec if spec is not None else _UNIT_CLOCK
    with np.errstate(over="ignore"):  # an overflowing time step raises the ValueError alone
        dt = np.divide(x, spec.omega)
        dt3 = 3.0 * dt
        if not ((dt > 0.0) & np.isfinite(dt3)).all():
            raise ValueError("phase gap x must be positive, with x / omega a finite time")
    if not np.less_equal(x, X_MAX).all():
        raise ValueError(f"phase gap x must be at most X_MAX = {X_MAX:g}, the engine's accuracy envelope")
    # The schedule 0, dt, 2 dt, 3 dt has four distinct phases besides 0: omega times dt, 2 dt,
    # the last gap 3 dt - 2 dt and 3 dt (the middle gap 2 dt - dt is dt exactly). The pairs
    # (t1, t2) and (t1, t4) start at phase 0, whose cosine and sine are 1 and 0 exactly.
    dt2 = 2.0 * dt
    phases = spec.omega * np.array([dt, dt2, dt3 - dt2, dt3])
    cos, sin = np.cos(phases), np.sin(phases)
    # rows [::3] are the gaps dt and 3 dt; [:2] the starts dt and 2 dt of (t2, t3) and (t3, t4),
    # and [::2] their gaps dt and 3 dt - 2 dt
    c12, c14 = _correlator(_joint_table(init, 1.0, 0.0, cos[::3], sin[::3]))
    c23, c34 = _correlator(_joint_table(init, cos[:2], sin[:2], cos[::2], sin[::2]))
    value = c12 + c23 + c34 - c14
    return float(value) if value.ndim == 0 else value


def violates_classical_bound(value: float | np.ndarray) -> bool | np.ndarray:
    """True when the combination exceeds 2 beyond numerical slack.

    Takes a float or an array of them; an array gives a boolean array,
    element by element the same as the scalar calls. Domain: finite values;
    a NaN or an infinity raises ValueError, which names the first one.
    """
    finite = np.isfinite(value)
    if not finite.all():
        bad = float(np.ravel(value)[np.argmin(finite)])
        raise ValueError(f"value must be finite to compare with the classical bound, got {bad!r}")
    return value > CLASSICAL_BOUND + 1e-12


def _closed_form(x, cos=math.cos):
    """3 cos(2x) - cos(6x) as 6c - 4c^3 in its least-rounding order c (6 - 4c^2), c = cos(2x) of the exact
    2x; math.cos for the maximizer's refinement, np.cos for lgi_functional: a test pins them bit for bit."""
    c = cos(2.0 * x)
    return c * (6.0 - 4.0 * (c * c))


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2
_SCAN_SAMPLES = 1025


def lgi_maximize(x_lo: float, x_hi: float) -> tuple[float, float]:
    """Maximize the closed-form combination on [x_lo, x_hi].

    Dense scan (1025 points, first maximum wins ties) brackets the
    peak, then golden-section refinement shrinks the bracket below 1e-10 or to ulp(x).
    Returns (x_star, value at x_star). Deterministic by construction.

    Domain: x_lo < x_hi in lgi_functional's domain, |x| <= sys.float_info.max / 2;
    anything else raises ValueError.
    """
    if not x_lo < x_hi:  # a NaN fails too
        raise ValueError("need x_lo < x_hi")
    lgi_functional(np.array([x_lo, x_hi]))  # raises outside its domain, where linspace would overflow too
    grid = np.linspace(x_lo, x_hi, _SCAN_SAMPLES)
    return _refine(grid, lgi_functional(grid))


def _refine(grid: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """lgi_maximize past its scan: bracket the first maximum of the closed-form values
    on grid, then shrink the bracket by golden section below 1e-10 or to ulp(x)."""
    best = int(values.argmax())  # argmax takes the first, hence lowest-x, maximum
    a = float(grid[max(best - 1, 0)])
    b = float(grid[min(best + 1, grid.size - 1)])

    h = b - a
    c = a + _INV_PHI_SQ * h
    d = a + _INV_PHI * h
    fc = _closed_form(c)
    fd = _closed_form(d)
    while h > 1e-10 and a < c < d < b:
        if fc > fd or (fc == fd and c < d):
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INV_PHI_SQ * h
            fc = _closed_form(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INV_PHI * h
            fd = _closed_form(d)
    x_star = (a + b) / 2.0
    return x_star, _closed_form(x_star)
