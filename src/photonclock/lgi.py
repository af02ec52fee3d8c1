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

Its maximum over a window needs no search: C' vanishes only at x = k pi +- pi/8
(2*sqrt(2)), k pi + pi/2 (-2) and k pi (2), so lgi_maximize evaluates the closed
form at those points and the endpoints, for |x| <= sys.float_info.max / 2, within
a derived bound of the true maximum that is vacuous past |x| ~ 1e15.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .dynamics import UNIT_CLOCK, ClockSpec
from .measurement import NULL_PROBABILITY, Outcome
from .qstate import refuse_text

CLASSICAL_BOUND = 2.0

# the engine's domain: past X_MAX its schedule times k*x/omega round at
# ulp(3x), and its deviation from the closed form grows with x (9.3e-10 on [1e5, 1e6]);
# its last time 3 * (x / omega) bounds every schedule route: 0 <= start < end <= 3 * (X_MAX / omega)
X_MAX = 1e4


class InitialCondition(enum.IntEnum):
    """Which polarization the clock photon is prepared in at t = 0."""

    START_H = 1
    START_V = 2


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


def _pairs_table(init: InitialCondition, start, end, spec: ClockSpec):
    """The joint table at each pair of times, which must satisfy 0 <= start < end <= 3 * (X_MAX / omega).

    That bound is the engine's last time 3 * (x / omega) at x = X_MAX, rounded the same way, so
    every schedule the engine evaluates is inside it; start and end broadcast together.
    """
    bound = 3.0 * (X_MAX / float(spec.omega))  # inf, never an overflow warning, when omega is tiny
    if not (np.isfinite(end) & (0.0 <= start) & (start < end) & (end <= bound)).all():  # a NaN fails too
        raise ValueError(f"need times 0 <= start < end <= 3 * (X_MAX / omega) = {bound!r}, with end finite")
    first, gap = spec.omega * start, spec.omega * (end - start)
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

    Domain: 0 <= t1 < t2 <= 3 * (X_MAX / omega), the engine's last time at
    x = X_MAX; anything else raises ValueError.
    """
    start, end = float(refuse_text(t1)), float(refuse_text(t2))
    return float(_pairs_table(init, start, end, spec)[outcome1.index][outcome2.index])


def two_time_correlator(
    t1: float, t2: float, spec: ClockSpec, init: InitialCondition = InitialCondition.START_H
) -> float:
    """<Q(t1) Q(t2)> from the four sequential joint probabilities.

    Collapses to cos(2*omega*(t2 - t1)): independent of t1 and of the
    preparation. Domain: 0 <= t1 < t2 <= 3 * (X_MAX / omega), the engine's
    last time at x = X_MAX; anything else raises ValueError.
    """
    start, end = float(refuse_text(t1)), float(refuse_text(t2))
    return float(_correlator(_pairs_table(init, start, end, spec)))


def lgi_value(
    schedule: LgiSchedule, spec: ClockSpec, init: InitialCondition = InitialCondition.START_H
) -> float:
    """C12 + C23 + C34 - C14 over an arbitrary schedule, via the sequential engine.

    Domain: a schedule with 0 <= t1 and t4 <= 3 * (X_MAX / omega), the engine's last
    time at x = X_MAX, so every equal schedule the engine evaluates; anything else
    raises ValueError.
    """
    times = np.array(schedule.times)
    c12, c23, c34, c14 = _correlator(_pairs_table(init, times[[0, 1, 2, 0]], times[[1, 2, 3, 3]], spec))
    return float(c12 + c23 + c34 - c14)


def lgi_functional(x) -> float | np.ndarray:
    """Closed form 3 cos(2x) - cos(6x) of the equally spaced combination, for a scalar or an array.

    Domain: |x| <= sys.float_info.max / 2, where 2x stays finite; anything else raises ValueError."""
    xv = np.asarray(refuse_text(x), dtype=float)
    if not (np.abs(xv) <= sys.float_info.max / 2.0).all():  # a NaN fails too
        raise ValueError("x must lie within |x| <= sys.float_info.max / 2, where 2x stays finite")
    c = np.cos(2.0 * xv)  # 2x is exact
    value = c * (6.0 - 4.0 * (c * c))  # 6c - 4c^3 in its least-rounding order
    return float(value) if xv.ndim == 0 else value


def lgi_functional_engine(
    x, spec: ClockSpec | None = None, init: InitialCondition = InitialCondition.START_H
) -> float | np.ndarray:
    """The same combination evaluated by the collapse-and-evolve engine, for a scalar or an array.

    Domain: every gap in 0 <= x <= X_MAX = 1e4, with x / omega a finite time; anything
    else raises ValueError. There the engine gives exactly 2 at x = +-0.0, every phase 0,
    and stays within 1e-10 of the closed form: at most 2.3e-15 on (0, pi], 7.7e-15 on
    [1, 10) and 7.3e-12 on [1e3, 1e4], in 200,000 x per range, uniform, then log-uniform.
    Its schedule 0, dt, 2 dt, 3 dt, dt = x / omega, ends at 3 * (x / omega) <= 3 * (X_MAX / omega),
    so lgi_value takes it and gives the same value bit for bit.

    The quantity is dimensionless, so by default it is evaluated on a unit
    frequency clock, which makes the result independent of any configured
    omega down to the last bit.
    """
    spec = spec if spec is not None else UNIT_CLOCK
    with np.errstate(over="ignore"):  # an overflowing time step raises the ValueError alone
        dt = np.divide(x, spec.omega)
        dt3 = 3.0 * dt
        if not (np.greater_equal(x, 0.0) & np.isfinite(dt3)).all():  # x itself: x / omega may round to -0.0
            raise ValueError("phase gap x must be nonnegative, with x / omega a finite time")
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


def lgi_maximize(x_lo: float, x_hi: float) -> tuple[float, float]:
    """Maximize the closed-form combination on [x_lo, x_hi]; returns (x_star, value at x_star).

    With c = cos(2x), C' = -2 sin(2x) (6 - 12c^2) vanishes only at x = k pi +- pi/8
    (C = 2 sqrt(2), the peaks), x = k pi + pi/2 (C = -2, local maxima) and x = k pi
    (C = 2, minima). So the maximum is the largest closed-form value among the two
    endpoints and the first two families' points strictly inside; an exact tie goes
    to the lowest x. On (0, pi/2) that is x_star = fl(pi/8) itself.

    Each candidate k pi + offset is off its critical point by delta <= 3 ulp(max |x| + 2),
    from the roundings of pi, of the offset, of the product and of the sum (derived beside
    the maximizer's dense-scan test in tests/test_lgi.py), and near a maximum C falls
    as 2 sqrt(2) - 12 sqrt(2) delta^2 (the -2 family more slowly). The value returned
    is therefore below the window's maximum by at most 12 sqrt(2) delta^2 plus twice
    the closed form's 16 * 2**-53 rounding. The bound is vacuous once ulp(x) >~ 1/4,
    |x| >~ 1e15, where doubles no longer resolve a peak.

    Domain: x_lo < x_hi in lgi_functional's domain, |x| <= sys.float_info.max / 2;
    anything else raises ValueError.
    """
    if not x_lo < x_hi:  # a NaN fails too
        raise ValueError("need x_lo < x_hi")
    points = [x_lo, x_hi]
    if math.isfinite(x_lo):  # else lgi_functional raises below, before math.ceil could overflow
        for offset in (-math.pi / 8.0, math.pi / 8.0, math.pi / 2.0):
            k = math.ceil((x_lo - offset) / math.pi)  # the first k inside, give or take the rounding
            points += [x for x in ((k + j) * math.pi + offset for j in (-1, 0, 1)) if x_lo < x < x_hi]
    points.sort()
    values = lgi_functional(np.array(points))  # raises outside its domain
    best = int(values.argmax())  # argmax takes the first, hence lowest-x, maximum
    return float(points[best]), float(values[best])
