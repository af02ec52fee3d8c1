"""Sequential clock-photon statistics and the Leggett-Garg combination.

The protocol measures the polarization of the clock photon alone at a list
of times. Joint statistics follow the evolve / collapse / evolve pattern:
unitary evolution to the first time, projective collapse on the recorded
outcome, evolution over the gap, Born rule at the second time.

One private kernel runs that pipeline batched over arrays of times, and each
public function validates its inputs and calls it once. The validated chain of
propagator, Lüders collapse and Born rule is the kernel's test oracle.

For measurements at four equally spaced times with phase gap x = omega*dt,
the three-plus-one correlator combination

    C = C12 + C23 + C34 - C14 = 3 cos(2x) - cos(6x)

exceeds the macrorealist bound 2 and reaches 2*sqrt(2) at x = pi/8.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ClockSpec
from .measurement import NULL_PROBABILITY, Outcome, unsharp_effects
from .qstate import ket

CLASSICAL_BOUND = 2.0

# the sharp projectors and the Q eigenvalues, stacked by Outcome.index
_PROJECTORS = np.stack(unsharp_effects(1.0)).real
_Q = np.array([Outcome.H.value, Outcome.V.value], dtype=float)


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


def _rotation(phase) -> np.ndarray:
    """exp(-i h t) of the one-photon generator at phase omega*t, batched to shape (2, 2, ...)."""
    c, s = np.cos(phase), np.sin(phase)
    return np.array([[c, s], [-s, c]])


def _joint_table(init: InitialCondition, t1, t2, omega: float) -> np.ndarray:
    """P(o1 at t1, o2 at t2) at [o1.index, o2.index, ...]; a null first outcome gives 0.

    The size-2 component axes come first and the batch axes last, so each
    einsum's inner loop runs over the contiguous batch.
    Trusted: callers have checked 0 <= t1 <= t2, which broadcast together.
    """
    t1, t2 = np.broadcast_arrays(t1, t2)  # one batch shape for every temporary
    psi = np.einsum("ij...,j->i...", _rotation(omega * t1), init.clock_ket.real)
    projected = np.einsum("aij,j...->ai...", _PROJECTORS, psi)
    p1 = np.einsum("ai...,ai...->a...", projected, projected)
    live = p1 >= NULL_PROBABILITY
    post = projected / np.sqrt(np.where(live, p1, 1.0))[:, None]
    evolved = np.einsum("ij...,aj...->ai...", _rotation(omega * (t2 - t1)), post)
    p2 = np.einsum("bij,ai...,aj...->ab...", _PROJECTORS, evolved, evolved)
    return np.where(live, p1, 0.0)[:, None] * p2


def _combination(init: InitialCondition, times: np.ndarray, omega: float) -> np.ndarray:
    """C12 + C23 + C34 - C14 for schedules stacked on the first axis of times."""
    table = _joint_table(init, times[[0, 1, 2, 0]], times[[1, 2, 3, 3]], omega)
    c12, c23, c34, c14 = np.einsum("a,ab...,b->...", _Q, table, _Q)
    return c12 + c23 + c34 - c14


def joint_two_time_probability(
    init: InitialCondition,
    outcome1: Outcome,
    t1: float,
    outcome2: Outcome,
    t2: float,
    spec: ClockSpec,
) -> float:
    """P(outcome1 at t1 and outcome2 at t2) under sharp sequential readout."""
    if not (math.isfinite(t1) and math.isfinite(t2) and 0.0 <= t1 < t2):
        raise ValueError("need 0 <= t1 < t2")
    return float(_joint_table(init, t1, t2, spec.omega)[outcome1.index, outcome2.index])


def two_time_correlator(
    t1: float, t2: float, spec: ClockSpec, init: InitialCondition = InitialCondition.START_H
) -> float:
    """<Q(t1) Q(t2)> from the four sequential joint probabilities.

    Collapses to cos(2*omega*(t2 - t1)): independent of t1 and of the
    preparation.
    """
    if not (math.isfinite(t1) and math.isfinite(t2) and 0.0 <= t1 < t2):
        raise ValueError("need 0 <= t1 < t2")
    return float(_Q @ _joint_table(init, t1, t2, spec.omega) @ _Q)


def lgi_value(
    schedule: LgiSchedule, spec: ClockSpec, init: InitialCondition = InitialCondition.START_H
) -> float:
    """C12 + C23 + C34 - C14 over an arbitrary schedule, via the sequential engine."""
    if schedule.t1 < 0.0:
        raise ValueError("schedule must start at t >= 0")
    return float(_combination(init, np.array(schedule.times), spec.omega))


def lgi_functional(x) -> float | np.ndarray:
    """Closed form 3 cos(2x) - cos(6x) of the equally spaced combination."""
    if isinstance(x, float):  # the maximizer's refinement calls: no 0-d array round trip
        return float(3.0 * np.cos(2.0 * x) - np.cos(6.0 * x))
    xv = np.asarray(x, dtype=float)
    value = 3.0 * np.cos(2.0 * xv) - np.cos(6.0 * xv)
    return float(value) if np.isscalar(x) or xv.ndim == 0 else value


def lgi_functional_engine(
    x, spec: ClockSpec | None = None, init: InitialCondition = InitialCondition.START_H
) -> float | np.ndarray:
    """The same combination evaluated by the collapse-and-evolve engine, for a scalar or an array.

    The quantity is dimensionless, so by default it is evaluated on a unit
    frequency clock, which makes the result independent of any configured
    omega down to the last bit.
    """
    spec = spec if spec is not None else ClockSpec(1.0)
    with np.errstate(over="ignore"):  # an overflowing time step raises the ValueError alone
        dt = np.divide(x, spec.omega)
        if not np.all((dt > 0.0) & np.isfinite(3.0 * dt)):
            raise ValueError("phase gap x must be positive, with x / omega a finite time")
    value = _combination(init, np.multiply.outer(np.arange(4.0), dt), spec.omega)  # 0, dt, 2 dt, 3 dt
    return float(value) if value.ndim == 0 else value


def violates_classical_bound(value: float | np.ndarray) -> bool | np.ndarray:
    """True when the combination exceeds 2 beyond numerical slack.

    Takes a float or an array of them; an array gives a boolean array,
    element by element the same as the scalar calls.
    """
    return value > CLASSICAL_BOUND + 1e-12


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2
_SCAN_SAMPLES = 1025


def lgi_maximize(x_lo: float, x_hi: float) -> tuple[float, float]:
    """Maximize the closed-form combination on [x_lo, x_hi].

    Dense scan (1025 points, first maximum wins ties) brackets the
    peak, then golden-section refinement shrinks the bracket below 1e-10 or to ulp(x).
    Returns (x_star, value at x_star). Deterministic by construction.
    """
    if not (math.isfinite(x_lo) and math.isfinite(x_hi) and x_lo < x_hi):
        raise ValueError("need x_lo < x_hi")
    grid = np.linspace(x_lo, x_hi, _SCAN_SAMPLES)
    values = lgi_functional(grid)
    best = int(np.argmax(values))  # argmax takes the first, hence lowest-x, maximum
    a = float(grid[max(best - 1, 0)])
    b = float(grid[min(best + 1, _SCAN_SAMPLES - 1)])

    h = b - a
    c = a + _INV_PHI_SQ * h
    d = a + _INV_PHI * h
    fc = lgi_functional(c)
    fd = lgi_functional(d)
    while h > 1e-10 and a < c < d < b:
        if fc > fd or (fc == fd and c < d):
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INV_PHI_SQ * h
            fc = lgi_functional(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INV_PHI * h
            fd = lgi_functional(d)
    x_star = (a + b) / 2.0
    return x_star, lgi_functional(x_star)
