"""The paper's closed forms, each held once: the independent check on every number the package prints.

Standard library only, so that a script without numpy or the package can import it. The
conditionals take their sharpness product with int literals, so a Fraction stays exact and a
float rounds as (1.0 + p) / 2.0 does. Phases are omega times a time: the correlator of the
readouts at t1 < t2 is a function of the phase gap omega (t2 - t1) alone.
"""

import decimal
import math
from decimal import Decimal

# How far the closed form c (6 - 4c^2), c = cos(2x), may round from 3 cos(2x) - cos(6x), with
# u = 2**-53. 2x and 4c^2 = 4 fl(c c) are exact. cos returns c within 1 ulp, at most u for
# |c| <= 1, and the cubic scales that by |6 - 12c^2| <= 6; fl(c c) is off by c^2 u, which the
# cubic carries as 4|c|^3 u <= 4u; fl(6 - 4c^2) and the last product are each off by u of
# the result, |6c - 4c^3| <= 2 sqrt(2). In all (6 + 4 + 4 sqrt(2)) u = 15.7 u, plus terms in
# u^2, under 16 u: four ulps of 2 sqrt(2), whose spacing is 4 u.
CLOSED_FORM_SLACK = 16 * 2.0**-53


def conditional(kind: str, p):
    """P(H_r | H_c) of the preparation `kind`, a StateKind value, at the sharpness product
    p = lambda_c lambda_r: (1 + p)/2 for the stationary pair, (2 + p)/4 for the time-averaged
    one. A sharp readout is p = 1."""
    if kind == "stationary":
        return (1 + p) / 2
    if kind == "time_dependent":
        return (2 + p) / 4
    raise ValueError(f"unknown preparation {kind!r}")


def advantage(p):
    """The stationary conditional minus the time-averaged one, p/4, at the sharpness product p."""
    return p / 4


def correlator(phase):
    """The two-time correlator cos(2 phi) at the phase gap phi = omega (t2 - t1)."""
    return math.cos(2 * phase)


def joint_probability(first_phase, gap_phase, first_is_prepared: bool, second_is_first: bool):
    """P(o1 at t1, o2 at t2) = (1 +- cos 2 phi1)/2 (1 +- cos 2 gamma)/2, phi1 = omega t1, gamma = omega (t2 - t1):
    cos^2 or sin^2 of each phase, + when o1 is the prepared polarization, and when o2 is o1."""
    first, transfer = correlator(first_phase), correlator(gap_phase)
    return (1 + (first if first_is_prepared else -first)) / 2 * ((1 + (transfer if second_is_first else -transfer)) / 2)


def schedule_sum(times, omega):
    """C12 + C23 + C34 - C14 of the readout times t1 < t2 < t3 < t4 on a clock of frequency omega."""
    t1, t2, t3, t4 = times
    pairs = ((t1, t2, 1), (t2, t3, 1), (t3, t4, 1), (t1, t4, -1))
    return sum(sign * correlator(omega * (b - a)) for a, b, sign in pairs)


def decimal_pi():
    """pi to the current precision: the pi() recipe of the decimal module's documentation."""
    decimal.getcontext().prec += 2
    three = Decimal(3)
    lasts, t, s, n, na, d, da = 0, three, 3, 1, 0, 0, 24
    while s != lasts:
        lasts = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        s += t
    decimal.getcontext().prec -= 2
    return +s


def decimal_cos(x):
    """cos(x) to the current precision by its Taylor series: the cos() recipe of the decimal
    module's documentation, for an argument already reduced to |x| <= pi."""
    decimal.getcontext().prec += 2
    i, lasts, s, fact, num, sign = 0, 0, 1, 1, 1, 1
    while s != lasts:
        lasts = s
        i += 2
        fact *= i * (i - 1)
        num *= x * x
        sign *= -1
        s += num / fact * sign
    decimal.getcontext().prec -= 2
    return +s


# Reducing an argument y modulo 2 pi loses the digits of its quotient, up to 309 for 6x near
# 6 * max / 2, so pi is held to 400 digits and the reduction runs at 400: the remainder is
# then off by under 1e308 * 1e-399, and its cosine is summed at 40 digits, 24 past a double's.
with decimal.localcontext() as _ctx:
    _ctx.prec = 400
    DECIMAL_TWO_PI = 2 * decimal_pi()


def exact_combination(x: float) -> Decimal:
    """3 cos(2x) - cos(6x) at the double x to about 40 digits, with 2x and 6x taken exactly:
    the physics form, so the oracle also checks the triple-angle identity."""
    with decimal.localcontext() as ctx:
        ctx.prec = 400
        reduced = [(k * Decimal(x)).remainder_near(DECIMAL_TWO_PI) for k in (2, 6)]
        ctx.prec = 40
        cos_2x, cos_6x = (decimal_cos(+r) for r in reduced)
        return 3 * cos_2x - cos_6x
