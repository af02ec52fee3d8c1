"""Conditional pair probabilities for stationary versus evolving states.

Two preparations are compared. The stationary state is the one-period
amplitude average of the evolving product pair: the polarization singlet
(|HV> - |VH>)/sqrt(2), annihilated by the global generator. The evolving
("time dependent") preparation is the product pair itself; averaged over one
full period it is the mixed state rho_bar, the mean of its projectors.

The headline quantity is P(V on system | H on clock) = Tr[E rho] / Tr[E_c rho],
with E = (I + lambda_c Q_c)(I - lambda_r Q_r)/4 and E_c = (I + lambda_c Q_c)/2.
Both are affine in the sharpness, so a preparation enters only through the
moments <I>, <Q_c>, <Q_r>, <Q_c Q_r>, each taken in the queried formalism and
cached per preparation and formalism; the per-effect ratio is the tests'
oracle. A preparation is its equal-weight members, the singlet alone or the
product pair at the PANELS phase nodes, and both formalisms read them: the
amplitude route averages <psi|op|psi> over the members, and the density-matrix
route takes Tr[op rho] with rho their mean projector. Closed forms, with
clock and system sharpness lambda_c, lambda_r:

    stationary, sharp        : 1
    time dependent, sharp    : 3/4
    stationary, unsharp      : (1 + lambda_c*lambda_r)/2
    time dependent, unsharp  : (2 + lambda_c*lambda_r)/4

so entanglement buys exactly lambda_c*lambda_r/4. All period integrals are
evaluated in the phase variable theta = omega*t with the periodic trapezoid
rule at PANELS nodes, which makes every result independent of omega bit for
bit. The integrands are trigonometric polynomials of degree <= 4 in theta, so
the rule is exact once it has more than 4 nodes.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ClockSpec, product_state_phase
from .errors import DegenerateConditioningError, NumericalIntegrityError
from .measurement import SHARP, SharpnessPair, dichotomic_observable
from .qstate import Subsystem, trace_of_product

DEGENERATE_DENOMINATOR = 1e-14
# periodic-trapezoid nodes per period: more than the integrand degree 4, so the rule is exact
PANELS = 8

_Q_C, _Q_R = dichotomic_observable(Subsystem.CLOCK), dichotomic_observable(Subsystem.SYSTEM)
# both are diagonal, so Q_c Q_r is their elementwise product; a matmul would start BLAS at import
_MOMENTS = (np.eye(4, dtype=complex), _Q_C, _Q_R, _Q_C * _Q_R)


class StateKind(enum.Enum):
    STATIONARY = "stationary"
    TIME_DEPENDENT = "time_dependent"


class MeasurementKind(enum.Enum):
    SHARP = "sharp"
    UNSHARP = "unsharp"


class Formalism(enum.Enum):
    """Two routes to the same number: the mean of amplitude expectations
    over the preparation's members, or the trace rule against its averaged
    density matrix. They must agree; tests enforce it."""

    AMPLITUDE = "amplitude"
    DENSITY_MATRIX = "density_matrix"


@dataclass(frozen=True)
class ConditionalQuery:
    """What to condition, how sharply, and through which formalism."""

    state_kind: StateKind
    measurement_kind: MeasurementKind
    sharpness: SharpnessPair = SHARP
    formalism: Formalism = Formalism.DENSITY_MATRIX

    @property
    def effective_sharpness(self) -> SharpnessPair:
        # sharp readout ignores the carried pair and uses lambda = 1 on both sides
        return SHARP if self.measurement_kind is MeasurementKind.SHARP else self.sharpness


def _evolving_members() -> np.ndarray:
    """The product pair at the phase nodes 2*pi*k/PANELS, k = 0 .. PANELS-1 (k = PANELS
    would repeat k = 0): the equal-weight members of the evolving preparation."""
    return product_state_phase(2.0 * math.pi * np.arange(PANELS) / PANELS)


@functools.cache
def _stationary_cached() -> np.ndarray:
    averaged = _evolving_members().mean(axis=0)
    norm = float(np.linalg.norm(averaged))
    if norm < DEGENERATE_DENOMINATOR:
        raise NumericalIntegrityError("one-period amplitude average vanished")
    state = averaged / norm
    hv = state[1]
    if abs(hv) > DEGENERATE_DENOMINATOR:
        state = state * (hv.conjugate() / abs(hv))
    state.setflags(write=False)
    return state


def stationary_state(spec: ClockSpec) -> np.ndarray:
    """One-period componentwise amplitude average of the product pair, normalized.

    The global phase is fixed by making the HV amplitude real and positive.
    The result is the polarization singlet up to roundoff. It is computed
    once, and each call returns a fresh copy; the conditionals read its
    moments, cached per preparation and formalism. `spec` is accepted but
    not read: the average is taken in the phase variable, so it does not
    depend on omega. Domain: any ClockSpec, whose omega is finite and positive.
    """
    return _stationary_cached().copy()


@functools.cache
def _moments(kind: StateKind, formalism: Formalism) -> tuple[float, float, float, float]:
    """<I>, <Q_c>, <Q_r>, <Q_c Q_r> of a preparation, each taken in the given formalism.

    Both formalisms read the preparation's members: the amplitude route takes
    the mean of <psi|op|psi>, the density-matrix route Tr[op rho] with rho
    their mean projector. Cached per preparation and formalism, so the two
    routes' moments are kept apart and still check each other.
    """
    if kind is StateKind.STATIONARY:
        states = _stationary_cached()[np.newaxis, :]
    else:
        states = _evolving_members()
    if formalism is Formalism.AMPLITUDE:
        return tuple(
            float(np.mean(np.einsum("ni,ij,nj->n", states.conj(), op, states).real)) for op in _MOMENTS
        )
    rho = np.einsum("ni,nj->ij", states, states.conj()) / len(states)
    return tuple(trace_of_product(op, rho).real for op in _MOMENTS)


def conditional_probability(query: ConditionalQuery, spec: ClockSpec) -> float | np.ndarray:
    """P(V on system | H on clock) for the queried preparation and readout.

    A float for a scalar sharpness pair, an array for an array pair. All four
    moments go through the same formalism; for the evolving preparation they
    are one-period averages taken before the ratio. The moments are cached
    per preparation and formalism, so a call is arithmetic on four numbers.
    `spec` is accepted but not read: every result is taken in the phase
    variable, so none depends on omega. Domain: any query, whose SharpnessPair
    holds its sharpnesses in [0, 1], and any ClockSpec; <Q_c> = 0 for both
    preparations, so the denominator is 1/2 and never degenerate.
    """
    lam = query.effective_sharpness
    lam_c, lam_r = np.asarray(lam.lambda_c, dtype=float), np.asarray(lam.lambda_r, dtype=float)
    m0, m_c, m_r, m_cr = _moments(query.state_kind, query.formalism)
    numerator = (m0 + lam_c * m_c - lam_r * m_r - lam_c * lam_r * m_cr) / 4.0
    denominator = (m0 + lam_c * m_c) / 2.0
    if (denominator < DEGENERATE_DENOMINATOR).any():
        raise DegenerateConditioningError(
            f"conditioning probability {float(denominator.min()):.3e} is numerically zero"
        )
    value = numerator / denominator
    return float(value) if value.ndim == 0 else value


def entanglement_advantage(pair: SharpnessPair, spec: ClockSpec) -> float | np.ndarray:
    """Stationary minus time-dependent unsharp conditional, lambda_c*lambda_r/4; shaped like the pair.

    Both terms come from the cached moments of their preparation, taken in
    the density-matrix formalism. `spec` is accepted but not read: the
    result is taken in the phase variable, so it does not depend on omega.
    Domain: any SharpnessPair, which holds its values in [0, 1], and any ClockSpec.
    """
    stationary = conditional_probability(
        ConditionalQuery(StateKind.STATIONARY, MeasurementKind.UNSHARP, pair), spec
    )
    evolving = conditional_probability(
        ConditionalQuery(StateKind.TIME_DEPENDENT, MeasurementKind.UNSHARP, pair), spec
    )
    return stationary - evolving
