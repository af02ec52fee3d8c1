"""Dichotomic polarization measurements, sharp and unsharp.

The observable is Q = |H><H| - |V><V|. Unsharp readout with sharpness
lambda in [0, 1] uses the effect pair F(+/-) = (I +/- lambda*Q)/2; lambda = 1
recovers the projectors, lambda = 0 carries no information. Joint effects on
the photon pair are tensor products of one-photon effects, clock factor first.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NullCollapseError, NumericalIntegrityError
from .qstate import ATOL, Subsystem, refuse_text, tensor_product, trace_of_product, validate

# outcome probabilities below this are treated as null for collapse purposes
NULL_PROBABILITY = 1e-14


class Outcome(enum.IntEnum):
    """Measurement outcome, valued by its Q eigenvalue."""

    H = 1
    V = -1

    @property
    def index(self) -> int:
        return 0 if self is Outcome.H else 1


@dataclass(frozen=True)
class SharpnessPair:
    """Sharpness of the clock-side and system-side readouts, scalars or arrays in [0, 1]
    whose shapes broadcast against each other."""

    lambda_c: float | np.ndarray
    lambda_r: float | np.ndarray

    def __post_init__(self):
        try:
            np.broadcast(self.lambda_c, self.lambda_r)
        except ValueError:
            shapes = np.shape(self.lambda_c), np.shape(self.lambda_r)
            raise ValueError(
                f"lambda_c shape {shapes[0]} and lambda_r shape {shapes[1]} do not broadcast"
            ) from None
        for value in (self.lambda_c, self.lambda_r):
            lam = np.asarray(refuse_text(value), dtype=float)
            if not ((lam >= 0.0) & (lam <= 1.0)).all():  # NaN fails both comparisons
                raise ValueError("sharpness values must lie in [0, 1]")


SHARP = SharpnessPair(1.0, 1.0)


def dichotomic_observable(subsystem: Subsystem | None = None) -> np.ndarray:
    """Q on one photon, or Q acting on the named factor of the pair space."""
    q = np.diag([1.0 + 0j, -1.0 + 0j])
    if subsystem is None:
        return q
    eye = np.eye(2, dtype=complex)
    if subsystem is Subsystem.CLOCK:
        return tensor_product(q, eye)
    if subsystem is Subsystem.SYSTEM:
        return tensor_product(eye, q)
    raise ValueError(f"unknown subsystem {subsystem!r}")


def _effect_factor(lam: float, outcome: Outcome) -> np.ndarray:
    if np.ndim(lam) != 0:  # math.isfinite would raise a TypeError on an array
        raise ValueError(f"sharpness must be a scalar in [0, 1], not an array of shape {np.shape(lam)}")
    if not (math.isfinite(lam) and 0.0 <= lam <= 1.0):
        raise ValueError("sharpness must lie in [0, 1]")
    return (np.eye(2, dtype=complex) + outcome.value * lam * dichotomic_observable()) / 2.0


def unsharp_effects(lam: float) -> tuple[np.ndarray, np.ndarray]:
    """The one-photon effect pair (F_plus, F_minus) at sharpness lam. Domain: a scalar
    in [0, 1]; an array, even of one element, NaN and any other value raise ValueError."""
    return _effect_factor(lam, Outcome.H), _effect_factor(lam, Outcome.V)


def joint_effect(pair: SharpnessPair, outcome_c: Outcome, outcome_r: Outcome) -> np.ndarray:
    """Pair-space effect for reading outcome_c on the clock and outcome_r on the system.
    Domain: a pair of scalar sharpnesses; an array-valued SharpnessPair, which the
    conditionals take, raises ValueError, as unsharp_effects does."""
    return tensor_product(
        _effect_factor(pair.lambda_c, outcome_c),
        _effect_factor(pair.lambda_r, outcome_r),
    )


def born_probability(rho, effect) -> float:
    """Tr[effect rho], clamped into [0, 1] only against sub-roundoff overshoot.

    A state with a NaN or infinite entry raises ValueError.
    """
    effect_m = np.asarray(effect, dtype=complex)
    if not validate(effect_m, "effect").ok:
        raise ValueError("not a valid effect (Hermitian with spectrum in [0, 1])")
    rho_m = np.asarray(rho, dtype=complex)
    if not np.isfinite(rho_m).all():  # a NaN would pass every bound check below
        raise ValueError("state must have finite entries")
    raw = trace_of_product(effect_m, rho_m)
    if abs(raw.imag) > ATOL:
        raise NumericalIntegrityError(f"Born probability has imaginary part {raw.imag:.3e}")
    p = raw.real
    if p < -ATOL or p > 1.0 + ATOL:
        raise NumericalIntegrityError(f"Born probability {p!r} outside [0, 1] beyond tolerance")
    return min(max(p, 0.0), 1.0)


def luders_collapse(state, proj) -> tuple[np.ndarray, float]:
    """Project a pure state and renormalize; returns (post state, outcome probability).

    Only genuine projectors are accepted here. Unsharp effects do not get a
    collapse rule in this package; sequential statistics always use sharp
    readout.

    Domain: finite entries, a unit-norm state, | |state|^2 - 1 | <= ATOL as
    validate(state, "unit-norm") has it, and a projector Hermitian and
    idempotent to ATOL; anything else raises ValueError. So the outcome
    probability |proj @ state|^2 passes 1 by a few ATOL at most.
    """
    pm = np.asarray(proj, dtype=complex)
    vec = np.asarray(state, dtype=complex)
    if pm.ndim != 2 or pm.shape[0] != pm.shape[1] or pm.shape[1] != vec.shape[0]:
        raise ValueError("projector and state dimensions do not match")
    for name, m in (("state", vec), ("projector", pm)):
        if not np.isfinite(m).all():
            raise ValueError(f"{name} must have finite entries")
    with np.errstate(over="ignore", invalid="ignore"):  # a huge entry overflows to inf or NaN, which fails below
        norm = validate(vec, "unit-norm")
        if not norm.ok:
            raise ValueError(f"state must be unit-norm: | |state|^2 - 1 | = {norm.violation:.3e} is past ATOL = {ATOL:g}")
        if not (np.max(np.abs(pm - pm.conj().T)) <= ATOL and np.max(np.abs(pm @ pm - pm)) <= ATOL):
            raise ValueError("collapse requires an idempotent Hermitian projector")
    projected = pm @ vec
    p = float(np.real(np.vdot(projected, projected)))
    if p < NULL_PROBABILITY:
        raise NullCollapseError(f"outcome probability {p:.3e} is null; branch before collapsing")
    return projected / math.sqrt(p), p
