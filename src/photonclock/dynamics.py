"""Two-level rotor Hamiltonians, the spectral propagator, and the static-state residual.

Units: hbar is fixed to 1, so omega is the only scale and energies are in
units of hbar*omega. Every physical result downstream depends on the phase
omega*t only, never on omega and t separately.

The propagator is spectral, V diag(exp(-i lambda t / hbar)) V^dagger from numpy's eigh: the
well-conditioned route for a Hermitian generator (Moler and Van Loan, SIAM Review 45 (2003) 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qstate import ATOL, ket, refuse_text, tensor_product

HBAR = 1.0

# the propagator's domain: a finite t with ||h||_inf * |t| at most this. Each phase lambda * t is
# off by eigh's eigenvalue error, 2 n u ||h||, and its own rounding, in all (2n + 1) u ||h||_inf |t|,
# so at the edge the result is within about 1e-12 of exp(-i h t); past it the error keeps growing.
MAX_NORM_TIME = 1e3

# max |U^dagger U - I| for an n x n h, n <= 4, u = 2**-53, at every t: |exp(-i lambda t)| is 1 to an ulp
# however lambda * t rounds. eigh's V is orthonormal to 2 n u (backward stable), entering twice; scaling
# V's columns by the phases is within 3 u, twice; each n-term complex inner product is within 2 n u,
# V D V^dagger twice and the check U^dagger U once: 4nu + 6u + 4nu + 2nu <= 13 n u, rounded up to 16 n u.
UNITARITY_TOL = 16 * 4 * 2.0**-53


@dataclass(frozen=True)
class ClockSpec:
    """Angular frequency of the polarization rotor driving both photons."""

    omega: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.omega) and self.omega > 0.0):
            raise ValueError("omega must be finite and positive")


# the clock every dimensionless quantity is evaluated on
UNIT_CLOCK = ClockSpec(1.0)


def single_photon_hamiltonian(spec: ClockSpec) -> np.ndarray:
    """i*hbar*omega*(|H><V| - |V><H|), the generator rotating H into -V.
    Domain: any ClockSpec, whose omega is finite and positive, so every entry is finite;
    any other type is the caller's error and raises TypeError or AttributeError."""
    h, v = ket("H"), ket("V")
    return 1j * HBAR * spec.omega * (np.outer(h, v.conj()) - np.outer(v, h.conj()))


def global_hamiltonian(spec: ClockSpec) -> np.ndarray:
    """Sum of the one-photon generators on the pair space, clock factor first.
    Domain: any ClockSpec; every entry is 0 or +-i*omega, so none overflows. Any other
    type is the caller's error and raises TypeError or AttributeError."""
    h1 = single_photon_hamiltonian(spec)
    eye = np.eye(2, dtype=complex)
    return tensor_product(h1, eye) + tensor_product(eye, h1)


def propagator(h, t: float) -> np.ndarray:
    """Unitary exp(-i h t / hbar) for a Hermitian generator h, as V diag(exp(-i lambda t / hbar)) V^dagger
    from h's eigendecomposition. It is the test oracle for the one closed form in the package, the plane
    rotation whose entries ``lgi._joint_table`` squares.

    Domain: a finite t with ||h||_inf * |t| <= MAX_NORM_TIME = 1e3, where the result is unitary to
    UNITARITY_TOL, about 7.1e-15, and within about 1e-12 of exp(-i h t). Any other t raises ValueError,
    as does every t when ||h||_inf overflows or h is not Hermitian to ATOL; text raises TypeError.
    """
    hm = np.asarray(refuse_text(h), dtype=complex)
    if hm.ndim != 2 or hm.shape[0] != hm.shape[1]:
        raise ValueError("generator must be a square matrix")
    t = float(refuse_text(t))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing norm or skew raises its ValueError alone
        norm, skew = float(np.linalg.norm(hm, np.inf)), float(np.max(np.abs(hm - hm.conj().T)))
        scale = max(1.0, float(np.max(np.abs(hm))))
    if not (math.isfinite(t) and norm * abs(t) <= MAX_NORM_TIME):  # a NaN norm fails too
        raise ValueError(
            f"propagator needs a finite t with ||h||_inf * |t| <= {MAX_NORM_TIME:g}; "
            f"got t={t!r} and ||h||_inf={norm!r}"
        )
    if skew > ATOL * scale:
        raise ValueError("generator must be Hermitian")
    evals, evecs = np.linalg.eigh(hm)
    return (evecs * np.exp((-1j / HBAR) * (evals * t))) @ evecs.conj().T


def wd_residual(h, psi) -> float:
    """Euclidean norm of h @ psi; zero iff psi is a static (zero-energy) state. Domain: finite
    entries and a residual <= sys.float_info.max; anything else raises ValueError. h and psi
    are scaled by exact powers of two before the product, so that no step overflows."""
    hm = np.asarray(refuse_text(h), dtype=complex)
    vec = np.asarray(refuse_text(psi), dtype=complex)
    if hm.ndim != 2 or vec.ndim != 1 or hm.shape[1] != vec.shape[0]:
        raise ValueError("dimension mismatch between operator and state")
    if not (np.isfinite(hm).all() and np.isfinite(vec).all()):
        raise ValueError("operator and state must have finite entries")
    # 2**e <= the largest real or imaginary part < 2**(e + 1); e >= -1022 keeps 2**-e finite
    exps = [max(math.frexp(np.max(np.abs([m.real, m.imag]), initial=0.0))[1] - 1, -1022) for m in (hm, vec)]
    scaled = np.linalg.norm((hm * math.ldexp(1.0, -exps[0])) @ (vec * math.ldexp(1.0, -exps[1])))
    try:
        return math.ldexp(float(scaled), sum(exps))
    except OverflowError:
        raise ValueError("the residual passed the largest double, sys.float_info.max") from None


def product_state_phase(phase) -> np.ndarray:
    """Amplitudes over [HH, HV, VH, VV] of the evolving product pair at clock phase omega*t.

    Clock factor cos|H> - sin|V>, system factor cos|V> + sin|H>. Accepts a
    scalar phase or an array of phases (amplitudes land on the last axis).
    """
    ph = np.asarray(refuse_text(phase), dtype=float)
    c, s = np.cos(ph), np.sin(ph)
    return np.stack([s * c, c * c, -s * s, -s * c], axis=-1).astype(complex)
