"""Two-level rotor Hamiltonians, the series propagator, and the static-state residual.

Units: hbar is fixed to 1, so omega is the only scale and energies are in
units of hbar*omega. Every physical result downstream depends on the phase
omega*t only, never on omega and t separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qstate import ATOL, ket, tensor_product

HBAR = 1.0

# truncation threshold for the series propagator and its safety cap
_SERIES_EPS = 1e-16
_SERIES_MAX_TERMS = 128
# the norm the series is scaled down to before it is squared back up: each
# squaring doubles the unitarity error, and a larger norm needs fewer of them
_SERIES_SCALED_NORM = 2.0

# the propagator's domain: a finite t with ||h||_inf * |t| at most this, where
# the series stays unitary to 1e-12
MAX_NORM_TIME = 1e3


@dataclass(frozen=True)
class ClockSpec:
    """Angular frequency of the polarization rotor driving both photons."""

    omega: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.omega) and self.omega > 0.0):
            raise ValueError("omega must be finite and positive")


def single_photon_hamiltonian(spec: ClockSpec) -> np.ndarray:
    """i*hbar*omega*(|H><V| - |V><H|), the generator rotating H into -V."""
    h, v = ket("H"), ket("V")
    return 1j * HBAR * spec.omega * (np.outer(h, v.conj()) - np.outer(v, h.conj()))


def global_hamiltonian(spec: ClockSpec) -> np.ndarray:
    """Sum of the one-photon generators on the pair space, clock factor first."""
    h1 = single_photon_hamiltonian(spec)
    eye = np.eye(2, dtype=complex)
    return tensor_product(h1, eye) + tensor_product(eye, h1)


def _expm_series(a: np.ndarray) -> np.ndarray:
    # scaling and squaring; the Taylor tail is truncated once the next term
    # falls below _SERIES_EPS in the infinity norm
    norm = float(np.linalg.norm(a, np.inf))
    squarings = 0
    if norm > _SERIES_SCALED_NORM:
        squarings = int(math.ceil(math.log2(norm / _SERIES_SCALED_NORM)))
    scaled = a / (2.0 ** squarings)
    dim = a.shape[0]
    term = np.eye(dim, dtype=complex)
    total = np.eye(dim, dtype=complex)
    for k in range(1, _SERIES_MAX_TERMS):
        term = term @ scaled / k
        total = total + term
        if float(np.linalg.norm(term, np.inf)) < _SERIES_EPS:
            break
    for _ in range(squarings):
        total = total @ total
    return total


def propagator(h, t: float) -> np.ndarray:
    """Unitary exp(-i h t / hbar) for a Hermitian generator h.

    Generic scaling and squaring of the Taylor series, with no structural
    assumption about h. It is the test oracle for the one closed form in the
    package, the plane rotation whose entries ``lgi._joint_table`` squares.

    Domain: a finite t with ||h||_inf * |t| <= MAX_NORM_TIME = 1e3, where the
    result is unitary to 1e-12. Past it the squarings' rounding grows with
    ||h|| |t| until the result is no rotation at all, so any other t raises
    ValueError.
    """
    hm = np.asarray(h, dtype=complex)
    if hm.ndim != 2 or hm.shape[0] != hm.shape[1]:
        raise ValueError("generator must be a square matrix")
    t, norm = float(t), float(np.linalg.norm(hm, np.inf))
    if not (math.isfinite(t) and norm * abs(t) <= MAX_NORM_TIME):  # a NaN norm fails too
        raise ValueError(
            f"propagator needs a finite t with ||h||_inf * |t| <= {MAX_NORM_TIME:g}; "
            f"got t={t!r} and ||h||_inf={norm!r}"
        )
    scale = max(1.0, float(np.max(np.abs(hm))) if hm.size else 0.0)
    if float(np.max(np.abs(hm - hm.conj().T))) > ATOL * scale:
        raise ValueError("generator must be Hermitian")
    return _expm_series((-1j * t / HBAR) * hm)


def wd_residual(h, psi) -> float:
    """Euclidean norm of h @ psi; zero iff psi is a static (zero-energy) state. Domain: finite
    entries and a residual <= sys.float_info.max; anything else raises ValueError. h and psi
    are scaled by exact powers of two before the product, so that no step overflows."""
    hm = np.asarray(h, dtype=complex)
    vec = np.asarray(psi, dtype=complex)
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
    ph = np.asarray(phase, dtype=float)
    c, s = np.cos(ph), np.sin(ph)
    return np.stack([s * c, c * c, -s * s, -s * c], axis=-1).astype(complex)
