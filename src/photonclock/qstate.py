"""States and operators on labeled polarization bases.

Conventions used everywhere in this package:

* single photon basis order: ``[H, V]``
* photon pair basis order:   ``[HH, HV, VH, VV]``, clock factor first
  (the clock letter is the slow index)
* ``H`` has ordinal 0 and dichotomic value +1, ``V`` has ordinal 1 and -1

States are plain complex numpy vectors, operators are plain complex square
matrices. Functions never mutate their arguments; everything here is pure.
An array argument that holds text raises TypeError (:func:`refuse_text`).
Validation is split off into :func:`validate`, which diagnoses rather than
raises: the oracle chain checks its states and effects with it, and tests
inspect deliberately broken inputs with it.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

# Tolerances used across the package: plain algebraic identities are held to
# ATOL, eigenvalue positivity only to EIGEN_ATOL (squaring loses digits).
ATOL = 1e-12
EIGEN_ATOL = 1e-10

SINGLE_BASIS = ("H", "V")
PAIR_BASIS = ("HH", "HV", "VH", "VV")


class Subsystem(enum.Enum):
    """Which photon of the pair an operator acts on."""

    CLOCK = "clock"
    SYSTEM = "system"


def ket(label: str) -> np.ndarray:
    """Basis vector for a label such as ``"V"`` or ``"HV"`` (clock letter first)."""
    if label in SINGLE_BASIS:
        basis = SINGLE_BASIS
    elif label in PAIR_BASIS:
        basis = PAIR_BASIS
    else:
        raise ValueError(f"unknown basis label {label!r}")
    vec = np.zeros(len(basis), dtype=complex)
    vec[basis.index(label)] = 1.0
    return vec


def refuse_text(value):
    """value unchanged; TypeError if it is text (a str, bytes or an array of them), which float()
    and numpy would parse as a number."""
    if np.asarray(value).dtype.kind in "SU":
        raise TypeError(f"expected numbers, not text: {value!r}")
    return value


def projector(state) -> np.ndarray:
    """Rank-one projector |s><s| (equivalently, the density matrix of a pure state)."""
    vec = np.asarray(refuse_text(state), dtype=complex)
    if vec.ndim != 1:
        raise ValueError("projector expects a state vector")
    return np.outer(vec, vec.conj())


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product of two vectors or two square matrices, first factor slow."""
    am = np.asarray(refuse_text(a), dtype=complex)
    bm = np.asarray(refuse_text(b), dtype=complex)
    if am.ndim != bm.ndim or am.ndim not in (1, 2):
        raise ValueError("tensor_product needs two vectors or two square matrices")
    if am.ndim == 2 and (am.shape[0] != am.shape[1] or bm.shape[0] != bm.shape[1]):
        raise ValueError("matrix operands must be square")
    return np.kron(am, bm)


def trace_of_product(a, rho) -> complex:
    """Tr[a rho] for square matrices of matching dimension."""
    am = np.asarray(refuse_text(a), dtype=complex)
    rm = np.asarray(refuse_text(rho), dtype=complex)
    if am.ndim != 2 or am.shape != rm.shape or am.shape[0] != am.shape[1]:
        raise ValueError("trace_of_product needs two square matrices of equal dimension")
    return complex(np.trace(am @ rm))


class ValidationResult(NamedTuple):
    ok: bool
    violation: float


def _hermiticity_violation(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def _eigenvalues_hermitian(m: np.ndarray) -> np.ndarray:
    # inputs are at most 4x4 here; eigvalsh is exact far beyond what we need
    return np.linalg.eigvalsh((m + m.conj().T) / 2.0)


def validate(x, predicate: str) -> ValidationResult:
    """Diagnose ``x`` against a named predicate; never raises on bad numbers.

    Predicates: ``unit-norm`` (vectors), and for square matrices
    ``hermitian``, ``trace-one``, ``psd``, ``effect``.
    Returns whether the predicate holds and the worst violation magnitude.
    """
    arr = np.asarray(refuse_text(x), dtype=complex)
    if predicate == "unit-norm":
        if arr.ndim != 1:
            raise ValueError("unit-norm applies to vectors")
        violation = abs(float(np.sum(np.abs(arr) ** 2)) - 1.0)
        return ValidationResult(violation <= ATOL, violation)

    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{predicate} applies to square matrices")
    if predicate == "hermitian":
        violation = _hermiticity_violation(arr)
        return ValidationResult(violation <= ATOL, violation)
    if predicate == "trace-one":
        violation = abs(complex(np.trace(arr)) - 1.0)
        return ValidationResult(violation <= ATOL, violation)
    if predicate == "psd":
        violation = max(_hermiticity_violation(arr), max(0.0, -float(_eigenvalues_hermitian(arr)[0])))
        return ValidationResult(violation <= EIGEN_ATOL, violation)
    if predicate == "effect":
        eig = _eigenvalues_hermitian(arr)
        violation = max(
            _hermiticity_violation(arr),
            max(0.0, -float(eig[0])),
            max(0.0, float(eig[-1]) - 1.0),
        )
        return ValidationResult(violation <= ATOL, violation)
    raise ValueError(f"unknown predicate {predicate!r}")
