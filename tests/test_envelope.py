"""The whole input envelope of each public name, and of the oracle chain reached at its module
path, that the module tests do not sweep.

Every draw covers the documented domain and a margin outside it: signed zeros,
subnormals, the largest double, infinities and NaN, and ints up to 2**64 for
the integer arguments. Inside the domain the result is finite, or an exact int;
outside it, the call that takes the value raises a ValueError that names the
bound. A value that a frozen argument type (ClockSpec, SharpnessPair, Spin)
refuses never reaches the function, so that constructor is the call. Every
check runs under warnings.simplefilter("error"), so no warning escapes.
"""

import contextlib
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    joint_two_time_probability,
    lgi_functional,
    massive_graviton_dof,
    massless_graviton_dof,
    single_photon_hamiltonian,
    spin_multiplicity,
    stationary_state,
    two_time_correlator,
    violates_classical_bound,
    wd_residual,
)
from photonclock.dynamics import MAX_NORM_TIME, UNITARITY_TOL, product_state_phase, propagator
from photonclock.measurement import born_probability, luders_collapse
from photonclock.qstate import projector, tensor_product, trace_of_product, validate

import oracles

MAX = sys.float_info.max
EDGES = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, MAX, -MAX, math.inf, -math.inf, math.nan]
# every double, with its edges drawn often
any_double = st.one_of(st.sampled_from(EDGES), st.floats())
# a clock frequency: every double, and positive ones log-uniform across the whole range
any_omega = st.one_of(
    any_double, st.floats(math.log(5e-324), math.log(MAX)).map(lambda log: min(math.exp(log), MAX))
)
# a sharpness: every double, and [0, 1] with its ends
any_sharpness = st.one_of(any_double, st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 5e-324]))
# an integer argument: every int within 2**64 of 0, small ones around the bounds 0 and 3, and values of other types
any_int = st.one_of(st.integers(-(2**64), 2**64), st.integers(-4, 8), any_double, st.integers(3, 2**62).map(np.int64))

SINGLET = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
OMEGA_BOUND = r"^omega must be finite and positive$"
SHARPNESS_BOUND = r"^sharpness values must lie in \[0, 1\]$"
# each conditional is a ratio of sums of four cached moments; on 200,000 uniform sharpness pairs
# it was at most 1 u = 2**-53 off its closed form, and the advantage, their difference, 1.5 u
CONDITIONAL_TOL = 4 * 2.0**-53


@contextlib.contextmanager
def strict():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def clock_or_refusal(omega):
    """ClockSpec(omega) inside its domain, finite and positive; None after checking its ValueError outside."""
    if math.isfinite(omega) and omega > 0.0:
        return ClockSpec(omega)
    with pytest.raises(ValueError, match=OMEGA_BOUND):
        ClockSpec(omega)
    return None


def pair_or_refusal(lam_c, lam_r):
    """SharpnessPair(lam_c, lam_r) inside [0, 1]^2; None after checking its ValueError outside."""
    if 0.0 <= lam_c <= 1.0 and 0.0 <= lam_r <= 1.0:
        return SharpnessPair(lam_c, lam_r)
    with pytest.raises(ValueError, match=SHARPNESS_BOUND):
        SharpnessPair(lam_c, lam_r)
    return None


class TestClockTypes:
    @given(any_omega, st.sampled_from([single_photon_hamiltonian, global_hamiltonian]))
    @example(MAX, global_hamiltonian)
    @example(5e-324, single_photon_hamiltonian)
    def test_hamiltonians(self, omega, hamiltonian):
        with strict():
            spec = clock_or_refusal(omega)
            if spec is None:
                return
            h = hamiltonian(spec)
        # every entry is 0 or +-i omega, and h is Hermitian, bit for bit
        assert np.isfinite(h).all()
        assert set(np.abs(h).ravel().tolist()) == {0.0, omega}
        assert np.array_equal(h, h.conj().T)

    @given(any_omega)
    def test_stationary_state(self, omega):
        with strict():
            spec = clock_or_refusal(omega)
            if spec is None:
                return
            psi = stationary_state(spec)
        assert np.isfinite(psi).all()
        np.testing.assert_allclose(psi, SINGLET, rtol=0.0, atol=1e-15)

    @given(any_omega, st.one_of(any_double, st.floats(-2e3, 2e3)), st.sampled_from([1.0, 2.0]))
    @example(MAX, 0.0, 2.0)  # ||h||_inf = 2 omega overflows: refused at every t
    @example(MAX, 0.0, 1.0)
    @example(1.0, MAX_NORM_TIME, 1.0)
    @example(1.0, -MAX_NORM_TIME / 2.0, 2.0)
    @example(1.0, float(np.nextafter(MAX_NORM_TIME, math.inf)), 1.0)
    @example(5e-324, MAX, 2.0)
    def test_propagator(self, omega, t, photons):
        # the one-photon generator has ||h||_inf = omega, the pair generator 2 omega
        with strict():
            spec = clock_or_refusal(omega)
            if spec is None:
                return
            h = single_photon_hamiltonian(spec) if photons == 1.0 else global_hamiltonian(spec)
            inside = math.isfinite(t) and photons * omega * abs(t) <= MAX_NORM_TIME  # inf past MAX: refused
            if not inside:
                with pytest.raises(ValueError, match=r"\|\|h\|\|_inf \* \|t\| <= 1000;"):
                    propagator(h, t)
                return
            u = propagator(h, t)
        assert np.isfinite(u).all()
        assert np.abs(u.conj().T @ u - np.eye(len(u))).max() <= UNITARITY_TOL

    def test_propagator_refuses_an_overflowing_skew(self):
        with strict(), pytest.raises(ValueError, match="Hermitian"):
            propagator(np.array([[0.0, MAX], [-MAX, 0.0]]), 0.0)


class TestConditionals:
    @given(any_sharpness, any_sharpness, any_omega, st.sampled_from(StateKind), st.sampled_from(MeasurementKind),
           st.sampled_from(Formalism))
    @example(5e-324, 5e-324, MAX, StateKind.STATIONARY, MeasurementKind.UNSHARP, Formalism.AMPLITUDE)
    @example(1.0, -0.0, 5e-324, StateKind.TIME_DEPENDENT, MeasurementKind.UNSHARP, Formalism.DENSITY_MATRIX)
    @example(math.nan, 0.5, 1.0, StateKind.STATIONARY, MeasurementKind.SHARP, Formalism.DENSITY_MATRIX)
    def test_conditional_probability(self, lam_c, lam_r, omega, kind, measurement, formalism):
        with strict():
            pair, spec = pair_or_refusal(lam_c, lam_r), clock_or_refusal(omega)
            if pair is None or spec is None:
                return
            value = conditional_probability(ConditionalQuery(kind, measurement, pair, formalism), spec)
        product = 1.0 if measurement is MeasurementKind.SHARP else lam_c * lam_r
        assert type(value) is float and abs(value - oracles.conditional(kind.value, product)) <= CONDITIONAL_TOL

    @given(any_sharpness, any_sharpness, any_omega)
    @example(1.0, 1.0, MAX)
    @example(5e-324, 1.0, 5e-324)
    @example(1.0, 1.0 + 2**-52, 1.0)
    def test_entanglement_advantage(self, lam_c, lam_r, omega):
        with strict():
            pair, spec = pair_or_refusal(lam_c, lam_r), clock_or_refusal(omega)
            if pair is None or spec is None:
                return
            value = entanglement_advantage(pair, spec)
        assert type(value) is float and abs(value - oracles.advantage(lam_c * lam_r)) <= 2 * CONDITIONAL_TOL


class TestCounts:
    @given(any_int)
    @example(2**64)
    @example(2)
    @example(3)
    @example(4.0)
    @example(np.int64(4))
    @example(True)
    def test_graviton_counts(self, dim):
        with strict():
            if not (type(dim) is int and dim >= 3):  # a bool, a float and a numpy int are refused
                for count in (massless_graviton_dof, massive_graviton_dof):
                    with pytest.raises(ValueError, match=r"^spacetime dimension must be an integer >= 3$"):
                        count(dim)
                return
            massless, massive = massless_graviton_dof(dim), massive_graviton_dof(dim)
        assert type(massless) is int and type(massive) is int
        assert 2 * massless == dim * (dim - 3) and massive - massless == dim - 1

    @given(any_int)
    @example(2**64)
    @example(-1)
    @example(True)
    @example(False)
    def test_spin_multiplicity(self, twice_j):
        with strict():
            if not (type(twice_j) is int and twice_j >= 0):
                with pytest.raises(ValueError, match=r"^twice_j must be a nonnegative integer$"):
                    Spin(twice_j)
                return
            value = spin_multiplicity(Spin(twice_j))
        assert type(value) is int and value == twice_j + 1

    @given(st.one_of(any_double, st.integers(-4, 2**64).map(lambda n: n / 2.0),
                     st.tuples(st.integers(0, 40), st.floats(-2e-12, 2e-12)).map(lambda p: p[0] / 2.0 + p[1])))
    @example(MAX / 2.0)
    @example(MAX)
    @example(-1e-13)
    @example(0.5 + 1e-12)
    @example(-0.0)
    @example(True)
    @example(False)
    @example(np.True_)
    @example(np.False_)
    def test_spin_from_j(self, j):
        # inside: a finite 2j within 1e-12 of an integer n >= 0, measured exactly
        twice = Fraction(float(j)) * 2 if math.isfinite(2.0 * j) else None  # float: a numpy bool is no Rational
        nearest = None if twice is None else round(twice)
        inside = twice is not None and abs(twice - nearest) <= Fraction(1e-12) and nearest >= 0
        inside = inside and not isinstance(j, (bool, np.bool_))  # refused, as Spin refuses it
        with strict():
            if not inside:
                with pytest.raises(ValueError, match=r"^j must be a finite nonnegative integer or half-integer, not "):
                    Spin.from_j(j)
                return
            spin = Spin.from_j(j)
        assert type(spin.twice_j) is int and spin.twice_j == nearest


class TestViolationPredicate:
    @given(st.one_of(any_double, hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=4), elements=any_double)))
    @example(2.0 + 1e-12)
    @example(np.array([2.0, math.nan, math.inf]))
    def test_whole_range(self, value):
        finite = np.isfinite(value)
        with strict():
            if not finite.all():
                first = float(np.ravel(value)[np.argmin(finite)])
                with pytest.raises(ValueError, match=rf"^value must be finite .*, got {first!r}$"):
                    violates_classical_bound(value)
                return
            flags = violates_classical_bound(value)
        assert np.array_equal(flags, np.asarray(value) > 2.0 + 1e-12)
        assert np.asarray(flags).dtype == np.bool_ and np.shape(flags) == np.shape(value)


@pytest.mark.parametrize("function", [spin_multiplicity, single_photon_hamiltonian, global_hamiltonian])
@pytest.mark.parametrize("argument", [2, 1.0, None])
def test_a_wrong_type_is_the_callers_error(function, argument):
    # the annotated type is the contract, with no isinstance check: any other type raises, never returns
    with pytest.raises((TypeError, AttributeError)):
        function(argument)


UNIT = ClockSpec(1.0)
TEXT_CALLS = {
    "propagator": lambda text: propagator(single_photon_hamiltonian(UNIT), text),
    "two_time_correlator": lambda text: two_time_correlator(0.0, text, UNIT),
    "joint_two_time_probability": lambda text: joint_two_time_probability(
        InitialCondition.START_H, Outcome.H, 0.0, Outcome.H, text, UNIT
    ),
    "lgi_functional": lgi_functional,
    "SharpnessPair": lambda text: SharpnessPair(text, 0.5),
    # text inside an array argument, which np.asarray(..., dtype=complex) would parse too
    "propagator_generator": lambda text: propagator([[0, text], [text, 0]], 1.0),
    "wd_residual": lambda text: wd_residual(global_hamiltonian(UNIT), [text, 0, 0, 0]),
    "product_state_phase": lambda text: product_state_phase([text]),
    "projector": lambda text: projector([text, 0]),
    "tensor_product": lambda text: tensor_product([text, 0], [1, 0]),
    "trace_of_product": lambda text: trace_of_product([[text, 0], [0, text]], np.eye(2)),
    "validate": lambda text: validate([text, 0], "unit-norm"),
    "born_probability": lambda text: born_probability([[text, 0], [0, 0]], np.eye(2) / 2),
    "luders_collapse": lambda text: luders_collapse([text, 0], np.diag([1.0, 0.0])),
}


@pytest.mark.parametrize("text", ["1.0", b"1"], ids=["str", "bytes"])
@pytest.mark.parametrize("call", TEXT_CALLS.values(), ids=TEXT_CALLS.keys())
def test_a_number_as_text_raises(call, text):
    # float() and numpy would parse the text as a number
    with strict(), pytest.raises(TypeError, match="not text"):
        call(text)
