"""Sequential statistics and the four-time Leggett-Garg combination."""

import itertools
import math
import sys
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from photonclock import (
    ClockSpec,
    InitialCondition,
    LgiSchedule,
    NullCollapseError,
    Outcome,
    born_probability,
    joint_two_time_probability,
    lgi_functional,
    lgi_functional_engine,
    lgi_maximize,
    lgi_value,
    luders_collapse,
    propagator,
    single_photon_hamiltonian,
    two_time_correlator,
    unsharp_effects,
    violates_classical_bound,
)
from photonclock.lgi import X_MAX, _joint_table
from photonclock.qstate import ket, projector

import oracles
from oracles import CLOSED_FORM_SLACK, exact_combination

UNIT = ClockSpec(1.0)

# Where 3 cos(2x) - cos(6x) crosses 2 from above. With c = cos(2x) the
# combination minus 2 factors as -2 (c - 1)(2 c^2 + 2 c - 1), whose root
# inside (0, 1) is c = (sqrt(3) - 1)/2.
X_CROSSING = math.acos((math.sqrt(3.0) - 1.0) / 2.0) / 2.0

QUANTUM_BOUND = 2.0 * math.sqrt(2.0)
# the largest |x| whose 2x is finite, lgi_functional's and lgi_maximize's domain
X_TOP = sys.float_info.max / 2.0


def maximizer_shortfall_bound(x_lo: float, x_hi: float) -> float:
    """How far lgi_maximize may fall below the true maximum of the window, as derived here.

    The maximum sits at an endpoint, returned exactly, or at a critical point m pi + o, o in
    (-pi/8, pi/8, pi/2), which lgi_maximize computes as fl(fl(m fl(pi)) + fl(o)). With
    X = max(|x_lo|, |x_hi|) and U = ulp(X + 2), a candidate is off its critical point by
    delta <= 3 U: m |fl(pi) - pi| <= (X + pi/2) 3.9e-17 < 0.35 U; the offset's own rounding,
    <= 6.2e-17 < 0.3 U; the product's and the sum's roundings, U/2 each; and, once
    |m| > 2**53, the rounding of m to a double, one more U. A critical point that rounds out
    of the window leaves an endpoint nearer to it than that. Near a peak
    C = 2 sqrt(2) - 12 sqrt(2) delta^2 + O(delta^4), and near the C = -2 maxima it falls as
    12 delta^2, more slowly. Each closed-form value, the candidate's and every oracle point's,
    is within CLOSED_FORM_SLACK of the exact one, hence the two slacks.
    """
    delta = 3.0 * math.ulp(max(abs(x_lo), abs(x_hi)) + 2.0)
    return 12.0 * math.sqrt(2.0) * delta**2 + 2.0 * CLOSED_FORM_SLACK


def dense_maximum(x_lo: float, x_hi: float) -> float:
    """The oracle: the largest closed-form value on 200,001 evenly spaced points of the window."""
    return float(lgi_functional(np.linspace(x_lo, x_hi, 200_001)).max())

first_times = st.floats(min_value=0.0, max_value=8.0, allow_nan=False)
gaps = st.floats(min_value=1e-6, max_value=8.0, allow_nan=False)
phase_gaps = st.floats(min_value=1e-4, max_value=3.0, allow_nan=False)
engine_gaps = st.floats(min_value=0.0, max_value=10.0, exclude_min=True)
preparations = st.sampled_from(InitialCondition)
# every double, and denser draws around the time domain t <= 3 * (X_MAX / omega)
any_times = st.one_of(st.floats(), st.floats(min_value=0.0, max_value=4.0 * X_MAX), first_times)
# the last time at omega = 7, where omega times it rounds to 30000.000000000004, past 3 X_MAX
T_EDGE_7 = 3.0 * (X_MAX / 7.0)
any_frequencies = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), st.floats(min_value=1e-3, max_value=1e3)
)


def kernel_table(init, t1, t2, omega):
    """The kernel at the cosines and sines of the phases omega*t1 and omega*(t2 - t1)."""
    first, gap = omega * t1, omega * (t2 - t1)
    return _joint_table(init, np.cos(first), np.sin(first), np.cos(gap), np.sin(gap))


def scalar_chain(init, outcome1, t1, outcome2, t2, spec):
    """The validated single-state pipeline: spectral propagator, Lüders collapse, Born rule."""
    sharp = unsharp_effects(1.0)
    h = single_photon_hamiltonian(spec)
    psi = propagator(h, t1) @ ket("H" if init is InitialCondition.START_H else "V")
    try:
        post, p1 = luders_collapse(psi, sharp[outcome1.index])
    except NullCollapseError:
        return 0.0
    evolved = propagator(h, t2 - t1) @ post
    return p1 * born_probability(projector(evolved), sharp[outcome2.index])


class TestSchedule:
    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            LgiSchedule(0.0, 1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            LgiSchedule(0.0, 2.0, 1.0, 3.0)

    def test_times_must_be_finite(self):
        with pytest.raises(ValueError):
            LgiSchedule(0.0, 1.0, 2.0, np.inf)


class TestJointProbability:
    def test_frozen_example(self):
        # cos^2(pi/4) * cos^2(pi/4) = 1/4
        p = joint_two_time_probability(
            InitialCondition.START_H, Outcome.H, np.pi / 4, Outcome.H, np.pi / 2, UNIT
        )
        assert p == pytest.approx(0.25, abs=1e-12)

    def test_certain_chain(self):
        p = joint_two_time_probability(
            InitialCondition.START_H, Outcome.H, 0.0, Outcome.V, np.pi / 2, UNIT
        )
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_null_first_branch_gives_zero(self):
        p = joint_two_time_probability(
            InitialCondition.START_H, Outcome.V, 0.0, Outcome.H, 1.0, UNIT
        )
        assert p == 0.0

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            joint_two_time_probability(
                InitialCondition.START_H, Outcome.H, 1.0, Outcome.H, 1.0, UNIT
            )
        with pytest.raises(ValueError):
            joint_two_time_probability(
                InitialCondition.START_H, Outcome.H, 2.0, Outcome.H, 1.0, UNIT
            )
        with pytest.raises(ValueError):
            joint_two_time_probability(
                InitialCondition.START_H, Outcome.H, -0.1, Outcome.H, 1.0, UNIT
            )

    @given(first_times, gaps)
    def test_markov_factorization(self, t1, gap):
        for o1, o2 in itertools.product(Outcome, Outcome):
            p = joint_two_time_probability(InitialCondition.START_H, o1, t1, o2, t1 + gap, UNIT)
            assert p == pytest.approx(oracles.joint_probability(t1, gap, o1 is Outcome.H, o2 is o1), abs=1e-12)

    @given(first_times, gaps, st.floats(min_value=0.1, max_value=5.0), preparations)
    def test_outcomes_sum_to_one(self, t1, gap, omega, init):
        # summed over the second outcome, the table is the single-time readout:
        # cos^2(omega t1) for the prepared polarization, sin^2 for the other
        spec = ClockSpec(omega)
        marginal = {
            o1: sum(joint_two_time_probability(init, o1, t1, o2, t1 + gap, spec) for o2 in Outcome)
            for o1 in Outcome
        }
        prepared = Outcome.H if init is InitialCondition.START_H else Outcome.V
        other = Outcome.V if prepared is Outcome.H else Outcome.H
        assert marginal[prepared] == pytest.approx(np.cos(omega * t1) ** 2, abs=1e-12)
        assert marginal[other] == pytest.approx(np.sin(omega * t1) ** 2, abs=1e-12)
        assert marginal[prepared] + marginal[other] == pytest.approx(1.0, abs=1e-12)


class TestCorrelator:
    def test_short_gap_is_nearly_one(self):
        assert two_time_correlator(0.3, 0.3 + 1e-9, UNIT) == pytest.approx(1.0, abs=1e-8)

    def test_quarter_phase_gap_vanishes(self):
        assert two_time_correlator(1.0, 1.0 + np.pi / 4, UNIT) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_half_phase_gap_anticorrelates(self):
        assert two_time_correlator(0.0, np.pi / 2, UNIT) == pytest.approx(-1.0, abs=1e-12)

    @given(first_times, gaps)
    def test_depends_only_on_gap(self, t1, gap):
        a = two_time_correlator(t1, t1 + gap, UNIT)
        b = two_time_correlator(0.0, gap, UNIT)
        assert a == pytest.approx(b, abs=1e-12)
        assert a == pytest.approx(oracles.correlator(gap), abs=1e-12)

    @given(first_times, gaps)
    def test_independent_of_preparation(self, t1, gap):
        a = two_time_correlator(t1, t1 + gap, UNIT, InitialCondition.START_H)
        b = two_time_correlator(t1, t1 + gap, UNIT, InitialCondition.START_V)
        assert a == pytest.approx(b, abs=1e-12)

    @given(first_times, gaps)
    def test_bounded_by_one(self, t1, gap):
        assert abs(two_time_correlator(t1, t1 + gap, UNIT)) <= 1.0 + 1e-12


class TestClosedFormFunctional:
    def test_anchor_values(self):
        assert lgi_functional(0.0) == 2.0
        assert lgi_functional(np.pi / 8) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-14)
        assert lgi_functional(np.pi / 4) == pytest.approx(0.0, abs=1e-15)

    def test_vectorized(self):
        xs = np.array([0.0, np.pi / 8, np.pi / 4])
        out = lgi_functional(xs)
        assert isinstance(out, np.ndarray)
        np.testing.assert_allclose(out, [2.0, 2.0 * np.sqrt(2.0), 0.0], atol=1e-14)

    def test_scalar_in_scalar_out(self):
        assert isinstance(lgi_functional(0.5), float)

    @given(st.floats(0.0, np.pi))
    def test_mirror_symmetry_about_half_pi(self, x):
        assert lgi_functional(np.pi - x) == pytest.approx(lgi_functional(x), abs=1e-12)

    @given(st.floats(0.0, 2.0 * np.pi))
    def test_never_exceeds_quantum_bound(self, x):
        assert lgi_functional(x) <= QUANTUM_BOUND + CLOSED_FORM_SLACK


class TestDecimalOracle:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(
        st.floats(0.0, math.pi),
        st.floats(-X_TOP, X_TOP),
        st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
    ))
    @example(X_TOP)
    @example(1e15 + 0.125)
    @example(math.pi / 8)
    @example(5e-324)
    def test_closed_form_is_within_its_slack_of_the_exact_value(self, x):
        assume(math.isfinite(2.0 * x))
        value = lgi_functional(x)
        assert abs(Decimal(value) - exact_combination(x)) <= Decimal(CLOSED_FORM_SLACK), (x, value)


class TestEngineAgreement:
    def test_engine_matches_closed_form_on_dense_grid(self):
        xs = np.linspace(0.0, np.pi, 102)[1:]
        for x in xs:
            assert abs(lgi_functional_engine(float(x)) - lgi_functional(float(x))) <= 1e-12

    def test_engine_independent_of_frequency(self):
        # dimensionless input, dimensionless output: only the phase x enters, whatever the clock
        xs = np.linspace(0.0, np.pi, 4097)[1:]
        unit = lgi_functional_engine(xs)
        for omega in (1e-3, 5.21, 1e3):
            assert np.max(np.abs(lgi_functional_engine(xs, ClockSpec(omega)) - unit)) <= 1e-12

    @given(phase_gaps)
    def test_engine_independent_of_preparation(self, x):
        a = lgi_functional_engine(x, init=InitialCondition.START_H)
        b = lgi_functional_engine(x, init=InitialCondition.START_V)
        assert a == pytest.approx(b, abs=1e-12)

    def test_unequal_schedule_sums_pair_correlators(self):
        sched = LgiSchedule(0.1, 0.6, 0.9, 2.0)
        assert lgi_value(sched, ClockSpec(1.3)) == pytest.approx(oracles.schedule_sum(sched.times, 1.3), abs=1e-12)


class TestBatchedKernel:
    """The batched kernel against the scalar chain it replaced and the closed forms."""

    @given(st.lists(engine_gaps, min_size=1, max_size=16), preparations)
    def test_engine_on_an_array_matches_scalar_calls_and_closed_form(self, gaps, init):
        xs = np.array(gaps)
        batched = lgi_functional_engine(xs, init=init)
        assert isinstance(batched, np.ndarray) and batched.shape == xs.shape
        scalar = np.array([lgi_functional_engine(x, init=init) for x in gaps])
        assert np.max(np.abs(batched - scalar)) <= 1e-15
        assert np.max(np.abs(np.stack([batched, scalar]) - lgi_functional(xs))) <= 1e-12

    @pytest.mark.parametrize("init", list(InitialCondition))
    def test_joint_table_matches_scalar_chain(self, init):
        # a 1-D batch, the (4, N) batch of a stack of schedules, and a scalar t1 against an array t2
        rng = np.random.default_rng(7)
        spec = ClockSpec(1.3)
        t1 = np.concatenate([[0.0], rng.uniform(0.0, 8.0, 63)])
        t2 = t1 + rng.uniform(1e-6, 8.0, 64)
        rows = rng.uniform(0.0, 8.0, (4, 9))
        batches = ((t1, t2), (rows, rows + rng.uniform(1e-6, 8.0, (4, 9))), (0.4, np.linspace(0.5, 9.0, 17)))
        for first, second in batches:
            table = np.array(kernel_table(init, first, second, spec.omega))
            first, second = np.broadcast_arrays(first, second)
            assert table.shape == (2, 2, *first.shape)
            for o1 in Outcome:
                for o2 in Outcome:
                    chain = [scalar_chain(init, o1, a, o2, b, spec) for a, b in zip(first.flat, second.flat)]
                    assert np.max(np.abs(table[o1.index, o2.index].ravel() - chain)) <= 1e-14

    @pytest.mark.parametrize("init", list(InitialCondition))
    def test_scalar_calls_are_the_batched_kernel_bit_for_bit(self, init):
        # a numpy scalar squared by ** goes through pow, which rounds apart from x * x about once in 1200
        rng = np.random.default_rng(11)
        t1 = rng.uniform(0.0, 8.0, 4000)
        t2 = t1 + 10.0 ** rng.uniform(-8.0, 1.0, 4000)
        table = kernel_table(init, t1, t2, UNIT.omega)
        for o1 in Outcome:
            for o2 in Outcome:
                scalar = [joint_two_time_probability(init, o1, a, o2, b, UNIT) for a, b in zip(t1.tolist(), t2.tolist())]
                assert np.array_equal(scalar, table[o1.index][o2.index])

    def test_null_branch_below_threshold_contributes_zero(self):
        # cos^2(pi/2) is about 3.7e-33 in doubles: nonzero, but a null collapse
        for o2 in Outcome:
            args = (InitialCondition.START_H, Outcome.H, np.pi / 2, o2, np.pi / 2 + 1.0, UNIT)
            assert joint_two_time_probability(*args) == 0.0
            assert scalar_chain(*args) == 0.0

    @pytest.mark.parametrize("init", list(InitialCondition))
    def test_null_rows_in_a_batch_are_exactly_zero(self, init):
        # at phase pi/2 the prepared polarization has |cos|^2 about 3.7e-33: a null first outcome
        null = Outcome.H if init is InitialCondition.START_H else Outcome.V
        first = np.array([np.pi / 2, 0.3, np.pi / 2, 2.0, 0.0])
        second = first + np.array([1.0, 0.7, 2.5, 0.1, 1.2])
        table = np.array(kernel_table(init, first, second, UNIT.omega))
        is_null = first == np.pi / 2
        assert np.all(table[null.index][:, is_null] == 0.0)
        for o1 in Outcome:
            for o2 in Outcome:
                chain = [scalar_chain(init, o1, a, o2, b, UNIT) for a, b in zip(first, second)]
                assert np.max(np.abs(table[o1.index, o2.index] - chain)) <= 1e-14

    def test_rotation_is_the_spectral_propagator(self):
        # the kernel reads U(t) = [[c, s], [-s, c]] off the cosine and sine of omega t; from a
        # phase-0 start (cosine 1, sine 0) its table holds the squared entries |<o2|U(t)|o1>|^2
        spec = ClockSpec(2.1)
        times = np.linspace(0.0, 10.0, 41)
        spectral = np.array([propagator(single_photon_hamiltonian(spec), t) for t in times])
        c, s = np.cos(spec.omega * times), np.sin(spec.omega * times)
        rotation = np.moveaxis(np.array([[c, s], [-s, c]]), (0, 1), (-2, -1))
        assert np.max(np.abs(rotation - spectral)) <= 1e-14
        for init, o1 in zip(InitialCondition, Outcome):  # each preparation is its own first outcome
            table = _joint_table(init, 1.0, 0.0, c, s)
            for o2 in Outcome:
                squared = np.abs(spectral[:, o2.index, o1.index]) ** 2
                assert np.max(np.abs(table[o1.index][o2.index] - squared)) <= 1e-14

    @given(first_times, gaps, gaps, gaps, st.floats(min_value=0.1, max_value=10.0), preparations)
    def test_unequal_schedules_sum_pair_correlators(self, t1, g1, g2, g3, omega, init):
        t2, t3 = t1 + g1, t1 + g1 + g2
        times = (t1, t2, t3, t3 + g3)
        closed = oracles.schedule_sum(times, omega)
        assert lgi_value(LgiSchedule(*times), ClockSpec(omega), init) == pytest.approx(closed, abs=1e-12)

    @given(st.lists(st.floats(min_value=0.0, max_value=X_MAX, exclude_min=True), min_size=1, max_size=16),
           st.floats(min_value=1e-3, max_value=1e3), preparations)
    @example([5e-324, 1e-310, 2.2250738585072014e-308, X_MAX], 1e-3, InitialCondition.START_H)
    @example([5e-324, X_MAX], 1.0, InitialCondition.START_V)
    @example([X_MAX], 1e3, InitialCondition.START_V)
    @example([X_MAX], 7.0, InitialCondition.START_H)
    def test_engine_is_lgi_value_on_the_equal_schedule_bit_for_bit(self, gaps, omega, init):
        # the public schedule route: 2 dt - dt is dt exactly, and the pairs that start at
        # t = 0.0 take cos 0 = 1 and sin 0 = 0, the engine's constants
        assume(all(x / omega > 0.0 for x in gaps))
        spec = ClockSpec(omega)
        engine = lgi_functional_engine(np.array(gaps), spec, init)
        for x, value in zip(gaps, engine.tolist()):
            dt = x / omega
            assert lgi_value(LgiSchedule(0.0, dt, 2.0 * dt, 3.0 * dt), spec, init).hex() == value.hex(), x

    @pytest.mark.parametrize("init", list(InitialCondition))
    def test_lgi_value_takes_the_engines_widest_schedule_at_every_omega(self, init):
        # at x = X_MAX the engine's last time 3 (X_MAX / omega) is the time rule's bound itself,
        # while omega times it rounds past 3 X_MAX for about one omega in five (7.0 among them)
        for omega in np.logspace(-3.0, 3.0, 1001).tolist():
            spec, dt = ClockSpec(omega), X_MAX / omega
            value = lgi_value(LgiSchedule(0.0, dt, 2.0 * dt, 3.0 * dt), spec, init)
            assert value.hex() == lgi_functional_engine(X_MAX, spec, init).hex(), omega

    def test_schedule_before_preparation_rejected(self):
        with pytest.raises(ValueError):
            lgi_value(LgiSchedule(-0.5, 0.5, 1.0, 2.0), UNIT)

    @pytest.mark.parametrize("omega", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("init", list(InitialCondition))
    def test_engine_is_two_at_the_zero_gap(self, omega, init):
        # four readouts at one instant: every phase is 0, cos = 1 and sin = 0 exactly,
        # so C12 = C23 = C34 = C14 = 1
        spec = ClockSpec(omega)
        for x in (0.0, -0.0):
            value = lgi_functional_engine(x, spec, init)
            assert type(value) is float and value == 2.0
        for batch in ([0.0, 0.2], [-0.0, 0.2, 0.0], [0.2, 0.0, X_MAX]):
            engine = lgi_functional_engine(np.array(batch), spec, init)
            scalars = np.array([lgi_functional_engine(x, spec, init) for x in batch])
            assert engine.tobytes() == scalars.tobytes()

    def test_engine_rejects_any_negative_or_nonfinite_gap(self):
        # at omega = 1e3 the time step -5e-324 / omega rounds to -0.0, which must not pass for a zero gap
        for omega in (1e-3, 1.0, 1e3):
            for x in (-5e-324, -0.3, np.nan, np.inf, -np.inf, [0.2, -5e-324]):
                with pytest.raises(ValueError, match="nonnegative"):
                    lgi_functional_engine(x, ClockSpec(omega))

    def test_engine_holds_to_the_edge_of_its_domain(self):
        assert X_MAX == 1e4
        assert abs(lgi_functional_engine(X_MAX) - lgi_functional(X_MAX)) <= 1e-10
        xs = np.linspace(X_MAX - 10.0, X_MAX, 4097)
        assert np.max(np.abs(lgi_functional_engine(xs) - lgi_functional(xs))) <= 1e-10

    def test_engine_rejects_a_gap_past_its_domain(self):
        # at 1e6 the engine is already 2e-10 off the closed form
        for x in (float(np.nextafter(X_MAX, np.inf)), 1e6, [0.5, 1e6]):
            with pytest.raises(ValueError, match="X_MAX"):
                lgi_functional_engine(x)

    def test_engine_rejects_a_gap_whose_time_step_overflows(self):
        # x / omega overflows at the first pair, 3 x / omega at the second; only the ValueError escapes
        for x, omega in ((1e300, 1e-10), (1e300, 1e-8)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError):
                    lgi_functional_engine(x, ClockSpec(omega))


class TestTimeDomain:
    """Each sequential function over every double: a ValueError outside 0 <= t <= 3 (X_MAX / omega), the closed form inside."""

    @staticmethod
    def inside(omega, *times):
        ordered = all(a < b for a, b in zip(times, times[1:]))
        return all(math.isfinite(t) for t in times) and times[0] >= 0.0 and ordered and times[-1] <= 3.0 * (X_MAX / omega)

    @given(any_times, any_times, any_frequencies, preparations)
    @example(0.0, 3.0 * X_MAX, 1.0, InitialCondition.START_H)
    @example(0.0, float(np.nextafter(3.0 * X_MAX, np.inf)), 1.0, InitialCondition.START_V)
    @example(0.0, T_EDGE_7, 7.0, InitialCondition.START_H)
    @example(0.0, math.nextafter(T_EDGE_7, math.inf), 7.0, InitialCondition.START_V)
    @example(1e-300, 1e308, 1e300, InitialCondition.START_H)
    def test_joint_probability(self, t1, gap, omega, init):
        t2, spec = t1 + gap, ClockSpec(omega)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not self.inside(omega, t1, t2):
                with pytest.raises(ValueError):
                    joint_two_time_probability(init, Outcome.H, t1, Outcome.H, t2, spec)
                return
            prepared = Outcome.H if init is InitialCondition.START_H else Outcome.V
            for o1 in Outcome:
                for o2 in Outcome:
                    closed = oracles.joint_probability(omega * t1, omega * (t2 - t1), o1 is prepared, o2 is o1)
                    assert abs(joint_two_time_probability(init, o1, t1, o2, t2, spec) - closed) <= 1e-10

    @given(any_times, any_times, any_frequencies, preparations)
    @example(0.0, 3.0 * X_MAX, 1.0, InitialCondition.START_H)
    @example(0.0, float(np.nextafter(3.0 * X_MAX, np.inf)), 1.0, InitialCondition.START_V)
    @example(0.0, T_EDGE_7, 7.0, InitialCondition.START_H)
    @example(0.0, math.nextafter(T_EDGE_7, math.inf), 7.0, InitialCondition.START_V)
    def test_correlator(self, t1, gap, omega, init):
        t2, spec = t1 + gap, ClockSpec(omega)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not self.inside(omega, t1, t2):
                with pytest.raises(ValueError):
                    two_time_correlator(t1, t2, spec, init)
                return
            closed = oracles.correlator(omega * (t2 - t1))
            assert abs(two_time_correlator(t1, t2, spec, init) - closed) <= 1e-10

    @settings(max_examples=400)  # about one draw in ten lands inside
    @given(st.lists(any_times, min_size=4, max_size=4), any_frequencies, preparations)
    @example([0.0, 1.0, 1.0, 3.0 * X_MAX - 2.0], 1.0, InitialCondition.START_H)
    @example([0.0, 1.0, 1.0, float(np.nextafter(3.0 * X_MAX, np.inf)) - 2.0], 1.0, InitialCondition.START_V)
    @example([0.0, 1.0, 1.0, T_EDGE_7 - 2.0], 7.0, InitialCondition.START_H)
    @example([0.0, 1.0, 1.0, math.nextafter(T_EDGE_7, math.inf) - 2.0], 7.0, InitialCondition.START_V)
    def test_lgi_value(self, steps, omega, init):
        times = list(itertools.accumulate(steps))  # a start and three gaps
        spec = ClockSpec(omega)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not self.inside(omega, *times):
                with pytest.raises(ValueError):
                    lgi_value(LgiSchedule(*times), spec, init)
                return
            closed = oracles.schedule_sum(times, omega)
            assert abs(lgi_value(LgiSchedule(*times), spec, init) - closed) <= 1e-10


class TestViolationWindow:
    """The combination exceeds 2 on (0, X_CROSSING) and not past it."""

    def test_crossing_constant_is_frozen(self):
        assert X_CROSSING == pytest.approx(0.5980309470430782, abs=1e-15)

    def test_combination_equals_two_at_crossing(self):
        assert lgi_functional(X_CROSSING) == pytest.approx(2.0, abs=1e-12)

    def test_violation_inside_window(self):
        xs = np.linspace(1e-3, X_CROSSING - 1e-3, 400)
        assert np.all(lgi_functional(xs) > 2.0)

    def test_no_violation_between_crossing_and_quarter_pi(self):
        xs = np.linspace(X_CROSSING + 1e-3, np.pi / 4, 400)
        assert np.all(lgi_functional(xs) < 2.0)

    def test_no_violation_at_zero_gap(self):
        assert not violates_classical_bound(lgi_functional(0.0))

    def test_mirror_window_also_violates(self):
        xs = np.pi - np.linspace(1e-3, X_CROSSING - 1e-3, 100)
        assert np.all(lgi_functional(xs) > 2.0)


class TestViolationPredicate:
    def test_examples(self):
        assert violates_classical_bound(2.0 * np.sqrt(2.0))
        assert not violates_classical_bound(2.0)
        assert not violates_classical_bound(2.0 + 5e-13)
        assert violates_classical_bound(2.0 + 1e-11)
        assert not violates_classical_bound(-3.0)

    def test_array_matches_the_scalar_calls(self):
        values = np.array([2.0 * np.sqrt(2.0), 2.0, 2.0 + 5e-13, 2.0 + 1e-11, -3.0, 2.0 + 1e-12])
        flags = violates_classical_bound(values)
        assert flags.dtype == np.bool_
        assert flags.tolist() == [violates_classical_bound(float(v)) for v in values]
        assert flags.tolist() == [True, False, False, True, False, False]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scalar_is_a_value_error(self, bad):
        with pytest.raises(ValueError, match=f"must be finite.*got {bad!r}$"):
            violates_classical_bound(bad)

    @pytest.mark.parametrize(
        "values, bad",
        [
            ([2.5, math.nan, 1.0], math.nan),
            ([[2.5, 1.0], [math.inf, math.nan]], math.inf),
            ([1.0, 3.0, -math.inf], -math.inf),
            (np.float64(math.nan), math.nan),
        ],
    )
    def test_non_finite_array_names_its_first_bad_value(self, values, bad):
        with pytest.raises(ValueError, match=f"must be finite.*got {bad!r}$"):
            violates_classical_bound(np.asarray(values))


class TestMaximizer:
    def test_peak_location_and_height(self):
        # on (0, pi/2) the candidate 0 pi + pi/8 is fl(pi/8) itself
        x_star, c_star = lgi_maximize(0.0, np.pi / 2)
        assert x_star == math.pi / 8
        assert abs(c_star - 2.0 * np.sqrt(2.0)) <= 1e-10

    def test_boundary_maximum(self):
        # decreasing on [pi/4, pi/2], so the edge wins
        x_star, c_star = lgi_maximize(np.pi / 4, np.pi / 2)
        assert abs(x_star - np.pi / 4) <= 1e-9
        assert abs(c_star) <= 1e-8

    def test_wide_window_still_reaches_the_quantum_bound(self):
        # four equal-height peaks inside [0, 2 pi]; whichever wins on rounding,
        # its value must hit the bound
        x_star, c_star = lgi_maximize(0.0, 2.0 * np.pi)
        peaks = np.pi / 8 + np.array([0.0, 3.0 / 4.0, 1.0, 7.0 / 4.0]) * np.pi
        assert np.min(np.abs(peaks - x_star)) <= 1e-8
        assert abs(c_star - 2.0 * np.sqrt(2.0)) <= 1e-10

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            lgi_maximize(1.0, 1.0)
        with pytest.raises(ValueError):
            lgi_maximize(np.nan, 2.0)

    def test_far_window_stays_within_the_derived_bound(self):
        # at 1e7, ulp(x) = 2**-29, so a candidate peak is off its critical point by up to
        # 3 ulp(1e7 + 2) and the curvature term is 12 sqrt(2) (3 * 2**-29)**2 = 5.3e-16
        x_star, c_star = lgi_maximize(1e7, 1e7 + 3.0)
        assert 1e7 <= x_star <= 1e7 + 3.0
        assert -maximizer_shortfall_bound(1e7, 1e7 + 3.0) <= c_star - QUANTUM_BOUND <= CLOSED_FORM_SLACK

    def test_deterministic(self):
        assert lgi_maximize(0.0, np.pi) == lgi_maximize(0.0, np.pi)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-1e4, 1e4), st.floats(1e-4, 100.0))
    @example(27535885916.73598, 27535885933.07078 - 27535885916.73598)
    @example(math.pi / 2 - 0.1, 0.2)
    @example(math.pi / 4, math.pi / 4)
    def test_never_below_a_dense_scan(self, x_lo, width):
        # the first example is a window 16.3 wide that holds several peaks, where a 1025-point scan
        # that bracketed a rising edge returned 2.828232; around pi/2 only the C = -2 family is
        # inside (-2.12 at the ends); on (pi/4, pi/2) the maximum is the lower endpoint
        x_hi = x_lo + width
        assume(x_lo < x_hi)
        x_star, c_star = lgi_maximize(x_lo, x_hi)
        assert x_lo <= x_star <= x_hi
        assert c_star == lgi_functional(x_star)
        assert c_star >= dense_maximum(x_lo, x_hi) - maximizer_shortfall_bound(x_lo, x_hi)

    def test_an_exact_tie_goes_to_the_lowest_x(self):
        # C is even and so is cos, so +-pi/8 and +-0.1 give the same bits
        assert lgi_maximize(-1.0, 1.0) == (-math.pi / 8, lgi_functional(math.pi / 8))
        assert lgi_maximize(-0.1, 0.1) == (-0.1, lgi_functional(0.1))

    @pytest.mark.parametrize("window", [(0.0, 1e308), (-1.7e308, 1.7e308)])
    def test_window_where_cos_2x_overflows_rejected(self, window):
        # these windows used to return (3.0e307, nan) and (nan, nan) with RuntimeWarnings alone
        with pytest.raises(ValueError, match="float_info.max / 2"):
            lgi_maximize(*window)

    def test_closed_form_where_2x_overflows_rejected(self):
        # 1e308 used to return nan with an overflow RuntimeWarning alone
        for x in (1e308, np.array([0.5, 1.0, -1e308, 2.0])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=r"sys\.float_info\.max / 2"):
                    lgi_functional(x)

    @given(st.one_of(st.floats(), st.lists(st.floats(), min_size=1, max_size=8)))
    @example(X_TOP)
    @example(math.nextafter(X_TOP, math.inf))
    @example(-sys.float_info.max)
    def test_closed_form_over_every_double(self, x):
        inside = all(math.isfinite(2.0 * value) for value in np.atleast_1d(x).tolist())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not inside:
                with pytest.raises(ValueError, match=r"sys\.float_info\.max / 2"):
                    lgi_functional(x)
                return
            assert np.all(np.abs(lgi_functional(x)) <= QUANTUM_BOUND + CLOSED_FORM_SLACK)

    def test_widest_accepted_window_stays_finite(self):
        assert math.isfinite(2.0 * X_TOP)  # max / 2 is exact, and so is doubling it back
        x_star, c_star = lgi_maximize(-X_TOP, X_TOP)
        assert math.isfinite(x_star) and math.isfinite(c_star)
        with pytest.raises(ValueError):
            lgi_maximize(0.0, math.nextafter(X_TOP, math.inf))

    @given(st.floats(-X_TOP, X_TOP), st.floats(-X_TOP, X_TOP))
    @example(1e15, 1e15 + 1e4)
    @example(1e12, 1e12 * (1.0 + 1e-6))
    @example(1e16, 1e16 + 1e5)
    @example(-X_TOP, X_TOP)
    def test_maximum_never_exceeds_the_quantum_bound(self, x_lo, x_hi):
        # evaluated as 3 cos(2x) - cos(6x), the maximum read 3.14 on (1e15, 1e15 + 1e4): fl(6x) and
        # 3 fl(2x) stop agreeing modulo 2 pi out there, and the scan picked the noise
        assume(x_lo < x_hi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x_star, c_star = lgi_maximize(x_lo, x_hi)
        assert x_lo <= x_star <= x_hi
        assert c_star <= QUANTUM_BOUND + CLOSED_FORM_SLACK
