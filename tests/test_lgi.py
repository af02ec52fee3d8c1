"""Sequential statistics and the four-time Leggett-Garg combination."""

import math

import numpy as np
import pytest
from hypothesis import given
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
    projector,
    propagator,
    single_photon_hamiltonian,
    single_time_probability,
    two_time_correlator,
    unsharp_effects,
    violates_classical_bound,
)
from photonclock.lgi import _joint_table, _rotation

UNIT = ClockSpec(1.0)

# Where 3 cos(2x) - cos(6x) crosses 2 from above. With c = cos(2x) the
# combination minus 2 factors as -2 (c - 1)(2 c^2 + 2 c - 1), whose root
# inside (0, 1) is c = (sqrt(3) - 1)/2.
X_CROSSING = math.acos((math.sqrt(3.0) - 1.0) / 2.0) / 2.0

first_times = st.floats(min_value=0.0, max_value=8.0, allow_nan=False)
gaps = st.floats(min_value=1e-6, max_value=8.0, allow_nan=False)
phase_gaps = st.floats(min_value=1e-4, max_value=3.0, allow_nan=False)
engine_gaps = st.floats(min_value=0.0, max_value=10.0, exclude_min=True)
preparations = st.sampled_from(InitialCondition)


def scalar_chain(init, outcome1, t1, outcome2, t2, spec):
    """The validated single-state pipeline: series propagator, Lüders collapse, Born rule."""
    sharp = unsharp_effects(1.0)
    h = single_photon_hamiltonian(spec)
    psi = propagator(h, t1, method="series") @ init.clock_ket
    try:
        post, p1 = luders_collapse(psi, sharp[outcome1.index])
    except NullCollapseError:
        return 0.0
    evolved = propagator(h, t2 - t1, method="series") @ post
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

    def test_spacings_and_equality_flag(self):
        sched = LgiSchedule(0.0, 0.5, 1.0, 1.5)
        assert sched.spacings == (0.5, 0.5, 0.5)
        assert sched.equal_spacing
        assert sched.delta_t == 0.5

    def test_unequal_spacing_has_no_delta(self):
        sched = LgiSchedule(0.0, 0.5, 1.5, 2.0)
        assert not sched.equal_spacing
        with pytest.raises(ValueError):
            _ = sched.delta_t

    def test_equally_spaced_constructor(self):
        spec = ClockSpec(2.0)
        sched = LgiSchedule.equally_spaced(np.pi / 8, spec)
        assert sched.t1 == 0.0
        assert sched.x(spec) == pytest.approx(np.pi / 8, abs=1e-14)

    def test_constructor_rejects_nonpositive_gap(self):
        for x in (0.0, -0.3, np.nan):
            with pytest.raises(ValueError):
                LgiSchedule.equally_spaced(x, UNIT)

    @given(phase_gaps, st.floats(min_value=0.1, max_value=10.0))
    def test_phase_gap_round_trip(self, x, omega):
        spec = ClockSpec(omega)
        sched = LgiSchedule.equally_spaced(x, spec)
        assert sched.x(spec) == pytest.approx(x, rel=1e-12)


class TestSingleTimeProbability:
    def test_initial_readout_is_certain(self):
        assert single_time_probability(
            InitialCondition.START_H, Outcome.H, 0.0, UNIT
        ) == pytest.approx(1.0, abs=1e-15)

    def test_quarter_phase_is_even(self):
        p = single_time_probability(InitialCondition.START_H, Outcome.V, np.pi / 4, UNIT)
        assert p == pytest.approx(0.5, abs=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            single_time_probability(InitialCondition.START_H, Outcome.H, -0.1, UNIT)

    @given(first_times, st.floats(min_value=0.1, max_value=5.0))
    def test_closed_forms_from_h(self, t, omega):
        spec = ClockSpec(omega)
        ph = single_time_probability(InitialCondition.START_H, Outcome.H, t, spec)
        pv = single_time_probability(InitialCondition.START_H, Outcome.V, t, spec)
        assert ph == pytest.approx(np.cos(omega * t) ** 2, abs=1e-12)
        assert pv == pytest.approx(np.sin(omega * t) ** 2, abs=1e-12)

    @given(first_times)
    def test_closed_forms_from_v(self, t):
        ph = single_time_probability(InitialCondition.START_V, Outcome.H, t, UNIT)
        pv = single_time_probability(InitialCondition.START_V, Outcome.V, t, UNIT)
        assert ph == pytest.approx(np.sin(t) ** 2, abs=1e-12)
        assert pv == pytest.approx(np.cos(t) ** 2, abs=1e-12)


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

    @given(first_times, gaps)
    def test_markov_factorization(self, t1, gap):
        t2 = t1 + gap
        c1 = np.cos(t1) ** 2
        cg, sg = np.cos(gap) ** 2, np.sin(gap) ** 2
        expected = {
            (Outcome.H, Outcome.H): c1 * cg,
            (Outcome.H, Outcome.V): c1 * sg,
            (Outcome.V, Outcome.H): (1.0 - c1) * sg,
            (Outcome.V, Outcome.V): (1.0 - c1) * cg,
        }
        for (o1, o2), target in expected.items():
            p = joint_two_time_probability(InitialCondition.START_H, o1, t1, o2, t2, UNIT)
            assert p == pytest.approx(target, abs=1e-12)

    @given(first_times, gaps)
    def test_outcomes_sum_to_one(self, t1, gap):
        total = sum(
            joint_two_time_probability(
                InitialCondition.START_H, o1, t1, o2, t1 + gap, UNIT
            )
            for o1 in Outcome
            for o2 in Outcome
        )
        assert total == pytest.approx(1.0, abs=1e-12)


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
        assert a == pytest.approx(np.cos(2.0 * gap), abs=1e-12)

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
        assert lgi_functional(x) <= 2.0 * np.sqrt(2.0) + 1e-12


class TestEngineAgreement:
    def test_engine_matches_closed_form_on_dense_grid(self):
        xs = np.linspace(0.0, np.pi, 102)[1:]
        for x in xs:
            assert abs(lgi_functional_engine(float(x)) - lgi_functional(float(x))) <= 1e-12

    def test_engine_independent_of_frequency(self):
        # dimensionless input, dimensionless output
        x = 0.713
        assert lgi_functional_engine(x) == lgi_functional_engine(x, ClockSpec(1.0))

    @given(phase_gaps)
    def test_engine_independent_of_preparation(self, x):
        a = lgi_functional_engine(x, init=InitialCondition.START_H)
        b = lgi_functional_engine(x, init=InitialCondition.START_V)
        assert a == pytest.approx(b, abs=1e-12)

    def test_unequal_schedule_sums_pair_correlators(self):
        spec = ClockSpec(1.3)
        sched = LgiSchedule(0.1, 0.6, 0.9, 2.0)
        t1, t2, t3, t4 = sched.times
        expected = (
            np.cos(2 * spec.omega * (t2 - t1))
            + np.cos(2 * spec.omega * (t3 - t2))
            + np.cos(2 * spec.omega * (t4 - t3))
            - np.cos(2 * spec.omega * (t4 - t1))
        )
        assert lgi_value(sched, spec) == pytest.approx(expected, abs=1e-12)


class TestBatchedKernel:
    """The batched kernel against the scalar chain it replaced and the closed forms."""

    @given(st.lists(engine_gaps, min_size=1, max_size=16), preparations)
    def test_engine_on_an_array_matches_scalar_calls_and_closed_form(self, gaps, init):
        xs = np.array(gaps)
        batched = lgi_functional_engine(xs, init=init)
        assert isinstance(batched, np.ndarray) and batched.shape == xs.shape
        scalar = np.array([lgi_functional_engine(x, init=init) for x in gaps])
        assert np.max(np.abs(batched - scalar)) <= 1e-15
        assert np.max(np.abs(batched - lgi_functional(xs))) <= 1e-12

    @pytest.mark.parametrize("init", list(InitialCondition))
    def test_joint_table_matches_scalar_chain(self, init):
        rng = np.random.default_rng(7)
        spec = ClockSpec(1.3)
        t1 = np.concatenate([[0.0], rng.uniform(0.0, 8.0, 63)])
        t2 = t1 + rng.uniform(1e-6, 8.0, 64)
        table = _joint_table(init, t1, t2, spec.omega)
        assert table.shape == (2, 2, 64)
        for o1 in Outcome:
            for o2 in Outcome:
                chain = [scalar_chain(init, o1, a, o2, b, spec) for a, b in zip(t1, t2)]
                assert np.max(np.abs(table[o1.index, o2.index] - chain)) <= 1e-14

    def test_null_branch_below_threshold_contributes_zero(self):
        # cos^2(pi/2) is about 3.7e-33 in doubles: nonzero, but a null collapse
        for o2 in Outcome:
            args = (InitialCondition.START_H, Outcome.H, np.pi / 2, o2, np.pi / 2 + 1.0, UNIT)
            assert joint_two_time_probability(*args) == 0.0
            assert scalar_chain(*args) == 0.0

    def test_rotation_is_the_series_propagator(self):
        spec = ClockSpec(2.1)
        times = np.linspace(0.0, 10.0, 41)
        series = [propagator(single_photon_hamiltonian(spec), t, method="series") for t in times]
        assert np.max(np.abs(_rotation(spec.omega * times) - np.array(series))) <= 1e-14

    @given(first_times, gaps, gaps, gaps, st.floats(min_value=0.1, max_value=10.0), preparations)
    def test_unequal_schedules_sum_pair_correlators(self, t1, g1, g2, g3, omega, init):
        spec = ClockSpec(omega)
        t2, t3 = t1 + g1, t1 + g1 + g2
        t4 = t3 + g3
        expected = (
            math.cos(2 * omega * (t2 - t1))
            + math.cos(2 * omega * (t3 - t2))
            + math.cos(2 * omega * (t4 - t3))
            - math.cos(2 * omega * (t4 - t1))
        )
        assert lgi_value(LgiSchedule(t1, t2, t3, t4), spec, init) == pytest.approx(expected, abs=1e-12)

    def test_schedule_before_preparation_rejected(self):
        with pytest.raises(ValueError):
            lgi_value(LgiSchedule(-0.5, 0.5, 1.0, 2.0), UNIT)

    def test_engine_rejects_any_nonpositive_gap(self):
        for x in (0.0, -0.3, np.nan, np.inf, [0.2, 0.0]):
            with pytest.raises(ValueError):
                lgi_functional_engine(x)

    @pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
    def test_engine_rejects_a_gap_whose_time_step_overflows(self):
        with pytest.raises(ValueError):
            lgi_functional_engine(1e300, ClockSpec(1e-10))


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


class TestMaximizer:
    def test_peak_location_and_height(self):
        x_star, c_star = lgi_maximize(0.0, np.pi / 2)
        assert abs(x_star - np.pi / 8) <= 1e-8
        assert abs(c_star - 2.0 * np.sqrt(2.0)) <= 1e-10

    def test_boundary_maximum(self):
        # decreasing on [pi/4, pi/2], so the edge wins
        x_star, c_star = lgi_maximize(np.pi / 4, np.pi / 2)
        assert abs(x_star - np.pi / 4) <= 1e-9
        assert abs(c_star) <= 1e-8

    def test_wide_window_still_reaches_the_quantum_bound(self):
        # four equal-height peaks inside [0, 2 pi]; whichever the scan
        # brackets, the refined value must hit the bound
        x_star, c_star = lgi_maximize(0.0, 2.0 * np.pi)
        peaks = np.pi / 8 + np.array([0.0, 3.0 / 4.0, 1.0, 7.0 / 4.0]) * np.pi
        assert np.min(np.abs(peaks - x_star)) <= 1e-8
        assert abs(c_star - 2.0 * np.sqrt(2.0)) <= 1e-10

    def test_small_sample_count_is_raised_to_floor(self):
        x_star, _ = lgi_maximize(0.0, np.pi / 2, samples=8)
        assert abs(x_star - np.pi / 8) <= 1e-8

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            lgi_maximize(1.0, 1.0)
        with pytest.raises(ValueError):
            lgi_maximize(np.nan, 2.0)

    def test_returns_where_the_bracket_reaches_float_spacing(self):
        # at 1e7 the spacing of doubles is about 1.9e-9, above the 1e-10 target;
        # the closed form itself rounds at ulp(6x), about 7.5e-9, out here
        x_star, c_star = lgi_maximize(1e7, 1e7 + 3.0)
        assert 1e7 <= x_star <= 1e7 + 3.0
        assert abs(c_star - 2.0 * np.sqrt(2.0)) <= 1e-8

    def test_deterministic(self):
        assert lgi_maximize(0.0, np.pi) == lgi_maximize(0.0, np.pi)
