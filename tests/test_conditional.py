"""Conditional readout probabilities and the stationary state."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import photonclock.conditional as conditional_module
from photonclock import (
    ClockSpec,
    ConditionalQuery,
    DegenerateConditioningError,
    Formalism,
    MeasurementKind,
    Outcome,
    SharpnessPair,
    StateKind,
    conditional_probability,
    entanglement_advantage,
    global_hamiltonian,
    joint_effect,
    stationary_state,
    unsharp_effects,
    wd_residual,
)
from photonclock.conditional import PANELS
from photonclock.dynamics import product_state_phase
from photonclock.qstate import ket, projector, tensor_product, trace_of_product

import oracles

UNIT = ClockSpec(1.0)
SINGLET = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)

sharpness = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


# node counts for the test-built period average: the smallest exact one, one
# that does not divide into the library's PANELS, and a dense refinement
ORACLE_PANELS = (6, 10, 4096)


def averaged_state(panels):
    """Test oracle: the product pair's amplitude mean over `panels` phase nodes,
    normalized, with its HV amplitude made real and positive."""
    mean = product_state_phase(2.0 * math.pi * np.arange(panels) / panels).mean(axis=0)
    psi = mean / np.linalg.norm(mean)
    return psi * (abs(psi[1]) / psi[1])


def preparation(kind, panels=PANELS):
    """Test oracle: a preparation's density matrix, averaged over `panels` phase nodes."""
    if kind is StateKind.STATIONARY:
        return projector(averaged_state(panels))
    states = product_state_phase(2.0 * math.pi * np.arange(panels) / panels)
    return sum(projector(psi) for psi in states) / panels


def per_effect_ratio(pair, rho):
    """Test oracle: Tr[E rho] / Tr[E_c rho] with the effects built outright."""
    effect = joint_effect(pair, Outcome.H, Outcome.V)
    effect_clock = tensor_product(unsharp_effects(pair.lambda_c)[0], np.eye(2))
    return (trace_of_product(effect, rho) / trace_of_product(effect_clock, rho)).real


@pytest.fixture
def fresh_moments():
    """Clear the cached moments around a test, so that none computed from a swapped-in state outlives it."""
    conditional_module._moments.cache_clear()
    yield
    conditional_module._moments.cache_clear()


class TestStationaryState:
    def test_equals_singlet_in_fixed_gauge(self):
        np.testing.assert_allclose(stationary_state(UNIT), SINGLET, rtol=0.0, atol=1e-15)

    def test_unit_norm(self):
        assert np.linalg.norm(stationary_state(UNIT)) == pytest.approx(1.0, abs=1e-14)

    def test_annihilated_by_global_generator(self):
        psi = stationary_state(UNIT)
        assert wd_residual(global_hamiltonian(UNIT), psi) <= 1e-10

    def test_independent_of_frequency_bit_for_bit(self):
        a = stationary_state(ClockSpec(1.0))
        b = stationary_state(ClockSpec(3.7))
        assert np.array_equal(a, b)

    def test_returns_a_fresh_copy(self):
        first = stationary_state(UNIT)
        first[:] = 0.0
        second = stationary_state(UNIT)
        np.testing.assert_allclose(second, SINGLET, atol=1e-12)

    def test_converged_at_modest_panel_count(self):
        for panels in ORACLE_PANELS:
            np.testing.assert_allclose(stationary_state(UNIT), averaged_state(panels), rtol=0.0, atol=1e-13)


class TestSharpConditionals:
    def test_stationary_readout_is_certain(self):
        for formalism in Formalism:
            query = ConditionalQuery(
                StateKind.STATIONARY, MeasurementKind.SHARP, formalism=formalism
            )
            assert conditional_probability(query, UNIT) == pytest.approx(1.0, abs=1e-12)

    def test_time_averaged_readout_is_three_quarters(self):
        for formalism in Formalism:
            query = ConditionalQuery(
                StateKind.TIME_DEPENDENT, MeasurementKind.SHARP, formalism=formalism
            )
            assert conditional_probability(query, UNIT) == pytest.approx(0.75, abs=1e-10)

    def test_sharp_ignores_carried_sharpness(self):
        query = ConditionalQuery(
            StateKind.STATIONARY, MeasurementKind.SHARP, SharpnessPair(0.2, 0.3)
        )
        assert conditional_probability(query, UNIT) == pytest.approx(1.0, abs=1e-12)


class TestUnsharpConditionals:
    def test_frozen_example(self):
        pair = SharpnessPair(0.8, 0.5)
        st_query = ConditionalQuery(StateKind.STATIONARY, MeasurementKind.UNSHARP, pair)
        td_query = ConditionalQuery(StateKind.TIME_DEPENDENT, MeasurementKind.UNSHARP, pair)
        assert conditional_probability(st_query, UNIT) == pytest.approx(0.7, abs=1e-10)
        assert conditional_probability(td_query, UNIT) == pytest.approx(0.6, abs=1e-10)

    def test_fully_smeared_clock_erases_the_difference(self):
        pair = SharpnessPair(0.0, 0.9)
        st_query = ConditionalQuery(StateKind.STATIONARY, MeasurementKind.UNSHARP, pair)
        td_query = ConditionalQuery(StateKind.TIME_DEPENDENT, MeasurementKind.UNSHARP, pair)
        a = conditional_probability(st_query, UNIT)
        b = conditional_probability(td_query, UNIT)
        assert a == pytest.approx(0.5, abs=1e-12)
        assert b == pytest.approx(0.5, abs=1e-12)

    @given(sharpness, sharpness)
    def test_closed_forms(self, lc, lr):
        pair = SharpnessPair(lc, lr)
        for kind in StateKind:
            query = ConditionalQuery(kind, MeasurementKind.UNSHARP, pair)
            assert conditional_probability(query, UNIT) == pytest.approx(
                oracles.conditional(kind.value, lc * lr), abs=1e-10
            )

    @given(sharpness, sharpness)
    def test_probabilities_stay_in_unit_interval(self, lc, lr):
        pair = SharpnessPair(lc, lr)
        for kind in StateKind:
            query = ConditionalQuery(kind, MeasurementKind.UNSHARP, pair)
            p = conditional_probability(query, UNIT)
            assert -1e-12 <= p <= 1.0 + 1e-12

    def test_formalisms_agree_on_a_grid(self):
        grid = np.linspace(0.0, 1.0, 11)
        for lc, lr in itertools.product(grid, grid):
            pair = SharpnessPair(float(lc), float(lr))
            for kind in StateKind:
                closed = oracles.conditional(kind.value, lc * lr)
                amp = conditional_probability(
                    ConditionalQuery(
                        kind, MeasurementKind.UNSHARP, pair, Formalism.AMPLITUDE
                    ),
                    UNIT,
                )
                dm = conditional_probability(
                    ConditionalQuery(
                        kind, MeasurementKind.UNSHARP, pair, Formalism.DENSITY_MATRIX
                    ),
                    UNIT,
                )
                # the trapezoid rule is exact here, so only roundoff remains
                assert abs(amp - closed) <= 1e-15
                assert abs(dm - closed) <= 1e-15

    @given(sharpness, sharpness)
    def test_moment_form_matches_the_per_effect_ratio(self, lc, lr):
        pair = SharpnessPair(lc, lr)
        for kind, formalism in itertools.product(StateKind, Formalism):
            query = ConditionalQuery(kind, MeasurementKind.UNSHARP, pair, formalism)
            p = conditional_probability(query, UNIT)
            assert abs(p - per_effect_ratio(pair, preparation(kind))) <= 1e-15

    @pytest.mark.usefixtures("fresh_moments")
    def test_moment_form_holds_on_a_generic_state(self, monkeypatch):
        # all four moments are nonzero here; on the two physical preparations <Q_c> = <Q_r> = 0
        psi = np.array([0.6, 0.5, 0.3j, -0.2 + 0.1j]) / math.sqrt(0.75)
        monkeypatch.setattr(conditional_module, "_stationary_cached", lambda: psi)
        grid = np.linspace(0.0, 1.0, 6)
        for lc, lr, formalism in itertools.product(grid.tolist(), grid.tolist(), Formalism):
            pair = SharpnessPair(lc, lr)
            query = ConditionalQuery(StateKind.STATIONARY, MeasurementKind.UNSHARP, pair, formalism)
            p = conditional_probability(query, UNIT)
            assert abs(p - per_effect_ratio(pair, projector(psi))) <= 1e-15

    def test_array_call_equals_scalar_calls(self):
        grid = np.linspace(0.0, 1.0, 7)
        lc, lr = (axis.ravel() for axis in np.meshgrid(grid, grid[::-1], indexing="ij"))
        for kind, formalism in itertools.product(StateKind, Formalism):
            query = ConditionalQuery(kind, MeasurementKind.UNSHARP, SharpnessPair(lc, lr), formalism)
            values = conditional_probability(query, UNIT)
            assert isinstance(values, np.ndarray) and values.shape == lc.shape
            scalars = [
                conditional_probability(
                    ConditionalQuery(kind, MeasurementKind.UNSHARP, SharpnessPair(a, b), formalism), UNIT
                )
                for a, b in zip(lc.tolist(), lr.tolist())
            ]
            assert all(type(value) is float for value in scalars)
            assert np.array_equal(values, scalars)
        advantage = entanglement_advantage(SharpnessPair(lc, lr), UNIT)
        scalars = [entanglement_advantage(SharpnessPair(a, b), UNIT) for a, b in zip(lc.tolist(), lr.tolist())]
        assert np.array_equal(advantage, scalars)

    def test_monotone_in_system_sharpness(self):
        values = [
            conditional_probability(
                ConditionalQuery(
                    StateKind.STATIONARY,
                    MeasurementKind.UNSHARP,
                    SharpnessPair(0.6, float(lr)),
                ),
                UNIT,
            )
            for lr in np.linspace(0.0, 1.0, 9)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_frequency_drops_out(self):
        pair = SharpnessPair(0.4, 0.9)
        query = ConditionalQuery(StateKind.TIME_DEPENDENT, MeasurementKind.UNSHARP, pair)
        assert conditional_probability(query, ClockSpec(1.0)) == conditional_probability(
            query, ClockSpec(5.21)
        )

    def test_panel_refinement_is_converged(self):
        grid = np.linspace(0.0, 1.0, 11).tolist()
        for panels in ORACLE_PANELS:
            rhos = {kind: preparation(kind, panels) for kind in StateKind}
            for lc, lr, kind, formalism in itertools.product(grid, grid, StateKind, Formalism):
                pair = SharpnessPair(lc, lr)
                oracle = per_effect_ratio(pair, rhos[kind])
                p = conditional_probability(ConditionalQuery(kind, MeasurementKind.UNSHARP, pair, formalism), UNIT)
                assert abs(p - oracle) <= 1e-12
                if panels < 4096:  # exact at a modest count; the dense sum's own roundoff comes near 1e-15
                    assert abs(oracle - oracles.conditional(kind.value, lc * lr)) <= 1e-15

    @pytest.mark.usefixtures("fresh_moments")
    def test_degenerate_conditioning_raises(self, monkeypatch):
        # Force a preparation with no H component on the clock side so a
        # sharp clock projection has nothing to condition on.
        frozen = ket("VV")
        monkeypatch.setattr(conditional_module, "_stationary_cached", lambda: frozen)
        query = ConditionalQuery(StateKind.STATIONARY, MeasurementKind.SHARP)
        with pytest.raises(DegenerateConditioningError):
            conditional_module.conditional_probability(query, UNIT)


class TestMomentsCache:
    @pytest.mark.usefixtures("fresh_moments")
    def test_each_preparation_takes_its_four_moments_once(self):
        pair = SharpnessPair(np.linspace(0.0, 1.0, 5), 0.3)
        for kind, formalism in itertools.product(StateKind, Formalism):
            query = ConditionalQuery(kind, MeasurementKind.UNSHARP, pair, formalism)
            before = conditional_module._moments.cache_info().misses
            conditional_probability(query, UNIT)
            assert conditional_module._moments.cache_info().misses - before == 1
            conditional_probability(query, UNIT)
            sharp = ConditionalQuery(kind, MeasurementKind.SHARP, formalism=formalism)
            conditional_probability(sharp, UNIT)
            assert conditional_module._moments.cache_info().misses - before == 1
            assert len(conditional_module._moments(kind, formalism)) == 4

    @pytest.mark.parametrize("kind", list(StateKind))
    def test_density_matrix_moments_match_the_projector_mean_bit_for_bit(self, kind):
        # rho built apart from the library: the singlet's projector, or the mean projector at the PANELS nodes
        if kind is StateKind.STATIONARY:
            rho = projector(stationary_state(UNIT))
        else:
            states = product_state_phase(2.0 * math.pi * np.arange(PANELS) / PANELS)
            rho = np.mean([projector(psi) for psi in states], axis=0)
        expected = [float.hex(trace_of_product(op, rho).real) for op in conditional_module._MOMENTS]
        moments = conditional_module._moments(kind, Formalism.DENSITY_MATRIX)
        assert [float.hex(m) for m in moments] == expected

    def test_moments_match_other_node_counts(self):
        for panels, kind, formalism in itertools.product(ORACLE_PANELS, StateKind, Formalism):
            rho = preparation(kind, panels)
            oracle = [trace_of_product(op, rho).real for op in conditional_module._MOMENTS]
            np.testing.assert_allclose(conditional_module._moments(kind, formalism), oracle, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("kind", list(StateKind))
    def test_density_matrix_single_moments_are_exactly_positive_zero(self, kind):
        # cond-surface groups its pairs by lambda_c * lambda_r on this premise: with <Q_c> and <Q_r>
        # exactly +0.0, each conditional is a function of the product's bits
        moments = conditional_module._moments(kind, Formalism.DENSITY_MATRIX)
        assert np.array(moments[1:3]).tobytes() == bytes(16)  # the bits of (+0.0, +0.0), sign bit included


class TestEntanglementAdvantage:
    def test_sharp_corner(self):
        assert entanglement_advantage(SharpnessPair(1.0, 1.0), UNIT) == pytest.approx(
            0.25, abs=1e-10
        )

    def test_frozen_example(self):
        assert entanglement_advantage(SharpnessPair(0.8, 0.5), UNIT) == pytest.approx(
            0.1, abs=1e-10
        )

    def test_vanishes_when_either_side_is_blind(self):
        assert abs(entanglement_advantage(SharpnessPair(0.0, 0.7), UNIT)) <= 1e-12
        assert abs(entanglement_advantage(SharpnessPair(0.7, 0.0), UNIT)) <= 1e-12

    @given(sharpness, sharpness)
    def test_quarter_product_rule(self, lc, lr):
        adv = entanglement_advantage(SharpnessPair(lc, lr), UNIT)
        assert adv == pytest.approx(oracles.advantage(lc * lr), abs=1e-10)

    @given(sharpness, sharpness)
    def test_never_negative(self, lc, lr):
        assert entanglement_advantage(SharpnessPair(lc, lr), UNIT) >= -1e-12
