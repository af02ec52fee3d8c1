"""Generators and propagators for the rotating-polarization pair."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from photonclock import (
    ClockSpec,
    global_hamiltonian,
    propagator,
    single_photon_hamiltonian,
    wd_residual,
)
from photonclock.dynamics import MAX_NORM_TIME, UNITARITY_TOL, product_state_phase
from photonclock.qstate import ket

UNIT_ROUNDOFF = 2.0**-53
SINGLET = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
EVEN_PAIR = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)

times = st.floats(min_value=0.0, max_value=40.0, allow_nan=False)
frequencies = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)
# every double, with extra draws near the propagator's bound at omega = 1
any_time = st.one_of(st.floats(), st.floats(-2.5e3, 2.5e3))
any_frequency = st.one_of(
    st.just(1.0),
    st.builds(lambda mantissa, exponent: mantissa * 10.0**exponent, st.floats(1.0, 9.99), st.integers(-300, 300)),
)


class TestClockSpec:
    def test_rejects_bad_frequency(self):
        for omega in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                ClockSpec(omega=omega)


class TestSinglePhotonHamiltonian:
    def test_matrix_at_unit_frequency(self):
        h = single_photon_hamiltonian(ClockSpec(1.0))
        np.testing.assert_allclose(
            h, np.array([[0, 1j], [-1j, 0]]), atol=1e-15
        )

    def test_scales_linearly_with_frequency(self):
        h1 = single_photon_hamiltonian(ClockSpec(1.0))
        h25 = single_photon_hamiltonian(ClockSpec(2.5))
        np.testing.assert_allclose(h25, 2.5 * h1, atol=1e-15)

    def test_eigenvalues(self):
        h = single_photon_hamiltonian(ClockSpec(2.0))
        np.testing.assert_allclose(np.linalg.eigvalsh(h), [-2.0, 2.0], atol=1e-12)

    def test_square_is_isotropic(self):
        h = single_photon_hamiltonian(ClockSpec(3.0))
        np.testing.assert_allclose(h @ h, 9.0 * np.eye(2), atol=1e-12)


class TestGlobalHamiltonian:
    def test_is_sum_of_local_terms(self):
        spec = ClockSpec(1.7)
        h = single_photon_hamiltonian(spec)
        eye = np.eye(2, dtype=complex)
        expected = np.kron(h, eye) + np.kron(eye, h)
        np.testing.assert_allclose(global_hamiltonian(spec), expected, atol=1e-15)

    def test_spectrum(self):
        # Two zero modes plus a symmetric pair at twice the photon splitting.
        evals = np.linalg.eigvalsh(global_hamiltonian(ClockSpec(1.0)))
        np.testing.assert_allclose(evals, [-2.0, 0.0, 0.0, 2.0], atol=1e-10)

    def test_zero_modes_span(self):
        h = global_hamiltonian(ClockSpec(1.3))
        assert np.linalg.norm(h @ SINGLET) <= 1e-12
        assert np.linalg.norm(h @ EVEN_PAIR) <= 1e-12


class TestPropagator:
    def test_identity_at_zero_time(self):
        h = single_photon_hamiltonian(ClockSpec(1.0))
        np.testing.assert_allclose(propagator(h, 0.0), np.eye(2), atol=1e-15)

    def test_quarter_turn_sends_h_to_minus_v(self):
        h = single_photon_hamiltonian(ClockSpec(1.0))
        u = propagator(h, np.pi / 2)
        np.testing.assert_allclose(u @ ket("H"), -ket("V"), atol=1e-12)
        np.testing.assert_allclose(u @ ket("V"), ket("H"), atol=1e-12)

    def test_rotation_matrix_form(self):
        spec = ClockSpec(0.8)
        h = single_photon_hamiltonian(spec)
        t = 1.9
        c, s = np.cos(spec.omega * t), np.sin(spec.omega * t)
        np.testing.assert_allclose(
            propagator(h, t), np.array([[c, s], [-s, c]]), atol=1e-12
        )

    def test_rejects_non_hermitian_generator(self):
        with pytest.raises(ValueError):
            propagator(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)

    @given(times, frequencies)
    def test_unitary_single_photon(self, t, omega):
        u = propagator(single_photon_hamiltonian(ClockSpec(omega)), t)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2), rtol=0, atol=UNITARITY_TOL)

    @given(times, times)
    def test_group_law_single_photon(self, t1, t2):
        # both sides share eigh's eigenvalues, so their error cancels. Left are each side's
        # t-independent rounding, within UNITARITY_TOL, and the phases' rounding at ||h||_inf = 1:
        # u t1 and u t2, and 2 u (t1 + t2) for the sum and then the product at t1 + t2
        h = single_photon_hamiltonian(ClockSpec(1.0))
        lhs = propagator(h, t1) @ propagator(h, t2)
        rhs = propagator(h, t1 + t2)
        tol = 2 * UNITARITY_TOL + 3 * UNIT_ROUNDOFF * (t1 + t2)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=tol)

    @given(times)
    def test_unitary_two_photon(self, t):
        u = propagator(global_hamiltonian(ClockSpec(1.0)), t)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), rtol=0, atol=UNITARITY_TOL)

    @settings(max_examples=500)
    @given(any_time, any_frequency, st.sampled_from([single_photon_hamiltonian, global_hamiltonian]))
    def test_raises_or_is_unitary_over_the_whole_double_range(self, t, omega, hamiltonian):
        h = hamiltonian(ClockSpec(omega))
        inside = math.isfinite(t) and float(np.linalg.norm(h, np.inf)) * abs(t) <= MAX_NORM_TIME
        if not inside:
            with pytest.raises(ValueError, match="<= 1000"):
                propagator(h, t)
            return
        u = propagator(h, t)
        assert np.abs(u @ u.conj().T - np.eye(len(u))).max() <= UNITARITY_TOL

    def test_domain_edge(self):
        h = global_hamiltonian(ClockSpec(1.0))  # ||h||_inf = 2
        propagator(h, 500.0)
        for t in (np.nextafter(500.0, np.inf), -1e15, 1e300, np.nan, -np.inf):
            with pytest.raises(ValueError, match="finite t"):
                propagator(h, t)

    def test_two_photon_is_the_pair_rotation(self):
        # the pair generator is h1 x 1 + 1 x h1, so U(t) = kron(R, R) with R the closed rotation at
        # phase omega t; t runs to the domain edge at ||h||_inf = 2. Each phase lambda * t is off by
        # eigh's eigenvalue error 2 n u ||h|| and its own rounding u ||h|| |t|, and R's phase omega t
        # by u ||h|| |t| more: (2n + 2) u ||h||_inf |t| on top of UNITARITY_TOL
        spec = ClockSpec(1.0)
        h = global_hamiltonian(spec)
        n, norm = len(h), float(np.linalg.norm(h, np.inf))
        for t in np.linspace(0.0, MAX_NORM_TIME / norm, 2001):
            c, s = np.cos(spec.omega * t), np.sin(spec.omega * t)
            rotation = np.array([[c, s], [-s, c]])
            tol = UNITARITY_TOL + (2 * n + 2) * UNIT_ROUNDOFF * norm * t
            np.testing.assert_allclose(propagator(h, t), np.kron(rotation, rotation), rtol=0, atol=tol)


class TestIntertwinedConstraint:
    def test_zero_modes_have_tiny_residual(self):
        h = global_hamiltonian(ClockSpec(1.0))
        assert wd_residual(h, SINGLET) <= 1e-12
        assert wd_residual(h, EVEN_PAIR) <= 1e-12

    def test_product_basis_state_is_not_annihilated(self):
        # h|HV> = i|HH> - i|VV> at unit frequency, so the residual is sqrt(2).
        h = global_hamiltonian(ClockSpec(1.0))
        assert wd_residual(h, ket("HV")) == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            wd_residual(global_hamiltonian(ClockSpec(1.0)), ket("H"))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_operator_or_state_is_a_value_error(self, entry):
        # a NaN state used to give a nan residual
        h, state = global_hamiltonian(ClockSpec(1.0)), SINGLET.copy()
        state[1] = entry
        bad_h = h.copy()
        bad_h[0, 1] = entry
        for operator, psi in ((h, state), (bad_h, SINGLET)):
            with pytest.raises(ValueError, match="finite entries"):
                wd_residual(operator, psi)

    @given(st.floats(-300.0, 308.25))
    @example(200.0)
    @example(300.0)
    @example(308.25)
    def test_residual_over_log_uniform_frequencies(self, decade):
        # ClockSpec(1e200) and ClockSpec(1e300) used to overflow in the norm, with a RuntimeWarning;
        # past omega = sys.float_info.max / sqrt(2), about 10**308.1, the residual of |HV> is no double
        omega = 10.0**decade
        h = global_hamiltonian(ClockSpec(omega))
        expected = omega * math.sqrt(2.0)  # h|HV> = i omega |HH> - i omega |VV>
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for psi in (SINGLET, EVEN_PAIR):
                assert wd_residual(h, psi) <= omega * 1e-11
            if math.isinf(expected):
                with pytest.raises(ValueError, match=r"sys\.float_info\.max"):
                    wd_residual(h, ket("HV"))
            else:
                assert wd_residual(h, ket("HV")) == pytest.approx(expected, rel=1e-15)

    @given(
        st.floats(-3.0, 3.0),
        st.floats(-3.0, 3.0),
        st.floats(0.0, 2.0 * np.pi),
        frequencies,
    )
    def test_kernel_combinations_annihilated(self, a, b, phase, omega):
        psi = a * SINGLET + b * np.exp(1j * phase) * EVEN_PAIR
        norm = np.linalg.norm(psi)
        if norm < 1e-6:
            return
        psi = psi / norm
        h = global_hamiltonian(ClockSpec(omega))
        assert wd_residual(h, psi) <= omega * 1e-11


class TestProductState:
    def test_initial_condition(self):
        np.testing.assert_allclose(product_state_phase(0.0), ket("HV"), atol=1e-15)

    def test_quarter_period(self):
        np.testing.assert_allclose(
            product_state_phase(np.pi / 2), -ket("VH"), atol=1e-12
        )

    def test_amplitude_pattern_at_generic_phase(self):
        theta = 0.61
        s, c = np.sin(theta), np.cos(theta)
        expected = np.array([s * c, c * c, -s * s, -s * c], dtype=complex)
        np.testing.assert_allclose(product_state_phase(theta), expected, atol=1e-15)

    def test_vectorized_over_phase(self):
        thetas = np.linspace(0.0, 2.0 * np.pi, 17)
        batch = product_state_phase(thetas)
        assert batch.shape == (17, 4)
        for i, theta in enumerate(thetas):
            np.testing.assert_allclose(batch[i], product_state_phase(theta), atol=0)

    @given(times, frequencies)
    def test_unit_norm(self, t, omega):
        psi = product_state_phase(omega * t)
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12

    @given(times)
    def test_periodicity(self, theta):
        a = product_state_phase(theta)
        b = product_state_phase(theta + 2.0 * np.pi)
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_matches_two_photon_propagation_of_hv(self):
        spec = ClockSpec(1.4)
        h = global_hamiltonian(spec)
        rng = np.random.default_rng(11)
        for t in rng.uniform(0.0, 3.0 * 2.0 * np.pi / spec.omega, size=25):
            via_propagator = propagator(h, t) @ ket("HV")
            np.testing.assert_allclose(
                product_state_phase(spec.omega * t), via_propagator, atol=1e-12
            )
