"""State/operator helpers: basis conventions, tensor products, validation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from photonclock.qstate import (
    Subsystem,
    ket,
    projector,
    tensor_product,
    trace_of_product,
    validate,
)

RNG_AMPLITUDE = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=8.0, allow_nan=False, allow_infinity=False
)


def _normalize(v):
    v = np.asarray(v, dtype=complex)
    return v / np.linalg.norm(v)


def state_vectors(dim):
    return (
        st.lists(RNG_AMPLITUDE, min_size=dim, max_size=dim)
        .map(lambda xs: np.asarray(xs, dtype=complex))
        .filter(lambda v: np.linalg.norm(v) > 1e-3)
        .map(_normalize)
    )


def hermitian_matrices(dim):
    return (
        st.lists(RNG_AMPLITUDE, min_size=dim * dim, max_size=dim * dim)
        .map(lambda xs: np.asarray(xs, dtype=complex).reshape(dim, dim))
        .map(lambda m: (m + m.conj().T) / 2.0)
    )


def density_matrices(dim):
    return st.tuples(
        state_vectors(dim), state_vectors(dim), st.floats(0.0, 1.0)
    ).map(lambda t: t[2] * projector(t[0]) + (1.0 - t[2]) * projector(t[1]))


class TestBasisConventions:
    def test_subsystem_members(self):
        assert {Subsystem.CLOCK, Subsystem.SYSTEM} == set(Subsystem)

    def test_single_photon_kets(self):
        np.testing.assert_array_equal(ket("H"), np.array([1, 0], dtype=complex))
        np.testing.assert_array_equal(ket("V"), np.array([0, 1], dtype=complex))

    def test_pair_kets_clock_factor_first(self):
        # |HV> must sit at index 1: clock slot is the leading tensor factor.
        np.testing.assert_array_equal(ket("HV"), np.eye(4, dtype=complex)[1])
        np.testing.assert_array_equal(ket("VH"), np.eye(4, dtype=complex)[2])

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            ket("X")
        with pytest.raises(ValueError):
            ket("HVH")


class TestTensorProduct:
    def test_vector_example(self):
        out = tensor_product(ket("H"), ket("V"))
        np.testing.assert_array_equal(out, ket("HV"))

    def test_matrix_example(self):
        out = tensor_product(np.eye(2, dtype=complex), np.eye(2, dtype=complex))
        np.testing.assert_array_equal(out, np.eye(4, dtype=complex))

    def test_superposition_factor(self):
        plus = _normalize([1, 1])
        out = tensor_product(plus, ket("H"))
        expected = np.array([1, 0, 1, 0], dtype=complex) / np.sqrt(2)
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ValueError):
            tensor_product(ket("H"), np.eye(2, dtype=complex))

    @given(state_vectors(2), state_vectors(2))
    def test_norm_multiplies(self, a, b):
        out = tensor_product(a, b)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12

    @given(state_vectors(2), state_vectors(2), RNG_AMPLITUDE)
    def test_bilinear_in_first_factor(self, a, b, z):
        lhs = tensor_product(z * a, b)
        rhs = z * tensor_product(a, b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestTraceOfProduct:
    def test_identity_against_density(self):
        rho = projector(_normalize([1, 2j, 0, -1]))
        assert trace_of_product(np.eye(4, dtype=complex), rho) == pytest.approx(
            1.0, abs=1e-14
        )

    def test_projector_overlap(self):
        singlet = _normalize([0, 1, -1, 0])
        p = trace_of_product(projector(ket("HV")), projector(singlet))
        assert p == pytest.approx(0.5, abs=1e-14)

    @given(hermitian_matrices(4), density_matrices(4))
    def test_hermitian_expectation_is_real(self, a, rho):
        raw = np.trace(a @ rho)
        assert abs(raw.imag) <= 1e-10
        assert trace_of_product(a, rho) == pytest.approx(raw.real, abs=1e-10)

    @given(state_vectors(4), density_matrices(4))
    def test_projector_expectation_in_unit_interval(self, psi, rho):
        p = trace_of_product(projector(psi), rho)
        assert abs(p.imag) <= 1e-10
        assert -1e-10 <= p.real <= 1.0 + 1e-10

    @given(hermitian_matrices(4), density_matrices(4), st.permutations(list(range(4))))
    def test_invariant_under_consistent_basis_permutation(self, a, rho, perm):
        p = np.asarray(perm)
        lhs = trace_of_product(a, rho)
        rhs = trace_of_product(a[np.ix_(p, p)], rho[np.ix_(p, p)])
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestValidate:
    def test_unit_norm_pass_and_fail(self):
        ok = validate(_normalize([1, 1j]), "unit-norm")
        assert ok.ok and ok.violation <= 1e-15
        bad = validate(np.array([1.0, 1.0], dtype=complex), "unit-norm")
        assert not bad.ok
        # violation is reported in squared-norm units: |2 - 1|
        assert bad.violation == pytest.approx(1.0, abs=1e-12)

    def test_hermitian(self):
        assert validate(np.array([[0, 1j], [-1j, 0]]), "hermitian").ok
        res = validate(np.array([[0, 1], [0, 0]], dtype=complex), "hermitian")
        assert not res.ok and res.violation > 0.5

    def test_trace_one(self):
        assert validate(projector(ket("H")), "trace-one").ok
        res = validate(np.diag([1.0, 0.5]).astype(complex), "trace-one")
        assert not res.ok
        assert res.violation == pytest.approx(0.5, abs=1e-14)

    def test_psd(self):
        assert validate(projector(_normalize([1, -1j])), "psd").ok
        assert not validate(np.diag([1.0, -0.2]).astype(complex), "psd").ok

    def test_effect(self):
        assert validate(np.diag([0.9, 0.25]).astype(complex), "effect").ok
        assert not validate(np.diag([1.2, 0.0]).astype(complex), "effect").ok
        assert not validate(np.diag([-0.1, 0.5]).astype(complex), "effect").ok

    def test_unknown_predicate_rejected(self):
        with pytest.raises(ValueError):
            validate(np.eye(2), "positive-vibes")

    @given(density_matrices(4))
    def test_mixtures_are_valid_densities(self, rho):
        assert validate(rho, "hermitian").ok
        assert validate(rho, "trace-one").ok
        assert validate(rho, "psd").ok
