"""Sharp and smeared polarization measurements, Born rule, collapse."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from photonclock import NumericalIntegrityError, Outcome, SharpnessPair, joint_effect, unsharp_effects
from photonclock.errors import NullCollapseError
from photonclock.measurement import born_probability, dichotomic_observable, luders_collapse
from photonclock.qstate import ATOL, Subsystem, ket, projector, tensor_product, validate

sharpness = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
SINGLET = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)


def _normalize(v):
    v = np.asarray(v, dtype=complex)
    return v / np.linalg.norm(v)


class TestObservable:
    def test_single_photon_matrix(self):
        np.testing.assert_array_equal(dichotomic_observable(), np.diag([1.0, -1.0]))

    def test_square_is_identity(self):
        q = dichotomic_observable()
        np.testing.assert_array_equal(q @ q, np.eye(2))

    def test_clock_embedding(self):
        q = dichotomic_observable(Subsystem.CLOCK)
        np.testing.assert_array_equal(q, np.diag([1.0, 1.0, -1.0, -1.0]))

    def test_system_embedding(self):
        q = dichotomic_observable(Subsystem.SYSTEM)
        np.testing.assert_array_equal(q, np.diag([1.0, -1.0, 1.0, -1.0]))


class TestOutcome:
    def test_dichotomic_values(self):
        assert Outcome.H.value == +1
        assert Outcome.V.value == -1

    def test_basis_index(self):
        assert Outcome.H.index == 0
        assert Outcome.V.index == 1


class TestSharpnessPair:
    def test_range_enforced(self):
        for bad in (-0.1, 1.1, np.nan, [0.2, np.nan], np.array([0.0, 1.0 + 1e-15]), [[0.5], [-0.1]]):
            with pytest.raises(ValueError):
                SharpnessPair(bad, 0.5)
            with pytest.raises(ValueError):
                SharpnessPair(0.5, bad)

    def test_endpoints_allowed(self):
        SharpnessPair(0.0, 1.0)
        SharpnessPair(np.array([0.0, 1.0]), np.array([1.0, 0.0]))

    def test_shapes_must_broadcast(self):
        with pytest.raises(ValueError, match=r"lambda_c shape \(3,\) and lambda_r shape \(2,\)"):
            SharpnessPair(np.full(3, 0.5), np.full(2, 0.5))
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2,\)"):
            SharpnessPair(np.full((2, 3), 0.5), [0.1, 0.2])
        SharpnessPair(np.full((3, 1), 0.5), np.full(4, 0.5))
        SharpnessPair(0.5, np.full((2, 2), 0.5))


class TestUnsharpEffects:
    def test_sharp_limit_gives_projectors(self):
        f_plus, f_minus = unsharp_effects(1.0)
        np.testing.assert_allclose(f_plus, projector(ket("H")), atol=1e-15)
        np.testing.assert_allclose(f_minus, projector(ket("V")), atol=1e-15)

    def test_fully_smeared_limit(self):
        f_plus, f_minus = unsharp_effects(0.0)
        np.testing.assert_allclose(f_plus, np.eye(2) / 2, atol=1e-15)
        np.testing.assert_allclose(f_minus, np.eye(2) / 2, atol=1e-15)

    def test_intermediate_diagonal(self):
        f_plus, f_minus = unsharp_effects(0.6)
        np.testing.assert_allclose(f_plus, np.diag([0.8, 0.2]), atol=1e-15)
        np.testing.assert_allclose(f_minus, np.diag([0.2, 0.8]), atol=1e-15)

    def test_rejects_out_of_range(self):
        for bad in (-0.01, 1.01, np.nan):
            with pytest.raises(ValueError):
                unsharp_effects(bad)

    @given(sharpness)
    def test_pair_resolves_identity(self, lam):
        f_plus, f_minus = unsharp_effects(lam)
        np.testing.assert_allclose(f_plus + f_minus, np.eye(2), atol=1e-15)


# any double, or an array of sharpnesses that SharpnessPair accepts
any_sharpness = st.floats() | hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=3), elements=sharpness
)


class TestEffectDomain:
    """Both effect builders take a scalar in [0, 1] and refuse anything else with a ValueError."""

    @given(any_sharpness, sharpness, st.sampled_from(Outcome), st.sampled_from(Outcome))
    @example(lam=np.array([0.5]), other=0.5, outcome_c=Outcome.H, outcome_r=Outcome.H)
    @example(lam=np.array([0.5, 0.2]), other=0.5, outcome_c=Outcome.H, outcome_r=Outcome.V)
    @example(lam=np.nan, other=0.5, outcome_c=Outcome.V, outcome_r=Outcome.H)
    def test_a_scalar_in_range_or_a_value_error(self, lam, other, outcome_c, outcome_r):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if np.ndim(lam) != 0:
                scalar_only = r"^sharpness must be a scalar in \[0, 1\], not an array of shape "
                with pytest.raises(ValueError, match=scalar_only):
                    unsharp_effects(lam)
                for pair in (SharpnessPair(lam, other), SharpnessPair(other, lam)):
                    with pytest.raises(ValueError, match=scalar_only):
                        joint_effect(pair, outcome_c, outcome_r)
            elif not 0.0 <= lam <= 1.0:
                with pytest.raises(ValueError, match=r"^sharpness must lie in \[0, 1\]$"):
                    unsharp_effects(lam)
            else:
                assert all(validate(effect, "effect").ok for effect in unsharp_effects(lam))
                assert validate(joint_effect(SharpnessPair(lam, other), outcome_c, outcome_r), "effect").ok


class TestJointEffect:
    def test_sharp_pair_is_rank_one_projector(self):
        pair = SharpnessPair(1.0, 1.0)
        eff = joint_effect(pair, Outcome.H, Outcome.V)
        np.testing.assert_allclose(eff, projector(ket("HV")), atol=1e-15)

    def test_fully_smeared_pair(self):
        eff = joint_effect(SharpnessPair(0.0, 0.0), Outcome.V, Outcome.H)
        np.testing.assert_allclose(eff, np.eye(4) / 4, atol=1e-15)

    def test_frozen_diagonal_example(self):
        # (1 + 0.8)/2 * (1 - 0.5)/2 and friends, clock factor leading.
        eff = joint_effect(SharpnessPair(0.8, 0.5), Outcome.H, Outcome.V)
        np.testing.assert_allclose(
            np.diag(eff).real, [0.225, 0.675, 0.025, 0.075], atol=1e-15
        )
        np.testing.assert_allclose(eff, np.diag(np.diag(eff)), atol=1e-15)

    def test_factorizes_as_tensor_product(self):
        pair = SharpnessPair(0.3, 0.9)
        left = unsharp_effects(0.3)[1]
        right = unsharp_effects(0.9)[0]
        np.testing.assert_allclose(
            joint_effect(pair, Outcome.V, Outcome.H),
            tensor_product(left, right),
            atol=1e-15,
        )

    @given(sharpness, sharpness)
    def test_four_outcomes_resolve_identity(self, lc, lr):
        pair = SharpnessPair(lc, lr)
        total = sum(
            joint_effect(pair, oc, orr)
            for oc in (Outcome.H, Outcome.V)
            for orr in (Outcome.H, Outcome.V)
        )
        assert np.max(np.abs(total - np.eye(4))) <= 1e-15

    @given(sharpness, sharpness)
    def test_effects_are_valid(self, lc, lr):
        pair = SharpnessPair(lc, lr)
        for oc in (Outcome.H, Outcome.V):
            for orr in (Outcome.H, Outcome.V):
                eff = joint_effect(pair, oc, orr)
                np.testing.assert_allclose(eff, eff.conj().T, atol=1e-15)
                evals = np.linalg.eigvalsh(eff)
                assert evals.min() >= -1e-12
                assert evals.max() <= 1.0 + 1e-12


class TestBornProbability:
    def test_projective_example(self):
        rho = projector(ket("H"))
        f_plus, f_minus = unsharp_effects(1.0)
        assert born_probability(rho, f_plus) == 1.0
        assert born_probability(rho, f_minus) == 0.0

    def test_smeared_on_maximally_mixed(self):
        rho = np.eye(2, dtype=complex) / 2
        f_plus, _ = unsharp_effects(0.7)
        assert born_probability(rho, f_plus) == pytest.approx(0.5, abs=1e-15)

    def test_joint_on_entangled_state(self):
        rho = projector(SINGLET)
        eff = joint_effect(SharpnessPair(0.8, 0.5), Outcome.H, Outcome.V)
        assert born_probability(rho, eff) == pytest.approx(
            (1 + 0.4) / 4, abs=1e-14
        )

    def test_rejects_invalid_effect(self):
        rho = projector(ket("H"))
        with pytest.raises(ValueError):
            born_probability(rho, np.diag([1.5, 0.0]).astype(complex))

    def test_small_overshoot_clamped(self):
        rho = (1.0 + 5e-13) * projector(ket("H"))
        p = born_probability(rho, np.eye(2, dtype=complex))
        assert p == 1.0

    def test_large_overshoot_flagged(self):
        rho = 1.001 * projector(ket("H"))
        with pytest.raises(NumericalIntegrityError):
            born_probability(rho, np.eye(2, dtype=complex))

    def test_large_undershoot_flagged(self):
        rho = -0.001 * projector(ket("H"))
        with pytest.raises(NumericalIntegrityError):
            born_probability(rho, projector(ket("H")))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 0.0)])
    def test_non_finite_state_is_a_value_error(self, entry):
        corrupted = np.eye(2, dtype=complex) / 2
        corrupted[1, 1] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rho in (np.full((2, 2), entry), corrupted):
                with pytest.raises(ValueError, match="state must have finite entries"):
                    born_probability(rho, np.eye(2) / 2)
            # luders_collapse used to leak a RuntimeWarning on an infinite state and accept a NaN projector
            for name, state, proj in (("state", corrupted[1], projector(ket("V"))), ("projector", ket("H"), corrupted)):
                with pytest.raises(ValueError, match=f"^{name} must have finite entries$"):
                    luders_collapse(state, proj)

    @given(sharpness, sharpness, st.floats(0.0, 2.0 * np.pi))
    def test_outcome_probabilities_sum_to_one(self, lc, lr, theta):
        psi = _normalize(
            [np.cos(theta), 0.5j, np.sin(theta), -0.25]
        )
        rho = projector(psi)
        pair = SharpnessPair(lc, lr)
        total = sum(
            born_probability(rho, joint_effect(pair, oc, orr))
            for oc in (Outcome.H, Outcome.V)
            for orr in (Outcome.H, Outcome.V)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


class TestLudersCollapse:
    def test_aligned_state_untouched(self):
        post, p = luders_collapse(ket("H"), projector(ket("H")))
        assert p == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(post, ket("H"), atol=1e-15)

    def test_rotated_state_projects_with_sine_weight(self):
        theta = 0.42
        psi = np.array([np.cos(theta), -np.sin(theta)], dtype=complex)
        post, p = luders_collapse(psi, projector(ket("V")))
        assert p == pytest.approx(np.sin(theta) ** 2, abs=1e-14)
        np.testing.assert_allclose(np.abs(post), np.abs(ket("V")), atol=1e-14)

    def test_entangled_state_steers_partner(self):
        proj_clock_h = tensor_product(
            projector(ket("H")), np.eye(2, dtype=complex)
        )
        post, p = luders_collapse(SINGLET, proj_clock_h)
        assert p == pytest.approx(0.5, abs=1e-14)
        np.testing.assert_allclose(post, ket("HV"), atol=1e-14)

    def test_null_branch_raises(self):
        with pytest.raises(NullCollapseError):
            luders_collapse(ket("H"), projector(ket("V")))

    def test_rejects_non_projector(self):
        f_plus, _ = unsharp_effects(0.5)
        with pytest.raises(ValueError):
            luders_collapse(ket("H"), f_plus)

    @given(
        st.lists(st.complex_numbers(), min_size=2, max_size=2),
        st.one_of(st.sampled_from([projector(ket("H")), np.eye(2)]), st.lists(st.floats(), min_size=4, max_size=4)),
    )
    @example([1e200, 0.0], np.eye(2))  # |state|^2 overflows
    @example([1.0, 0.0], [1.0, 0.0, 0.0, float("nan")])
    @example([0.6, 0.8j], np.eye(2))
    def test_every_double_collapses_or_names_its_bound(self, state, proj):
        proj = np.reshape(proj, (2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                post, p = luders_collapse(state, proj)
            except NullCollapseError:
                return
            except ValueError as exc:
                assert re.search(r"finite entries|unit-norm|idempotent Hermitian projector", str(exc))
                return
        # a unit-norm state under a projector to ATOL: p passes 1 by a few ATOL at most
        assert np.isfinite(post).all() and 0.0 <= p <= 1.0 + 10 * ATOL
        assert np.linalg.norm(post) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e150, 1e-150, 0.0, 1.0 + 1e-12, 1.0 - 1e-12])
    def test_a_state_off_unit_norm_is_refused(self, scale):
        # luders_collapse([1e150, 0], P_H) used to return p = 1e300
        state = scale * ket("H")
        assert not validate(state, "unit-norm").ok
        with pytest.raises(ValueError, match=r"^state must be unit-norm: .* is past ATOL = 1e-12$"):
            luders_collapse(state, projector(ket("H")))

    @pytest.mark.parametrize("scale", [1.0 + 4e-13, 1.0 - 4e-13])
    def test_a_state_within_atol_of_unit_norm_collapses(self, scale):
        post, p = luders_collapse(scale * ket("H"), projector(ket("H")))
        assert p == scale * scale
        np.testing.assert_array_equal(post, ket("H"))

    @given(st.floats(0.05, np.pi / 2 - 0.05))
    def test_collapse_is_idempotent(self, theta):
        psi = np.array([np.cos(theta), np.sin(theta)], dtype=complex)
        proj = projector(ket("H"))
        once, p1 = luders_collapse(psi, proj)
        twice, p2 = luders_collapse(once, proj)
        assert p2 == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(once, twice, atol=1e-12)
