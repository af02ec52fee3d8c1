"""Counting physical polarizations of a spin-two field, and spin multiplicities."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from photonclock import (
    Spin,
    massive_graviton_dof,
    massless_graviton_dof,
    spin_multiplicity,
)

dims = st.integers(min_value=3, max_value=64)


class TestGravitonCounting:
    def test_four_dimensions(self):
        assert massless_graviton_dof(4) == 2
        assert massive_graviton_dof(4) == 5

    def test_three_dimensions(self):
        assert massless_graviton_dof(3) == 0
        assert massive_graviton_dof(3) == 2

    def test_five_dimensions(self):
        assert massless_graviton_dof(5) == 5
        assert massive_graviton_dof(5) == 9

    def test_ten_dimensions(self):
        assert massless_graviton_dof(10) == 35
        assert massive_graviton_dof(10) == 44

    def test_low_dimensions_rejected(self):
        for d in (2, 1, 0, -4):
            with pytest.raises(ValueError):
                massless_graviton_dof(d)
            with pytest.raises(ValueError):
                massive_graviton_dof(d)

    def test_non_integer_rejected(self):
        for bad in (4.0, "4"):
            with pytest.raises(ValueError):
                massless_graviton_dof(bad)
            with pytest.raises(ValueError):
                massive_graviton_dof(bad)

    @given(dims)
    def test_counts_are_integers(self, d):
        assert isinstance(massless_graviton_dof(d), int)
        assert isinstance(massive_graviton_dof(d), int)

    @given(dims)
    def test_mass_gap_in_count(self, d):
        # a mass term always adds exactly D - 1 polarizations
        assert massive_graviton_dof(d) - massless_graviton_dof(d) == d - 1

    @given(dims)
    def test_monotone_in_dimension(self, d):
        assert massless_graviton_dof(d + 1) > massless_graviton_dof(d)
        assert massive_graviton_dof(d + 1) > massive_graviton_dof(d)


class TestSpin:
    def test_half_integer_storage_is_exact(self):
        assert Spin(1).twice_j == 1
        assert Spin.from_j(0.5) == Spin(1)
        assert Spin.from_j(2) == Spin(4)

    def test_rejects_negative_or_fractional(self):
        with pytest.raises(ValueError):
            Spin(-1)
        with pytest.raises(ValueError):
            Spin(1.5)
        with pytest.raises(ValueError):
            Spin.from_j(0.3)

    @pytest.mark.parametrize("j", [math.inf, -math.inf, math.nan, -1, -0.5, -1e-3, 0.3, 1.25, 1e308])
    def test_outside_the_domain_is_a_value_error_that_names_it(self, j):
        with pytest.raises(ValueError, match="j must be a finite nonnegative integer or half-integer"):
            Spin.from_j(j)

    @given(st.floats())
    def test_any_float_is_a_spin_within_1e_12_or_a_value_error(self, j):
        try:
            spin = Spin.from_j(j)
        except ValueError as exc:
            assert "finite nonnegative integer or half-integer" in str(exc)
        else:
            assert abs(2.0 * j - spin.twice_j) <= 1e-12

    def test_multiplicities(self):
        assert spin_multiplicity(Spin.from_j(0.5)) == 2
        assert spin_multiplicity(Spin.from_j(1)) == 3
        assert spin_multiplicity(Spin.from_j(2)) == 5

    def test_massive_spin_two_in_four_dimensions_matches_multiplicity(self):
        assert massive_graviton_dof(4) == spin_multiplicity(Spin.from_j(2))

    @given(st.integers(min_value=0, max_value=200))
    def test_multiplicity_formula(self, twice_j):
        assert spin_multiplicity(Spin(twice_j)) == twice_j + 1
