"""Propagating degrees of freedom of the graviton, and spin multiplicities."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Spin:
    """A spin stored as the integer 2j, so half-integers stay exact."""

    twice_j: int

    def __post_init__(self):
        if not (type(self.twice_j) is int and self.twice_j >= 0):  # a bool is refused
            raise ValueError("twice_j must be a nonnegative integer")

    @classmethod
    def from_j(cls, j: float) -> "Spin":
        """The spin j, within 1e-12 of a nonnegative integer or half-integer; any other
        number, a bool, an infinity or NaN included, raises ValueError, and a non-number
        such as "1" is the caller's error and raises TypeError."""
        twice = 2.0 * j
        # isfinite first: round raises OverflowError on an infinity and its own message on NaN
        inside = math.isfinite(twice) and abs(twice - round(twice)) <= 1e-12 and round(twice) >= 0
        if isinstance(j, bool) or not inside:
            raise ValueError(f"j must be a finite nonnegative integer or half-integer, not {j!r}")
        return cls(round(twice))


def _check_dim(dim: int) -> int:
    if not (isinstance(dim, int) and dim >= 3):
        raise ValueError("spacetime dimension must be an integer >= 3")
    return dim


def massless_graviton_dof(dim: int) -> int:
    """D(D-3)/2 transverse traceless polarizations; 2 in four dimensions. Domain: an int
    D >= 3, exact at any size; anything else, a float or a numpy integer too, raises ValueError."""
    d = _check_dim(dim)
    return d * (d - 3) // 2


def massive_graviton_dof(dim: int) -> int:
    """D(D-1)/2 - 1 components of a massive spin-2 field; 5 in four dimensions.
    Domain: as massless_graviton_dof's, an int D >= 3; anything else raises ValueError."""
    d = _check_dim(dim)
    return d * (d - 1) // 2 - 1


def spin_multiplicity(spin: Spin) -> int:
    """2j + 1 magnetic sublevels. Domain: any Spin, whose twice_j is a nonnegative int; any
    other type is the caller's error and raises TypeError or AttributeError."""
    return spin.twice_j + 1
