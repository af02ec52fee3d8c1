"""Two-photon polarization clock toolkit.

A stationary entangled photon pair can serve as its own clock: conditioning
the system photon on the clock photon's polarization recovers unitary
dynamics even though the pair as a whole never changes. This package builds
the two-level machinery for that construction, the sequential statistics
behind the Leggett-Garg violation of the clock photon, the sharp and unsharp
conditional probabilities that separate the entangled preparation from the
un-entangled one, and the bookkeeping for graviton polarization counts.

All functions are pure and never mutate their inputs.
"""

from .conditional import (
    ConditionalQuery,
    Formalism,
    MeasurementKind,
    StateKind,
    conditional_probability,
    entanglement_advantage,
    stationary_state,
)
from .dof import Spin, massive_graviton_dof, massless_graviton_dof, spin_multiplicity
from .dynamics import (
    ClockSpec,
    global_hamiltonian,
    propagator,
    single_photon_hamiltonian,
    wd_residual,
)
from .errors import DegenerateConditioningError, NullCollapseError, NumericalIntegrityError
from .lgi import (
    InitialCondition,
    LgiSchedule,
    joint_two_time_probability,
    lgi_functional,
    lgi_functional_engine,
    lgi_maximize,
    lgi_value,
    two_time_correlator,
    violates_classical_bound,
)
from .measurement import (
    Outcome,
    SharpnessPair,
    born_probability,
    joint_effect,
    luders_collapse,
    unsharp_effects,
)

__version__ = "0.1.0"

__all__ = [
    "ClockSpec",
    "ConditionalQuery",
    "DegenerateConditioningError",
    "Formalism",
    "InitialCondition",
    "LgiSchedule",
    "MeasurementKind",
    "NullCollapseError",
    "NumericalIntegrityError",
    "Outcome",
    "SharpnessPair",
    "Spin",
    "StateKind",
    "born_probability",
    "conditional_probability",
    "entanglement_advantage",
    "global_hamiltonian",
    "joint_effect",
    "joint_two_time_probability",
    "lgi_functional",
    "lgi_functional_engine",
    "lgi_maximize",
    "lgi_value",
    "luders_collapse",
    "massive_graviton_dof",
    "massless_graviton_dof",
    "propagator",
    "single_photon_hamiltonian",
    "spin_multiplicity",
    "stationary_state",
    "two_time_correlator",
    "unsharp_effects",
    "violates_classical_bound",
    "wd_residual",
]
