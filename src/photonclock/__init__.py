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
    QuadratureSpec,
    StateKind,
    conditional_probability,
    entanglement_advantage,
    period_average,
    stationary_state,
)
from .dof import Spin, massive_graviton_dof, massless_graviton_dof, spin_multiplicity
from .dynamics import (
    HBAR,
    ClockSpec,
    global_hamiltonian,
    product_state_at,
    product_state_phase,
    propagator,
    single_photon_hamiltonian,
    wd_residual,
)
from .errors import DegenerateConditioningError, NullCollapseError, NumericalIntegrityError
from .lgi import (
    CLASSICAL_BOUND,
    InitialCondition,
    LgiSchedule,
    joint_two_time_probability,
    lgi_functional,
    lgi_functional_engine,
    lgi_maximize,
    lgi_value,
    single_time_probability,
    two_time_correlator,
    violates_classical_bound,
)
from .measurement import (
    SHARP,
    Outcome,
    SharpnessPair,
    born_probability,
    dichotomic_observable,
    joint_effect,
    luders_collapse,
    unsharp_effects,
)
from .qstate import (
    PAIR_BASIS,
    SINGLE_BASIS,
    Subsystem,
    ket,
    projector,
    states_equal_up_to_phase,
    tensor_product,
    trace_of_product,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "CLASSICAL_BOUND",
    "ClockSpec",
    "ConditionalQuery",
    "DegenerateConditioningError",
    "Formalism",
    "HBAR",
    "InitialCondition",
    "LgiSchedule",
    "MeasurementKind",
    "NullCollapseError",
    "NumericalIntegrityError",
    "Outcome",
    "PAIR_BASIS",
    "QuadratureSpec",
    "SHARP",
    "SINGLE_BASIS",
    "SharpnessPair",
    "Spin",
    "StateKind",
    "Subsystem",
    "born_probability",
    "conditional_probability",
    "dichotomic_observable",
    "entanglement_advantage",
    "global_hamiltonian",
    "joint_effect",
    "joint_two_time_probability",
    "ket",
    "lgi_functional",
    "lgi_functional_engine",
    "lgi_maximize",
    "lgi_value",
    "luders_collapse",
    "massive_graviton_dof",
    "massless_graviton_dof",
    "period_average",
    "product_state_at",
    "product_state_phase",
    "projector",
    "propagator",
    "single_photon_hamiltonian",
    "single_time_probability",
    "spin_multiplicity",
    "states_equal_up_to_phase",
    "stationary_state",
    "tensor_product",
    "trace_of_product",
    "two_time_correlator",
    "unsharp_effects",
    "validate",
    "violates_classical_bound",
    "wd_residual",
]
