"""The package as a whole: its public names, and how the test configuration reports a failure."""

import importlib
import re
import subprocess
import sys
from pathlib import Path

import photonclock

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PUBLIC = {
    "ClockSpec",
    "ConditionalQuery",
    "DegenerateConditioningError",
    "Formalism",
    "InitialCondition",
    "LgiSchedule",
    "MeasurementKind",
    "NumericalIntegrityError",
    "Outcome",
    "SharpnessPair",
    "Spin",
    "StateKind",
    "conditional_probability",
    "entanglement_advantage",
    "global_hamiltonian",
    "joint_effect",
    "joint_two_time_probability",
    "lgi_functional",
    "lgi_functional_engine",
    "lgi_maximize",
    "lgi_value",
    "massive_graviton_dof",
    "massless_graviton_dof",
    "single_photon_hamiltonian",
    "spin_multiplicity",
    "stationary_state",
    "two_time_correlator",
    "unsharp_effects",
    "violates_classical_bound",
    "wd_residual",
}

# the sequential oracle chain, reached at its module path (where benchmarks/tracer.py looks it up)
CHAIN = {
    "propagator": "dynamics",
    "luders_collapse": "measurement",
    "born_probability": "measurement",
    "NullCollapseError": "errors",
}


def test_the_public_names_are_these_30_and_the_chain_is_at_its_module_path():
    assert len(photonclock.__all__) == len(set(photonclock.__all__)) == 30
    assert set(photonclock.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(photonclock, name)
    for name, layer in CHAIN.items():
        assert name not in photonclock.__all__ and not hasattr(photonclock, name)
        assert callable(getattr(importlib.import_module(f"photonclock.{layer}"), name))


PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_is_reported_not_an_internal_error(tmp_path):
    # Hypothesis' failure report can raise a warning of its own, which "error" would turn into
    # an INTERNALERROR that ends the run; every test must still be run and reported
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output, output
    assert run.returncode == 1, output
    assert re.search(r"\b1 failed, 1 passed\b", output), output
