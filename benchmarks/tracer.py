"""Span tracer for the benchmark's traced run.

Wraps the public functions listed in TRACED and rebinds each wrapper under
every name that holds the original in a ``photonclock`` module. Modules import
one another's functions by name (``photonclock.lgi.propagator`` and
``photonclock.dynamics.propagator`` are two bindings of one function), so
patching only the defining module would miss most calls.

Spans live in flat typed arrays while the workload runs (a traced lgi-scan
makes about 150k of them per op) and are written to disk once at the end.
The package source is never touched.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# layer -> public functions whose calls are timed; ``dof`` is reached only
# through ``report`` and does integer arithmetic, so it is not traced
TRACED = {
    "dynamics": ("propagator", "single_photon_hamiltonian", "product_state_phase", "wd_residual"),
    "measurement": ("born_probability", "luders_collapse", "joint_effect", "unsharp_effects"),
    "qstate": ("validate", "projector", "tensor_product", "trace_of_product"),
    "lgi": (
        "lgi_functional_engine",
        "lgi_value",
        "two_time_correlator",
        "joint_two_time_probability",
        "lgi_functional",
        "lgi_maximize",
    ),
    "conditional": ("conditional_probability", "stationary_state", "entanglement_advantage"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{layer}.{name}" for layer, names in TRACED.items() for name in names)
RETURNED = 0  # outcome code of a span whose call returned normally


class Tracer:
    """Records one span per call of a traced function: name, parent, op, times, outcome."""

    def __init__(self):
        self.fid = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.outcome = array("b")
        self.outcome_names = ["returned"]
        self.current_op = -1
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def _outcome_code(self, exc_type: type) -> int:
        name = exc_type.__name__
        if name not in self.outcome_names:
            self.outcome_names.append(name)
        return self.outcome_names.index(name)

    def _wrap(self, fid: int, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.fid)
            stack = tracer._stack
            tracer.fid.append(fid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.current_op)
            tracer.outcome.append(RETURNED)
            tracer.end_ns.append(0)
            stack.append(index)
            tracer.start_ns.append(time.perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tracer.outcome[index] = tracer._outcome_code(type(exc))
                raise
            finally:
                tracer.end_ns[index] = time.perf_counter_ns()
                stack.pop()

        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded photonclock module."""
        originals = {}
        for fid, span in enumerate(SPAN_NAMES):
            layer, name = span.split(".")
            fn = getattr(sys.modules[f"photonclock.{layer}"], name)
            originals[id(fn)] = (fn, self._wrap(fid, fn))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "photonclock" or module_name.startswith("photonclock.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebound.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "fid": np.array(self.fid, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "start_ns": np.array(self.start_ns, dtype=np.int64),
            "end_ns": np.array(self.end_ns, dtype=np.int64),
            "outcome": np.array(self.outcome, dtype=np.int8),
        }

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(SPAN_NAMES),
            outcome_names=np.array(self.outcome_names),
            **self.arrays(),
        )


def span_summary(spans: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-function call counts and self time in seconds.

    Self time is a span's duration minus the durations of its direct child
    spans; calls are sequential on one thread, so children never overlap.
    """
    duration = (spans["end_ns"] - spans["start_ns"]).astype(float)
    parent = spans["parent"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=duration.shape[0])
    self_s = (duration - child_time) / 1e9
    k = len(SPAN_NAMES)
    calls = np.bincount(spans["fid"], minlength=k)
    self_total = np.bincount(spans["fid"], weights=self_s, minlength=k)
    return calls, self_total
