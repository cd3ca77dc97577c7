"""Spans recorded from outside ghzmeter, around its public functions.

The traced run replaces each binding in LAYERS by a wrapper that records a
span (layer, start, end, parent span, op id) while an op is open.  Spans
live in compact arrays in memory and are written out once, when the run
ends.  A binding that a later commit removes is skipped, so its layer
reports zero calls.
"""

import importlib
import time
from array import array

import numpy as np

OP_LAYER = "bench"

# Each layer is a package module; its bindings are the ghzmeter exports plus
# the same names as bound in the modules that call them.
LAYERS = {
    "states.build": [
        ("ghzmeter", "QuantumState"),
        ("ghzmeter", "AcinParams"),
        ("ghzmeter", "make_acin"),
        ("ghzmeter.states", "AcinParams"),
        ("ghzmeter.states", "make_acin"),
    ],
    "states.load": [("ghzmeter", "load_state"), ("ghzmeter.states", "load_state")],
    "linalg.frame": [
        ("ghzmeter", "OrthoFrame"),
        ("ghzmeter.cli", "OrthoFrame"),
        ("ghzmeter", "frame_from_angles"),
        ("ghzmeter.optimize", "frame_from_angles"),
    ],
    "correlators.tensor": [("ghzmeter", "pauli_tensor"), ("ghzmeter.optimize", "pauli_tensor")],
    "correlators.contract": [
        ("ghzmeter", "correlators_from_tensor"),
        ("ghzmeter.optimize", "correlators_from_tensor"),
    ],
    "correlators.quad": [
        ("ghzmeter", "build_quad"),
        ("ghzmeter", "expectations"),
        ("ghzmeter.functional", "build_quad"),
        ("ghzmeter.functional", "expectations"),
        ("ghzmeter.cli", "build_quad"),
        ("ghzmeter.cli", "expectations"),
    ],
    "functional.eval": [("ghzmeter", "eval_I"), ("ghzmeter", "mermin_M3")],
    "functional.qudit": [("ghzmeter", "eval_Id"), ("ghzmeter", "QuditGenPair")],
    "optimize.search": [("ghzmeter", "maximize_I")],
    # scipy's minimize is the search's local step: one call per restart
    "optimize.local": [("ghzmeter.optimize", "minimize")],
    "cli.main": [("ghzmeter.cli", "main")],
}


class Tracer:
    def __init__(self):
        self.names = [OP_LAYER, *LAYERS]
        self.layer = array("h")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = []
        self._op_id = -1

    def _enter(self, layer):
        idx = len(self.layer)
        self.layer.append(layer)
        self.parent.append(self._open[-1] if self._open else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _exit(self, idx):
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def wrap(self, layer, fn):
        layer_id = self.names.index(layer)

        def traced(*args, **kwargs):
            if not self._open:  # outside an op: warm-up and checks stay unrecorded
                return fn(*args, **kwargs)
            idx = self._enter(layer_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every binding in LAYERS that exists."""
        for layer, bindings in LAYERS.items():
            for module_name, attr in bindings:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is not None:
                    setattr(module, attr, self.wrap(layer, fn))

    def run_op(self, op_id, fn):
        """Call fn() as op op_id, inside a root span of layer OP_LAYER."""
        self._op_id = op_id
        idx = self._enter(0)
        try:
            return fn()
        finally:
            self._exit(idx)

    def arrays(self):
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(parent, start, end):
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest strictly, so children of one span
    never overlap and the covered time is the sum of their durations.
    """
    duration = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=len(duration))
    return duration - covered


def layer_summary(names, layer, parent, start, end, ops):
    """Per-layer calls and self seconds, both per op, plus objective evaluations per op."""
    own = self_times(parent, start, end)
    calls = np.bincount(layer, minlength=len(names))
    busy = np.bincount(layer, weights=own, minlength=len(names))
    ops = max(ops, 1)
    out = {}
    for i, name in enumerate(names):
        if name != OP_LAYER:  # one op span per op
            out[f"{name}.calls"] = calls[i] / ops
        out[f"{name}.self_s"] = busy[i] / ops
    # one objective evaluation is one contraction made directly by a local search
    contract = layer == names.index("correlators.contract")
    under_local = np.zeros(len(layer), dtype=bool)
    under_local[parent >= 0] = layer[parent[parent >= 0]] == names.index("optimize.local")
    out["optimize.objective_per_op"] = int(np.sum(contract & under_local)) / ops
    out["trace.op_mean_ms"] = 1e3 * float(np.sum((end - start)[layer == 0])) / ops
    return out
