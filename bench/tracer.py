"""Span tracer for the freeflow benchmark.

Wraps the public functions of each freeflow module from outside the
package: every module-level binding of a listed function object is
replaced, because ``freenorm``, ``cli`` and ``experiments`` import names
with ``from .x import y`` and patching only the defining module would
miss their calls. ``TriMesh`` methods are patched on the class. Spans are
kept in memory and written out when the run ends; nothing under ``src/``
is edited.

A span records (id, name, start, end, parent id, op id). Spans are only
recorded while an op is open, so the benchmark's own correctness checks
never show up in the per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, namedtuple

Span = namedtuple("Span", "id name start end parent op")

# (module, qualified name) of every traced function. Per-iteration helpers
# such as l1_norm or edge_id are deliberately absent: their wrapper cost
# would dominate what they measure.
LAYERS = (
    ("primitives", "generate_primitive"),
    ("mesh", "TriMesh.__init__"),
    ("mesh", "TriMesh.face_geometry"),
    ("mesh", "TriMesh.all_pairs_distances"),
    ("mesh", "geodesic_distances"),
    ("calculus", "divergence_matrix"),
    ("calculus", "divergence_normal_solver"),
    ("calculus", "gradient"),
    ("calculus", "divergence"),
    ("calculus", "lip_constant"),
    ("currents", "betti1"),
    ("currents", "classify"),
    ("ssp", "min_cost_flow"),
    ("netsimplex", "min_cost_flow"),
    ("transport", "solve_transportation"),
    ("freenorm", "dual_lp"),
    ("freenorm", "beckmann_graph"),
    ("freenorm", "transport_oracle"),
    ("freenorm", "beckmann_field"),
    ("freenorm", "free_norm"),
    ("io", "read_json"),
    ("io", "write_json"),
    ("io", "mesh_from_dict"),
    ("io", "mesh_hash"),
    ("experiments", "cutoff_decay"),
    ("experiments", "extension_experiment"),
    ("experiments", "divergence_free_field"),
    ("cli", "main"),
    ("cli", "cmd_batch"),
)

LAYER_NAMES = tuple(f"{module}.{qualname}" for module, qualname in LAYERS)

# Counters read from arguments and return values at the span boundary.
COUNTERS = (
    "freenorm.field_iterations",
    "freenorm.field_capped",
    "mesh.vertices_built",
    "freenorm.atoms",
)

DEFAULT_FIELD_MAX_ITER = 5000


def _count_mesh(counts, args, kwargs, result):
    counts["mesh.vertices_built"] += args[0].vertex_count


def _count_field(counts, args, kwargs, result):
    iterations = int(result[2]["iterations"])
    params = args[2] if len(args) > 2 else kwargs.get("params")
    max_iter = params.max_iter if params is not None else DEFAULT_FIELD_MAX_ITER
    counts["freenorm.field_iterations"] += iterations
    counts["freenorm.field_capped"] += int(iterations >= max_iter)


def _count_atoms(counts, args, kwargs, result):
    counts["freenorm.atoms"] += len(args[1].atoms)


HOOKS = {
    "mesh.TriMesh.__init__": _count_mesh,
    "freenorm.beckmann_field": _count_field,
    "freenorm.dual_lp": _count_atoms,
}


class Tracer:
    """Records spans around the listed freeflow functions.

    ``clock`` is injectable so tests can drive time by hand.
    """

    def __init__(self, package="freeflow", clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self.absent = []
        self.hook_failures = set()
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner_stack = None
        self._lock = threading.Lock()
        self._patches = []

    # -- installation -------------------------------------------------

    def install(self, layers=LAYERS):
        """Wrap every binding of each listed function; absent ones are
        recorded in ``self.absent`` instead of raising."""
        self._owner_stack = self._stack()
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == self.package or name.startswith(self.package + ".")
        ]
        for module_name, qualname in layers:
            name = f"{module_name}.{qualname}"
            try:
                module = importlib.import_module(f"{self.package}.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            if "." in qualname:
                cls_name, attr = qualname.split(".", 1)
                cls = getattr(module, cls_name, None)
                fn = vars(cls).get(attr) if isinstance(cls, type) else None
                if not callable(fn):
                    self.absent.append(name)
                    continue
                self._patch(cls, attr, self._wrap(name, fn))
                continue
            fn = getattr(module, qualname, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for mod in modules + [module]:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        tracer = self
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            # a worker thread's outermost span belongs to the span that is
            # blocked waiting for it in the thread that runs the op
            owner = stack or tracer._owner_stack
            parent = owner[-1] if owner else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
                tracer.spans.append(Span(span_id, name, start, end, parent, op))
            if hook is not None:
                with tracer._lock:
                    try:
                        hook(tracer.counts, args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                        tracer.hook_failures.add(name)
            return result

        return traced

    # -- output -------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")


def covered_length(intervals, start, end):
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans):
    """Per-name ``(calls, self seconds)``.

    Self time is a span's duration minus the part of it covered by its
    child spans; overlapping children (worker threads) count once.
    """
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = {}
    for span in spans:
        calls, busy = out.get(span.name, (0, 0.0))
        own = (span.end - span.start) - covered_length(
            children.get(span.id, ()), span.start, span.end
        )
        out[span.name] = (calls + 1, busy + own)
    return out
