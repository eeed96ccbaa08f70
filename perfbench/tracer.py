"""Span tracer that wraps chevalley functions from outside the package.

Modules import helpers by name (``from chevalley.linalg import mat_mul``), so
patching the defining module alone misses most calls.  ``Tracer.install``
finds every binding of each target function in every loaded ``chevalley``
module, including values of module-level dicts such as ``cli.SUITES``, and
replaces it with a wrapper; ``uninstall`` restores the originals.

Every wrapped call updates per-name aggregates (calls, calls that raised,
inclusive seconds, extra counts).  Calls of the functions listed as
structural also keep a span record (name, start, end, parent, operation id)
in memory; the hot kernels are aggregated only, because they run millions of
times.  A span's self time is its duration minus the time its child spans
cover, so the kernels a span calls directly (``mat_mul`` in the replay of
``certify``, say) count towards its self time.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field

# (metric layer, module, attribute, record spans?)
TARGETS = (
    ("decomposer.spec_from_json", "chevalley.decomposer", "spec_from_json", True),
    ("decomposer.certify", "chevalley.decomposer", "certify", True),
    ("decomposer.precheck", "chevalley.decomposer", "precheck", True),
    ("decomposer.split_local", "chevalley.decomposer", "split_local", True),
    ("decomposer.match", "chevalley.decomposer", "_match_local", True),
    ("decomposer.intertwiner", "chevalley.decomposer", "_intertwiner_basis", True),
    ("decomposer.strictly_inner_element", "chevalley.decomposer",
     "strictly_inner_element", True),
    ("decomposer.big_cell", "chevalley.decomposer", "_big_cell", True),
    ("decomposer.ringmap", "chevalley.decomposer", "_residual_rho", True),
    ("linalg.local_nullspace", "chevalley.linalg", "local_nullspace", True),
    ("linalg.ring_invert", "chevalley.linalg", "ring_invert", False),
    ("linalg.mat_mul", "chevalley.linalg", "mat_mul", False),
    ("group.unipotent", "chevalley.group", "unipotent", False),
    ("group.from_word", "chevalley.group", "from_word", False),
    ("recover.recover_family", "chevalley.recover", "recover_family", True),
    ("autos.graph_data", "chevalley.autos", "graph_data", False),
    ("rings.crt_split", "chevalley.rings", "crt_split", False),
    ("rings.is_ring_automorphism", "chevalley.rings", "is_ring_automorphism", True),
    ("liealg.build_algebra", "chevalley.liealg", "build_algebra", False),
) + tuple(
    (f"cli.verify.{suite}", "chevalley.cli", f"_suite_{suite}", True)
    for suite in ("laws", "eq1", "weyl", "commutator", "jacobi", "recover"))


def _nullspace_cells(args, kwargs):
    a = kwargs.get("a", args[1] if len(args) > 1 else ())
    return len(a) * (len(a[0]) if a else 0)


# extra counts taken from a call's arguments: layer -> (suffix, fn(args, kwargs))
EXTRA_COUNTS = {"linalg.local_nullspace": ("cells", _nullspace_cells)}


@dataclass
class Aggregate:
    calls: int = 0
    raised: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    extra: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.aggregates = {layer: Aggregate() for layer, *_ in TARGETS}
        for layer, (key, _count) in EXTRA_COUNTS.items():
            self.aggregates[layer].extra[key] = 0
        self.spans = []          # (id, name, start, end, parent id, op id)
        self.absent = []         # layers whose function no longer exists
        self.op_id = None
        self._stack = []         # open spans: [span id, child span seconds]
        self._depth = {}         # name -> number of open frames of that name
        self._patches = []       # (namespace, key, original)
        self._next_id = 0

    def install(self):
        """Wrap every target in every chevalley module that binds it."""
        for layer, module, attr, spans in TARGETS:
            try:
                orig = getattr(importlib.import_module(module), attr)
            except (ImportError, AttributeError):
                if layer not in self.absent:
                    self.absent.append(layer)
                    print(f"trace: {module}.{attr} is missing; metrics of "
                          f"{layer} are absent", file=sys.stderr)
                continue
            wrapper = self._wrap(layer, orig, spans)
            for name, mod in list(sys.modules.items()):
                if name != "chevalley" and not name.startswith("chevalley."):
                    continue
                space = vars(mod)
                for key, value in list(space.items()):
                    if value is orig:
                        self._patches.append((space, key, orig))
                        space[key] = wrapper
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is orig:
                                self._patches.append((value, dkey, orig))
                                value[dkey] = wrapper

    def uninstall(self):
        for space, key, orig in reversed(self._patches):
            space[key] = orig
        self._patches.clear()

    def _wrap(self, layer, fn, record_span):
        extra = EXTRA_COUNTS.get(layer)
        agg = self.aggregates[layer]
        stack, depth = self._stack, self._depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            agg.calls += 1
            if extra is not None:
                key, count = extra
                agg.extra[key] += count(args, kwargs)
            if record_span:
                frame = [self._next_id, 0.0]
                self._next_id += 1
                stack.append(frame)
            depth[layer] = depth.get(layer, 0) + 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                agg.raised += 1
                raise
            finally:
                end = clock()
                dur = end - start
                depth[layer] -= 1
                if not depth[layer]:
                    agg.total_s += dur      # outermost call of this layer only
                if record_span:
                    stack.pop()
                    agg.self_s += dur - frame[1]
                    parent = None
                    if stack:
                        stack[-1][1] += dur
                        parent = stack[-1][0]
                    self.spans.append((frame[0], layer, start, end, parent,
                                       self.op_id))

        wrapper.__wrapped__ = fn
        return wrapper
