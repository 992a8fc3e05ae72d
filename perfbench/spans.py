"""Spans around the calls into helmres' layers, recorded from outside the package.

``Tracer.install`` replaces every binding of a traced function in the loaded
``helmres`` modules (``helmres.cli.solve_dtn``, ``helmres.lippmann.
collocation_matrix``, ...) with a wrapper that records a span, and
``uninstall`` puts the originals back.  Nothing under ``src/`` changes.
Spans carry a parent link and are kept in memory; self time is a span's
duration minus its direct children's.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


def _pencil_size(out) -> dict | None:
    """The pencil size from a ``(pairs, diagnostics)`` result, as the CLI requests."""
    diagnostics = out[1] if isinstance(out, tuple) and len(out) == 2 else None
    size = getattr(diagnostics, "pencil_size", None)
    return None if size is None else {"pencil_size": size}


# (module, function) -> extracts span attributes from the return value
TRACED = {
    ("cli", "main"): None,
    ("cli", "run_pipeline"): None,
    ("cli", "reference_for"): None,
    ("cli", "emit_outputs"): None,
    ("mesh_fe", "build_mesh"): None,
    ("mesh_fe", "build_space"): lambda space: {"dofs": space.dof_count},
    ("assembly", "assemble_dtn"): None,
    ("assembly", "assemble_pml"): None,
    ("assembly", "assemble_resonator_mass"): None,
    ("eigen", "solve_dtn"): _pencil_size,
    ("eigen", "solve_pml"): _pencil_size,
    ("eigen", "solve_contour"): None,
    ("eigen", "smallest_singular_value"): None,
    ("lippmann", "build_ls_context"): None,
    ("lippmann", "collocation_matrix"): None,
    ("lippmann", "apply_kernel"): None,
    ("lippmann", "filter_epsilon"): lambda report: {"epsilon": report.epsilon},
    ("lippmann", "pseudospectrum"): None,
}
ROOT = "cli.main"


class Span:
    __slots__ = ("id", "parent", "name", "op", "start", "end", "attrs")

    def __init__(self, id, parent, name, op, start):
        self.id, self.parent, self.name, self.op = id, parent, name, op
        self.start, self.end, self.attrs = start, None, None

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name, "op": self.op,
                "start": self.start, "end": self.end, "attrs": self.attrs}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name: str, fn, attrs_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                        name, self.op, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs_of is not None:
                span.attrs = attrs_of(result)
            return result
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "helmres" or n.startswith("helmres."))]
        for (module, fn_name), attrs_of in TRACED.items():
            original = getattr(importlib.import_module(f"helmres.{module}"), fn_name)
            wrapper = self._wrap(f"{module}.{fn_name}", original, attrs_of)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def op_summary(self, op: int) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, and attributes."""
        spans = [s for s in self.spans if s.op == op]
        child_time = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "attrs": []})
        for s in spans:
            entry = out[s.name]
            entry["calls"] += 1
            entry["s"] += s.end - s.start
            entry["self_s"] += s.end - s.start - child_time[s.id]
            if s.attrs:
                entry["attrs"].append(s.attrs)
        return dict(out)
