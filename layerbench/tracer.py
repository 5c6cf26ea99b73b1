"""Layer tracing from outside the program.

The tracer replaces names in the ``disksurgery`` modules' namespaces with
timing wrappers, so every call a module makes into another layer passes
through it; nothing under ``src/`` changes. Each wrapped call adds its
count, total time and self time (total minus the time of wrapped calls
it made) to an aggregate. Calls named in ``SPANS`` are also kept as one
span each: name, start, end, parent span and operation id. Hot kernel
calls are aggregated only. ``uninstall`` restores every name, so an
untraced round runs the program's own functions.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (module, attribute in that module's namespace, layer name). Metric names
# must start with a letter, so the ``_kernels`` layers are named ``kernels``.
HOOKS = (
    ("primitivity", "apply_images", "kernels.apply_images"),
    ("primitivity", "cyclic_reduce", "kernels.cyclic_reduce"),
    ("primitivity", "apply_images_canonical", "kernels.apply_images_canonical"),
    ("primitivity", "whitehead_minimize", "primitivity.whitehead_minimize"),
    ("surgery", "is_primitive", "primitivity.is_primitive"),
    ("surgery", "validate_system", "surgery.validate_system"),
    ("cli", "validate_system", "surgery.validate_system"),
    ("report", "closure_report", "surgery.closure_report"),
    ("report", "unoriented_cyclic_class", "words.unoriented_cyclic_class"),
    ("cli", "unoriented_cyclic_class", "words.unoriented_cyclic_class"),
    ("cli", "run_report", "report.run_report"),
    ("cli", "render_text", "report.render_text"),
    ("cli", "render_json", "report.render_json"),
    ("cli", "load_scenario", "scenarios.load_scenario"),
)

# Layers kept as spans; an operation's outermost call is always a span.
SPANS = {
    "primitivity.whitehead_minimize", "surgery.validate_system", "surgery.closure_report",
    "report.run_report", "report.render_text", "report.render_json",
    "scenarios.load_scenario",
}


class Tracer:
    def __init__(self, modules):
        self.modules = modules
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []
        self.op_id = None
        self._stack = []  # [name, span index or None, time spent in children]
        self._saved = []
        self._positions = {}

    # -- bookkeeping --------------------------------------------------

    def enter(self, name):
        span = None
        if name in SPANS or not self._stack:
            parent = self._stack[-1][1] if self._stack else None
            span = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.op_id])
        self._stack.append([name, span, 0.0])
        return time.perf_counter()

    def leave(self, started, ended):
        name, span, children = self._stack.pop()
        elapsed = ended - started
        self.calls[name] += 1
        self.total[name] += elapsed
        self.self_time[name] += elapsed - children
        if span is not None:
            self.spans[span][1] = started
            self.spans[span][2] = ended

    def charge_parent(self, wrapper_started):
        # The parent's self time excludes the whole wrapper, bookkeeping included.
        if self._stack:
            self._stack[-1][2] += time.perf_counter() - wrapper_started

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` as one traced call named ``name``."""
        outer = time.perf_counter()
        started = self.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            ended = time.perf_counter()
            self.leave(started, ended)
        self._count(name, args, result)
        self.charge_parent(outer)
        return result

    def _count(self, name, args, result):
        """Add to the counts that a call's result shows, under their metric names."""
        c = self.counts
        if name == "primitivity.whitehead_minimize":
            table = self._table(args[1])
            c[name + ".steps"] += len(result.certificate)
            evaluated = sum(table[id(auto)] + 1 for auto in result.certificate)
            if len(result.minimal) > 1:
                evaluated += len(table)
            c[name + ".autos_evaluated"] += evaluated
        elif name == "primitivity.is_primitive":
            c[name + ".oz_fired"] += int(result.oz_fired)
        elif name == "primitivity.oracle_primitives":
            c[name + ".words"] += len(result)
            c[name + ".autos_applied"] += len(result) * len(self._table(args[0]))
        elif name == "surgery.closure_report":
            c["surgery.outcomes"] += sum(len(d.entries) for d in result.directions)
        elif name in ("report.render_text", "report.render_json"):
            c["report.bytes"] += len(result.encode("utf-8"))

    def _table(self, rank):
        table = self._positions.get(rank)
        if table is None:
            autos = self.modules["primitivity"].enumerate_whitehead_autos(rank)
            table = {id(auto): i for i, auto in enumerate(autos)}
            self._positions[rank] = table
        return table

    # -- patching -----------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every hook and the CyclicWord constructor."""
        seen = {}
        for module, attr, name in HOOKS:
            mod = self.modules[module]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            key = (id(original), name)
            if key not in seen:
                seen[key] = self._wrap(name, original)
            setattr(mod, attr, seen[key])
        cyclic = self.modules["words"].CyclicWord
        post_init = cyclic.__post_init__
        self._saved.append((cyclic, "__post_init__", post_init))
        cyclic.__post_init__ = self._wrap("words.CyclicWord", post_init)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
