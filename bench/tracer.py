"""Span tracer that wraps cmtype's layer functions from outside the program.

``Tracer.install`` replaces every binding of each traced function inside the
``cmtype`` package (``buchberger`` alone is imported by name into six module
namespaces) with a wrapper that records a span: name, start, end, parent and
two integer attributes.  Spans stay in memory; the harness collects them when
the traced item ends and writes them out when the run ends.

Per-term polynomial arithmetic is deliberately not traced: wrapping it would
swamp the run.  ``drozd_roiter`` is not on the benchmark's corpora.
"""

from __future__ import annotations

import gc
import sys
import time
import types
from collections import Counter

# (module, function); the span name drops the package prefix.
TRACED = (
    ("cmtype.cli", "main"),
    ("cmtype.parsing", "parse_presentation"),
    ("cmtype.groebner", "buchberger"),
    ("cmtype.groebner", "normal_form"),
    ("cmtype.groebner", "minimalize_presentation"),
    ("cmtype.linalg", "rref"),
    ("cmtype.invariants", "analyze"),
    ("cmtype.invariants", "artinian_reduction"),
    ("cmtype.invariants", "hilbert_series_from_gb"),
    ("cmtype.singularity", "singular_locus"),
    ("cmtype.families", "match_named_family"),
    ("cmtype.classifier", "classify"),
    ("cmtype.report", "finalize_document"),
    ("cmtype.report", "render_json"),
)
SPAN_NAMES = tuple(f"{module.split('.', 1)[1]}.{attr}" for module, attr in TRACED)

# Per-layer metrics, in BENCHMARK.json order, with their units.
LAYER_METRICS = (
    ("parsing.parse_presentation.s", "s"),
    ("groebner.buchberger.calls", "count"),
    ("groebner.buchberger.distinct_ideals", "count"),
    ("groebner.buchberger.s", "s"),
    ("groebner.spair_reductions", "count"),
    ("groebner.normal_form.calls", "count"),
    ("groebner.normal_form.s", "s"),
    ("groebner.minimalize_presentation.calls", "count"),
    ("groebner.minimalize_presentation.s", "s"),
    ("linalg.rref.calls", "count"),
    ("linalg.rref.cells", "count"),
    ("linalg.rref.s", "s"),
    ("invariants.analyze.self_s", "s"),
    ("invariants.artinian_reduction.s", "s"),
    ("invariants.artinian_reduction.gb_calls", "count"),
    ("invariants.hilbert_series_from_gb.s", "s"),
    ("singularity.singular_locus.s", "s"),
    ("singularity.singular_locus.gb_calls", "count"),
    ("singularity.jacobian_generators", "count"),
    ("families.match_named_family.s", "s"),
    ("families.match_named_family.gb_calls", "count"),
    ("classifier.classify.self_s", "s"),
    ("report.finalize_document.s", "s"),
    ("report.render_json.s", "s"),
    ("cli.main.s", "s"),
    ("trace_overhead_ratio", "ratio"),
)


class TracerError(RuntimeError):
    """The tracer could not reach every binding of a traced function."""


def _cmtype_modules():
    return [m for name, m in sys.modules.items() if name == "cmtype" or name.startswith("cmtype.")]


class Tracer:
    """Records spans ``(id, parent, name index, start_ns, end_ns, a, b)``.

    ``a`` and ``b`` carry what a span's metrics need from its call:
    ``buchberger``: ``a`` numbers the distinct reduced basis returned within
    this tracer, ``b`` is its element count; ``rref``: ``a`` is rows x columns
    of the input; ``singular_locus``: ``a`` is the Jacobian ideal's generator
    count.  Id 0 is the root.  A span whose call raised still records, with
    ``a = -1`` unless its attributes come from the arguments.
    """

    def __init__(self):
        self.spans: list[tuple[int, int, int, int, int, int, int]] = []
        self._stack = [0]
        self._next_id = 1
        self._ideals: dict = {}
        self._bindings: list[tuple[types.ModuleType, str, object]] = []
        self._wrappers: list[types.FunctionType] = []

    def _attributes(self, index: int, args, result) -> tuple[int, int]:
        name = SPAN_NAMES[index]
        if name == "linalg.rref":
            rows = args[0]
            return len(rows) * (len(rows[0]) if len(rows) else 0), 0
        if result is None:
            return -1, 0
        if name == "groebner.buchberger":
            key = (result.variables, result.order, result.elements)
            return self._ideals.setdefault(key, len(self._ideals)), len(result.elements)
        if name == "singularity.singular_locus":
            return len(result.jacobian_ideal.generators), 0
        return 0, 0

    def _wrap(self, index: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, index, start, end, *self._attributes(index, args, result)))

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def install(self, *, check_references: bool = False) -> None:
        """Rebind every ``cmtype.*`` module binding of each traced function.

        With ``check_references`` (a heap scan, so done once per run rather
        than per item), raise ``TracerError`` and roll back when any object
        other than the tracer's own wrappers still refers to an original,
        such as a default argument, a dispatch table or a closure: calls
        through such a reference would escape the trace.
        """
        if self._bindings:
            raise TracerError("tracer already installed")
        modules = _cmtype_modules()
        originals = []
        for index, (module_name, attr) in enumerate(TRACED):
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(index, original)
            originals.append(original)
            self._wrappers.append(wrapper)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._bindings.append((module, key, original))
        missed = self._unreached_references(originals) if check_references else []
        if missed:
            self.uninstall()
            raise TracerError("traced functions still reachable untraced via: " + ", ".join(missed))

    def _unreached_references(self, originals) -> list[str]:
        allowed = {id(self._bindings)} | {id(b) for b in self._bindings}
        for wrapper in self._wrappers:
            allowed.update(id(cell) for cell in wrapper.__closure__ or ())
        found = []
        for original in originals:
            for ref in gc.get_referrers(original):
                if id(ref) in allowed or isinstance(ref, types.FrameType) or ref is originals:
                    continue
                found.append(f"{type(ref).__name__} referring to {original.__module__}.{original.__name__}")
        return found

    def uninstall(self) -> None:
        for module, key, original in reversed(self._bindings):
            setattr(module, key, original)
        self._bindings.clear()
        self._wrappers.clear()

    def bindings(self) -> Counter:
        """Installed bindings per traced function."""
        return Counter(f"{original.__module__}.{original.__name__}" for _, _, original in self._bindings)


def item_layers(spans) -> dict[str, float]:
    """Per-layer metrics of one item's spans: every name of LAYER_METRICS but
    the overhead ratio, times in seconds.  A metric ``<span>.calls``, ``.s``,
    ``.self_s`` or ``.gb_calls`` is that span's count, total time, total
    time minus its direct children's, or ``buchberger`` spans below it."""
    name_of = {sid: SPAN_NAMES[index] for sid, _, index, *_ in spans}
    parent_of = {sid: parent for sid, parent, *_ in spans}
    child_ns = Counter()
    for _, parent, _, start, end, _, _ in spans:
        child_ns[parent] += end - start

    calls, total_ns, self_ns, gb_calls = Counter(), Counter(), Counter(), Counter()
    derived = dict.fromkeys(("groebner.spair_reductions", "linalg.rref.cells", "singularity.jacobian_generators"), 0)
    distinct = set()
    for sid, parent, index, start, end, a, b in spans:
        name = SPAN_NAMES[index]
        calls[name] += 1
        total_ns[name] += end - start
        self_ns[name] += end - start - child_ns[sid]
        if name == "groebner.buchberger":
            if a >= 0:
                distinct.add(a)
            derived["groebner.spair_reductions"] -= b
            ancestors = set()
            while parent:
                ancestors.add(name_of[parent])
                parent = parent_of[parent]
            gb_calls.update(ancestors)
        elif name == "groebner.normal_form" and name_of.get(parent) == "groebner.buchberger":
            derived["groebner.spair_reductions"] += 1
        elif name == "linalg.rref":
            derived["linalg.rref.cells"] += a
        elif name == "singularity.singular_locus":
            derived["singularity.jacobian_generators"] += max(a, 0)
    derived["groebner.buchberger.distinct_ideals"] = len(distinct)

    per_kind = {
        "calls": calls,
        "s": {k: v / 1e9 for k, v in total_ns.items()},
        "self_s": {k: v / 1e9 for k, v in self_ns.items()},
        "gb_calls": gb_calls,
    }
    out = {}
    for metric, _ in LAYER_METRICS:
        span, _, kind = metric.rpartition(".")
        if metric in derived:
            out[metric] = derived[metric]
        elif kind in per_kind:
            out[metric] = per_kind[kind].get(span, 0)
    return out
