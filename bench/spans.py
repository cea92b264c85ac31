"""Spans and counters at the public calls of each nalc layer.

``Tracer.install`` replaces each layer's public functions, wherever a
``nalc`` module holds them (``nalc.reasoner.complete`` as well as
``nalc.tableau.complete``), by a wrapper that records a span while a
request is open: name, start, end, parent and request id.  Self time of a
layer is the time of its spans minus the part their child spans cover;
busy time counts only a layer's outermost spans.  Both are summed as spans
close, and the spans themselves are kept in memory, up to ``KEEP_SPANS``
of them, to be written out when the run ends.

``eval_concept`` and ``fuzzy_eval`` are left unwrapped: they recurse
through their own module names, so wrapping them would record one span per
concept node.  ``syntax`` and ``constraints`` hold value types used under
every layer; their cost shows in the self time of the caller.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

LAYERS = {
    "parser": ("parse_kb", "try_parse_kb", "parse_query", "parse_concept", "parse_assertion"),
    "kb": ("validate", "expand", "resolved_definitions", "unfold_assertion", "unfold_constraint",
           "embed_fuzzy", "sharp", "star"),
    "tableau": ("complete", "apply_rules", "extract_model", "find_clash", "variable_assignment"),
    "reasoner": ("entails", "glb", "lub", "lub_via_negation", "subsumes", "check_satisfiable"),
    "semantics": ("exists_model", "oracle_entails", "fuzzy_exists_model", "fuzzy_entails",
                  "satisfies", "satisfies_all", "satisfies_axiom"),
}


def concept_nodes(concept) -> int:
    count, stack = 0, [concept]
    while stack:
        node = stack.pop()
        count += 1
        for attr in ("left", "right", "inner", "filler"):
            child = getattr(node, attr, None)
            if child is not None:
                stack.append(child)
    return count


KEEP_SPANS = 20_000


class Tracer:
    def __init__(self):
        self.request = None
        self.scale = 1.0  # factor from measured to reported time
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._depth = {layer: 0 for layer in LAYERS}
        self._open_subsumes = 0
        # Times summed over the current pass, and their totals per pass.
        self.ns = {f"{layer}.{what}": 0 for layer in LAYERS for what in ("self", "busy")}
        self.passes: list[dict] = []
        self.count = {name: 0 for name in (
            "statements", "expanded_nodes", "tableau.calls", "branches", "completions",
            "completion_size", "glb_calls", "glb_runs", "lub_calls", "lub_runs",
            "subsumes_calls", "subsumes_runs", "semantics.calls")}

    def end_pass(self) -> None:
        self.passes.append(self.ns)
        self.ns = dict.fromkeys(self.ns, 0)

    def median(self, name) -> float:
        """The median over the passes of one pass's time, in ns."""
        return statistics.median(p[name] for p in self.passes)

    def ratio(self, total, calls) -> float:
        return self.count[total] / self.count[calls] if self.count[calls] else 0.0

    def install(self, api) -> None:
        """Wrap every public layer function under every name it has."""
        wrappers = {}
        for layer, names in LAYERS.items():
            module = sys.modules[f"{api.__name__}.{layer}"]
            for name in names:
                fn = getattr(module, name)
                wrappers[fn] = self._wrap(layer, name, fn)
        for module_name, module in list(sys.modules.items()):
            if module_name != api.__name__ and not module_name.startswith(api.__name__ + "."):
                continue
            for attr, val in list(vars(module).items()):
                if callable(val) and val in wrappers:
                    setattr(module, attr, wrappers[val])

    def _wrap(self, layer, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            return tracer._span(layer, name, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _span(self, layer, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, layer, 0, time.perf_counter_ns()]  # id, layer, child ns, start
        self._stack.append(frame)
        self._depth[layer] += 1
        if name == "subsumes":
            self._open_subsumes += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._depth[layer] -= 1
            if name == "subsumes":
                self._open_subsumes -= 1
            duration = end - frame[3]
            self.ns[f"{layer}.self"] += (duration - frame[2]) * self.scale
            if self._depth[layer] == 0:
                self.ns[f"{layer}.busy"] += duration * self.scale
            if layer == "semantics" and (parent is None or parent[1] != layer):
                self.count["semantics.calls"] += 1
            if parent is not None:
                parent[2] += duration
            if len(self.spans) < KEEP_SPANS:
                self.spans.append((self.request, layer, name, span_id,
                                   parent[0] if parent else -1, frame[3], end))
            else:
                self.dropped += 1
        self._count(name, result)
        return result

    def _count(self, name, result) -> None:
        count = self.count
        if name == "try_parse_kb":
            kb = result[0]
            if kb is not None:
                count["statements"] += len(kb.assertions) + len(kb.terminology)
        elif name in ("parse_query", "parse_concept", "parse_assertion"):
            count["statements"] += 1
        elif name in ("unfold_constraint", "unfold_assertion"):
            assertion = result.assertion if name == "unfold_constraint" else result
            concept = getattr(assertion, "concept", None)
            if concept is not None:
                count["expanded_nodes"] += concept_nodes(concept)
        elif name == "complete":
            count["tableau.calls"] += 1
            count["branches"] += result.branch_count
            if result.witness is not None:
                count["completions"] += 1
                count["completion_size"] += len(result.witness.constraints)
            if self._open_subsumes:
                count["subsumes_runs"] += 1
        elif name in ("glb", "lub"):
            count[f"{name}_calls"] += 1
            count[f"{name}_runs"] += result.candidates_examined
        elif name == "subsumes":
            count["subsumes_calls"] += 1

    def write(self, path, header: dict) -> None:
        """One JSON header line, then one span per line as a list."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({**header, "spans_kept": len(self.spans), "spans_dropped": self.dropped,
                                  "fields": ["request", "layer", "name", "id", "parent",
                                             "start_ns", "end_ns"]}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
