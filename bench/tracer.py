"""Per-layer tracing by rebinding library attributes at run time.

``Tracer.install()`` replaces every public function of the measured
modules with a span wrapper, in every rosefold namespace that holds it
(``from .x import f`` copies a reference, so each copy is rebound), and
replaces graph construction and the ``LabeledGraph`` accessors with
timing wrappers.  ``restore()`` puts every original back.  Nothing in
``src/`` changes.

A span is (function, parent span, op id, start, end), kept as five
doubles in one flat array and written out after the run.  Construction
and accessor calls are too frequent for a span each, so their time is
summed per enclosing span instead.  A layer's self time is its spans'
duration minus the part covered by child spans and by construction and
accessor calls; that part is booked to ``graphs``, whose code it is.
Each wrapper also costs time of its own, inside its measured interval
and around it (where it lands in the caller's span); ``calibrate()``
measures both parts on empty functions and ``layer_times()`` takes them
off per call.
"""

from __future__ import annotations

import array
import gzip
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = ("words", "graphs", "folding", "whitehead", "tameness", "oracles", "cli")

# Per-letter and per-edge helpers: called so often that a span would cost
# more than the work it measures.  Their time counts toward the caller.
UNWRAPPED = {
    "words": {"inverse_letter", "letter_key", "letter_to_char", "letter_from_char"},
    "graphs": {"oriented_edge"},
    "whitehead": {"whitehead_edge"},
}

# LabeledGraph methods that get a timing wrapper instead of a span: their
# time is summed per enclosing span and booked to ``graphs``.  Calls are
# counted only for the accessors whose counts are reported.
TIMED_METHODS = (
    "__init__", "edge", "edge_map", "dir_origin", "dir_terminus", "dir_label",
    "directed_edges", "out_edges", "in_labels", "valence",
)
COUNTED_METHODS = ("edge", "dir_origin", "dir_terminus", "dir_label", "out_edges", "in_labels")

MARK = "__bench_wrapped__"
SPAN_FIELDS = 5  # function id, parent span, op id, start, end


def _namespaces():
    return [m.__dict__ for name, m in sorted(sys.modules.items()) if name == "rosefold" or name.startswith("rosefold.")]


def wrapped_objects() -> list[str]:
    """Names of library attributes that currently hold a benchmark wrapper."""
    from rosefold.graphs import LabeledGraph

    found = [f"{ns['__name__']}.{k}" for ns in _namespaces() for k, v in ns.items() if getattr(v, MARK, False)]
    found += [f"LabeledGraph.{k}" for k, v in vars(LabeledGraph).items() if getattr(v, MARK, False)]
    return found


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self.spans = array.array("d")  # SPAN_FIELDS values per span
        self.stack: list[int] = [-1]  # open span indices; -1 is the op itself
        self.op_id = -1
        self.counts: Counter = Counter()
        self.graph_time: dict[int, float] = {}  # enclosing span -> construction and accessor time
        self.graph_calls: dict[int, int] = {}  # enclosing span -> timed calls
        self._busy = [False]  # inside a timed accessor; nested ones only count
        self._saved: list[tuple[dict | type, str, object]] = []  # (namespace or class, name, original)

    # -- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, fn, layer: str):
        nid = len(self.names)
        self.names.append(fn.__name__)
        self.name_layer.append(layer)
        hook = getattr(self, "_after_" + fn.__name__, None)
        perf = time.perf_counter
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            base = len(spans)
            spans.extend((nid, stack[-1], self.op_id, perf(), 0.0))
            stack.append(base // SPAN_FIELDS)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[base + 4] = perf()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, True)
        return wrapper

    def _timed_wrapper(self, fn, key: str | None):
        """Adds the time of the outermost of nested calls (``dir_origin``
        calls ``edge``) to ``graph_time`` of the enclosing span, and counts
        calls under ``key``."""
        counts, graph_time, graph_calls, stack, busy = self.counts, self.graph_time, self.graph_calls, self.stack, self._busy
        perf = time.perf_counter
        built = fn.__name__ == "__init__"

        def wrapper(self_, *args, **kwargs):
            if key is not None:
                counts[key] += 1
            if busy[0]:
                return fn(self_, *args, **kwargs)
            busy[0] = True
            t0 = perf()
            try:
                return fn(self_, *args, **kwargs)
            finally:
                dt = perf() - t0
                busy[0] = False
                top = stack[-1]
                graph_time[top] = graph_time.get(top, 0.0) + dt
                graph_calls[top] = graph_calls.get(top, 0) + 1
                if built:
                    counts["graphs.graphs_built"] += 1
                    counts["graphs.edges_built"] += len(self_.edges)

        wrapper.__name__ = fn.__name__
        setattr(wrapper, MARK, True)
        return wrapper

    # -- counters taken from arguments and results -------------------------------

    def _after_canonical_rotation(self, args, result):
        self.counts["words.canonical_rotation.letters"] += len(result)

    def _after_whitehead_of_classes(self, args, result):
        self.counts["whitehead.graphs"] += 1
        self.counts["whitehead.edges"] += len(result.edges)

    _after_whitehead_of_graph = _after_whitehead_of_classes

    def _after_fold_to_completion(self, args, result):
        self.counts["folding.folds"] += len(result.steps)
        self.counts["folding.betti_drops"] += sum(s.betti_dropped for s in result.steps)
        self.counts["folding.snapshot_edges"] += sum(len(g.edges) for g in result.snapshots)

    def _after_decide_tame(self, args, result):
        self.counts["tameness.verdicts_tame" if result.tame else "tameness.verdicts_not_tame"] += 1

    def _after_verify_certificate(self, args, result):
        self.counts["tameness.verify_rejects"] += not result

    def _after_certificate_to_text(self, args, result):
        self.counts["tameness.cert_bytes"] += len(result)

    def _after_brute_force_morphism(self, args, result):
        self.counts["oracles.morphisms_found"] += result is not None

    def _after_enumerate_almost_roses(self, args, result):
        self.counts["tameness.enumerate.roses"] += len(result)

    def _after_main(self, args, result):
        self.counts["cli.exit_codes"] += result

    # -- install / restore ---------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        # Import every layer first: a module imported after wrapping began
        # would copy wrapped references that restore() does not know of.
        modules = {layer: importlib.import_module(f"rosefold.{layer}") for layer in LAYERS}
        namespaces = _namespaces()
        for layer, module in modules.items():
            for name, fn in sorted(vars(module).items()):
                if (
                    name.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or name in UNWRAPPED.get(layer, ())
                ):
                    continue
                wrapper = self._span_wrapper(fn, layer)
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is fn:
                            self._saved.append((ns, key, fn))
                            ns[key] = wrapper
        from rosefold.graphs import LabeledGraph

        for name in TIMED_METHODS:
            fn = vars(LabeledGraph)[name]
            self._saved.append((LabeledGraph, name, fn))
            key = f"graphs.{name}.calls" if name in COUNTED_METHODS else None
            setattr(LabeledGraph, name, self._timed_wrapper(fn, key))

    def restore(self) -> None:
        for target, key, original in reversed(self._saved):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._saved.clear()

    # -- results ------------------------------------------------------------------

    def _columns(self):
        """The span array as columns: function, parent, op, start, end."""
        return [self.spans[k::SPAN_FIELDS] for k in range(SPAN_FIELDS)]

    def layer_times(self) -> dict:
        """Self time per layer, net of wrapper overhead; inclusive time and
        calls per function; and the time covered by root spans and by
        construction and accessor calls outside any span."""
        ov = calibrate()
        fn, parent, _, start, end = self._columns()
        n = len(fn)
        dur = [e - s for s, e in zip(start, end)]
        child = [0.0] * n
        children = [0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[int(parent[i])] += dur[i]
                children[int(parent[i])] += 1
        gt, gc = self.graph_time, self.graph_calls
        self_by_layer: Counter = Counter({"graphs": sum(gt.values()) - sum(gc.values()) * ov["timed_in"]})
        incl_by_name: Counter = Counter()
        calls_by_name: Counter = Counter()
        root = 0.0
        iso_in_enum = 0
        for i in range(n):
            name = self.names[int(fn[i])]
            self_by_layer[self.name_layer[int(fn[i])]] += (
                dur[i] - child[i] - gt.get(i, 0.0)
                - ov["span_in"] - children[i] * ov["span_out"] - gc.get(i, 0) * ov["timed_out"]
            )
            incl_by_name[name] += dur[i]
            calls_by_name[name] += 1
            if parent[i] < 0:
                root += dur[i]
            elif name == "is_label_isomorphic" and self.names[int(fn[int(parent[i])])] == "enumerate_almost_roses":
                iso_in_enum += 1
        root += gt.get(-1, 0.0)
        return {
            "self": self_by_layer,
            "incl": incl_by_name,
            "calls": calls_by_name,
            "root": root,
            "iso_in_enum": iso_in_enum,
            "spans": n,
            "overhead_per_call_s": ov,
        }

    def write_spans(self, path) -> None:
        """Gzipped TSV, one line per span: function id, start and duration
        in microseconds from the first span, parent span, op id.  Header
        lines starting with ``#`` map function ids to layer.name."""
        fn, parent, op, start, end = self._columns()
        t0 = start[0] if start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.writelines(f"# {i} {layer}.{name}\n" for i, (name, layer) in enumerate(zip(self.names, self.name_layer)))
            f.write("fn\tstart_us\tdur_us\tparent\top\n")
            f.writelines(
                f"{int(n)}\t{round((s - t0) * 1e6)}\t{round((e - s) * 1e6)}\t{int(p)}\t{int(o)}\n"
                for n, p, o, s, e in zip(fn, parent, op, start, end)
            )


def calibrate(calls: int = 20000, repeats: int = 5) -> dict[str, float]:
    """Per-call cost of a span wrapper and of a timing wrapper around an
    empty function, split into the part inside the interval the wrapper
    records (``*_in``) and the part outside it (``*_out``).  Each is the
    least over ``repeats`` loops of ``calls`` calls."""

    def empty():
        return None

    class Graph:
        def empty(self):
            return None

    t = Tracer()

    def best(f, *args, recorded=None):
        """Least per-call time of a loop, and least per-call recorded time."""
        loop = range(calls)
        total = inside = float("inf")
        for _ in range(repeats):
            before = recorded() if recorded else 0.0
            t0 = time.perf_counter()
            for _ in loop:
                f(*args)
            total = min(total, (time.perf_counter() - t0) / calls)
            if recorded:
                inside = min(inside, (recorded() - before) / calls)
        return total, inside

    def span_time():
        _, _, _, start, end = t._columns()
        return sum(end) - sum(start)

    g = Graph()
    plain, _ = best(empty)
    plain_method, _ = best(Graph.empty, g)
    span_total, span_in = best(t._span_wrapper(empty, "calibration"), recorded=span_time)
    timed_total, timed_in = best(t._timed_wrapper(Graph.empty, None), g, recorded=lambda: t.graph_time.get(-1, 0.0))
    span_in, timed_in = max(0.0, span_in - plain), max(0.0, timed_in - plain_method)
    return {
        "span_in": span_in,
        "span_out": max(0.0, span_total - plain - span_in),
        "timed_in": timed_in,
        "timed_out": max(0.0, timed_total - plain_method - timed_in),
    }
