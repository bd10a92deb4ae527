"""Span tracing for the benchmark's traced run.

``install`` wraps rowlab's public functions at the names the calling
modules import: ``dynamics.step_all`` is replaced in ``harness`` (which
imports it) and in ``dynamics`` (whose ``step_once`` calls it).  A function
that calls itself through its own global name, such as ``show_term`` or
``subst_term``, is left alone in its defining module, so its recursion is
one span, not thousands.  Every run, traced or not, counts its per-input
work budget (budget.py) at the same points.

Each span records its layer, start, end and the span that called it.  Spans
are kept in memory and written out by ``write`` at the end of the run.  A
layer's self time is its spans' duration minus the part their child spans
cover; it is summed as spans close.  Counts are taken at the same
boundaries, so ratios such as ``dynamics.redex_use_ratio`` are measured
where the work happens.  The time the counting itself takes is charged to
no layer.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

CHECKS = (
    "check_type_preservation",
    "check_weak_preservation",
    "check_simulation",
    "check_reflection",
    "check_erasure",
    "check_preorder_correspondence",
    "check_subst_lemma",
    "check_subject_reduction",
)

# layer -> the (module, function) pairs whose calls are its spans
LAYERS = {
    "dynamics.step_all": [("dynamics", "step_all")],
    "dynamics.reduction_trace": [("dynamics", "reduction_trace")],
    "dynamics.erase": [("dynamics", "erase")],
    "dynamics.term_preorder": [("dynamics", "term_preorder")],
    "harness.gen": [("harness", "gen_typed_term"), ("harness", "gen_subst_pair")],
    "harness.check": [("harness", name) for name in CHECKS],
    "pretty.show_term": [("pretty", "show_term")],
    "pretty.show_type": [("pretty", "show_type")],
    "syntax.alpha_eq": [("syntax", "alpha_eq")],
    "syntax.type_equal": [("syntax", "type_equal")],
    "syntax.subst_term": [("syntax", "subst_term")],
    "statics.type_check": [("statics", "type_check")],
    "statics.subtype": [("statics", "subtype")],
    "infer.infer": [("infer", "infer")],
    "translate.run_translation": [("translate", "run_translation")],
    "parser.parse_file_str": [("parser", "parse_file_str")],
}

# per-layer metrics beyond .calls and .self_s: name -> unit
EXTRA_METRICS = {
    "dynamics.step_all.redexes": "count",
    "dynamics.reduction_trace.steps": "count",
    "dynamics.redex_use_ratio": "ratio",
    "harness.gen.nodes": "count",
    "harness.gen.type_equal_per_node": "ratio",
    "harness.check.obligations": "count",
    "translate.growth": "ratio",
    "parser.bytes_per_s": "B/s",
}


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = "count"
        out[f"{layer}.self_s"] = "s"
    out.update(EXTRA_METRICS)
    return out


def install(make) -> None:
    """Replace every layer function, at each rowlab module that binds it, by
    ``make(layer_index, fn)``."""
    mods = {
        name: importlib.import_module(f"rowlab.{name}")
        for name in ("cli", "dynamics", "harness", "infer", "parser", "pretty",
                     "statics", "syntax", "translate")
    }
    for layer_idx, layer in enumerate(LAYERS):
        for mod_name, fn_name in LAYERS[layer]:
            fn = getattr(mods[mod_name], fn_name)
            wrapped = make(layer_idx, fn)
            recursive = _self_recursive(fn, fn_name)
            for name, mod in mods.items():
                if getattr(mod, fn_name, None) is not fn:
                    continue
                if name == mod_name and recursive:
                    continue
                setattr(mod, fn_name, wrapped)


def _self_recursive(fn, name: str) -> bool:
    """Whether ``fn`` (or a function nested in it) calls ``name`` globally."""
    stack = [fn.__code__]
    while stack:
        code = stack.pop()
        if name in code.co_names:
            return True
        stack += [c for c in code.co_consts if hasattr(c, "co_names")]
    return False


class Tracer:
    def __init__(self):
        self.layers = list(LAYERS)
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]  # open span indices; -1 is the root
        self._child = [0.0]  # time covered by child spans, per open span
        self.calls = [0] * len(self.layers)
        self.self_s = [0.0] * len(self.layers)
        self.active = [0] * len(self.layers)
        self.outer_s = [0.0] * len(self.layers)  # duration of outermost spans
        self.counts: dict[str, float] = defaultdict(float)
        self._hook_for = None

    # -- spans -------------------------------------------------------------

    def reset_stack(self) -> None:
        """Drop what a timeout left behind; called before each input.

        The alarm can fire between the appends of ``_open`` or the pops of
        ``_close``, so the span arrays are cut back to a common length and
        the open-span bookkeeping is cleared.
        """
        arrays = (self.span_layer, self.span_parent, self.span_start, self.span_end)
        n = min(len(a) for a in arrays)
        for a in arrays:
            del a[n:]
        del self._stack[1:]
        del self._child[1:]
        self.active = [0] * len(self.layers)

    def _open(self, layer: int) -> int:
        i = len(self.span_layer)
        self.span_layer.append(layer)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(i)
        self._child.append(0.0)
        self.active[layer] += 1
        self.span_start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        end = time.perf_counter()
        self.span_end[i] = end
        if self._stack[-1] != i:  # a timeout unwound past this span
            return
        self._stack.pop()
        covered = self._child.pop()
        layer = self.span_layer[i]
        self.active[layer] -= 1
        dur = end - self.span_start[i]
        self.calls[layer] += 1
        self.self_s[layer] += dur - covered
        if not self.active[layer]:
            self.outer_s[layer] += dur
        self._child[-1] += dur

    def _uncharged(self, start: float) -> None:
        """Keep the time since ``start`` out of the enclosing span's self time."""
        self._child[-1] += time.perf_counter() - start

    def _wrap(self, layer: int, fn, after):
        tracer = self

        def traced(*args, **kwargs):
            i = tracer._open(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if after is not None:
                start = time.perf_counter()
                try:
                    after(args, out)
                except RecursionError:
                    pass
                tracer._uncharged(start)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # -- installation ------------------------------------------------------

    def wrap(self, layer: int, fn):
        """``fn`` as a span of ``layer``, with the layer's counting hook."""
        if self._hook_for is None:
            self._hook_for = self._hooks()
        return self._wrap(layer, fn, self._hook_for.get(fn.__name__))

    def _hooks(self):
        from rowlab.harness import term_size

        idx = {layer: i for i, layer in enumerate(self.layers)}
        in_trace = idx["dynamics.reduction_trace"]
        in_gen = idx["harness.gen"]
        in_check = idx["harness.check"]
        c = self.counts

        def step_all(args, out):
            c["dynamics.step_all.redexes"] += len(out)
            if self.active[in_trace]:
                c["redexes_under_trace"] += len(out)

        def reduction_trace(args, out):
            c["dynamics.reduction_trace.steps"] += len(out[1])

        def gen_typed_term(args, out):
            c["harness.gen.nodes"] += term_size(out[0])

        def gen_subst_pair(args, out):
            c["harness.gen.nodes"] += term_size(out[0].term) + term_size(out[1].term)

        def type_equal(args, out):
            if self.active[in_gen]:
                c["type_equal_in_gen"] += 1

        def check(args, out):
            if not self.active[in_check]:  # outermost check only
                c["harness.check.obligations"] += out.cases

        def run_translation(args, out):
            c["translate_in_nodes"] += term_size(args[1].term)
            c["translate_out_nodes"] += term_size(out)

        def parse_file_str(args, out):
            c["parser_bytes"] += len(args[0].encode("utf-8"))

        hooks = {
            "step_all": step_all,
            "reduction_trace": reduction_trace,
            "gen_typed_term": gen_typed_term,
            "gen_subst_pair": gen_subst_pair,
            "type_equal": type_equal,
            "run_translation": run_translation,
            "parse_file_str": parse_file_str,
        }
        hooks.update({name: check for name in CHECKS})
        return hooks

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for k, layer in enumerate(self.layers):
            out[f"{layer}.calls"] = self.calls[k]
            out[f"{layer}.self_s"] = self.self_s[k]
        c = self.counts
        for name in EXTRA_METRICS:
            out[name] = c.get(name, 0)
        out["dynamics.redex_use_ratio"] = _ratio(
            c["dynamics.reduction_trace.steps"], c["redexes_under_trace"]
        )
        out["harness.gen.type_equal_per_node"] = _ratio(
            c["type_equal_in_gen"], c["harness.gen.nodes"]
        )
        out["translate.growth"] = _ratio(c["translate_out_nodes"], c["translate_in_nodes"])
        out["parser.bytes_per_s"] = _ratio(
            c["parser_bytes"], self.outer_s[self.layers.index("parser.parse_file_str")]
        )
        return out

    def write(self, path: Path) -> None:
        """Spans as a JSON header line followed by the four raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "layers": self.layers,
            "spans": len(self.span_layer),
            "arrays": [
                ["layer", self.span_layer.typecode],
                ["parent", self.span_parent.typecode],
                ["start_s", self.span_start.typecode],
                ["end_s", self.span_end.typecode],
            ],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.span_layer, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
