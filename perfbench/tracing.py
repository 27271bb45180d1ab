"""Span tracing of chiralbv's public functions for the per-layer metrics.

Each traced function is wrapped at every ``chiralbv`` module attribute that
binds it (``vertex.ibp_decompose`` as well as ``algebra.ibp_decompose``), so
calls between modules are seen too.  A call records one span (layer,
start, end, parent span, request id) in memory; work counts read from the
call's inputs and outputs accumulate per layer.  Self time is a span's
duration minus its child spans', derived after the run.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from collections import defaultdict


def _terms(p) -> int:
    return len(p._terms)


def _mode_terms(x) -> int:
    return sum(len(p._terms) for p in x.parts.values())


def _tpoly_terms(tp) -> int:
    return sum(len(p._terms) for p in tp.values())


def _mode_pairs(args):
    x, y = args[0], args[1]
    return sum(len(a._terms) * len(b._terms) for a in x.parts.values() for b in y.parts.values())


# layer -> (counts read from the arguments, counts read from the result,
#           the counts reported as metrics)
LAYERS = {
    "vertex.mode_bracket": (
        lambda a: {"pairs": _mode_pairs(a)},
        lambda r: {"out_terms": _mode_terms(r)},
        ("pairs", "out_terms"),
    ),
    "vertex.nth_product": (
        lambda a: {"pairs": _terms(a[0]) * _terms(a[2])},
        lambda r: {"out_terms": _terms(r)},
        ("pairs", "out_terms"),
    ),
    "vertex.mode_normal_form": (
        lambda a: {"in_terms": _mode_terms(a[0])},
        lambda r: {"out_terms": _mode_terms(r)},
        ("in_terms", "out_terms"),
    ),
    "vertex.mc_residual": (None, None, ()),
    "algebra.ibp_decompose": (None, None, ()),
    "correspondence.phi": (None, lambda r: {"out_terms": _mode_terms(r)}, ("out_terms",)),
    "correspondence.substitute_background": (
        None, lambda r: {"out_terms": _tpoly_terms(r)}, ("out_terms",)),
    "correspondence.shift_exp_t": (None, lambda r: {"out_terms": _tpoly_terms(r)}, ("out_terms",)),
    # reported as kept_ratio = out_terms / in_terms
    "correspondence.restrict_index_weight": (
        lambda a: {"in_terms": _terms(a[0])},
        lambda r: {"out_terms": _terms(r)},
        (),
    ),
    "correspondence.morphism_defect": (None, None, ()),
    "correspondence.w_generator": (None, None, ()),
    "moyal.fedosov_solve": (None, None, ()),
    "moyal.star": (None, lambda r: {"out_terms": _terms(r)}, ("out_terms",)),
    "moyal.star_bracket": (None, None, ()),
    "moyal.delta_inv": (None, None, ()),
    "psm.build_psm": (None, None, ()),
    "psm.psm_mc_check": (None, None, ()),
    "psm.trivector_functional": (None, None, ()),
}
MODULES = ("vertex", "algebra", "correspondence", "moyal", "psm")
REQUEST = "request"


class Tracer:
    """In-memory span recorder; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.names = [REQUEST, *LAYERS]
        self.spans = []  # (name index, start, end, parent span or -1, request id)
        self.counts = defaultdict(lambda: defaultdict(int))
        self._stack = []
        self._request = -1
        self._patched = []

    def _wrap(self, name_idx: int, name: str, fn, before, after):
        spans, stack, counts = self.spans, self._stack, self.counts[name]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                for k, v in before(args).items():
                    counts[k] += v
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_idx, start, end, parent, self._request)
            if after is not None:
                for k, v in after(result).items():
                    counts[k] += v
            return result

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "chiralbv" or n.startswith("chiralbv.")]
        for idx, name in enumerate(self.names[1:], start=1):
            mod, attr = name.split(".")
            fn = getattr(importlib.import_module(f"chiralbv.{mod}"), attr)
            wrapper = self._wrap(idx, name, fn, *LAYERS[name][:2])
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, fn))

    def uninstall(self):
        for m, key, fn in reversed(self._patched):
            setattr(m, key, fn)
        self._patched.clear()

    def request(self, request_id: int, fn, *args):
        """Run ``fn(*args)`` as the root span of one request."""
        self._request = request_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (0, start, end, -1, request_id)

    def self_times(self):
        """Per-layer (calls, self seconds), from the spans alone."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i, (name_idx, start, end, _, _) in enumerate(self.spans):
            name = self.names[name_idx]
            calls[name] += 1
            self_s[name] += end - start - child[i]
        return calls, self_s

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"fields": ["layer", "start_s", "end_s", "parent", "request"]}) + "\n")
            for name_idx, start, end, parent, req in self.spans:
                fh.write(json.dumps([self.names[name_idx], start, end, parent, req]) + "\n")


def layer_metrics(tracer: Tracer, cache_delta, overhead_ratio: float) -> dict:
    """The per-layer metric table of one traced pass."""
    calls, self_s = tracer.self_times()
    out = {}
    for name, (_, _, reported) in LAYERS.items():
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
        for key in reported:
            out[f"{name}.{key}"] = (tracer.counts[name][key], "count")
    rw = tracer.counts["correspondence.restrict_index_weight"]
    out["correspondence.restrict_index_weight.kept_ratio"] = (
        rw["out_terms"] / rw["in_terms"] if rw["in_terms"] else 0.0, "ratio")
    hits, misses = cache_delta
    out["algebra.ibp_slice_cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    out["algebra.ibp_slice_cache.misses"] = (misses, "count")
    total = sum(end - start for name_idx, start, end, parent, _ in tracer.spans if name_idx == 0)
    out["vertex.mode_bracket.self_share"] = (self_s["vertex.mode_bracket"] / total, "ratio")
    for mod in MODULES:
        share = sum(v for k, v in self_s.items() if k.startswith(mod + "."))
        out[f"{mod}.self_share"] = (share / total, "ratio")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
