"""Span tracer that wraps hetindex's public functions from outside.

The tracer edits no source: it replaces each public function of each
package module with a timing wrapper, in every ``hetindex`` module
namespace that holds it, and restores the originals on exit.  Methods
of ``LinearFamily`` and ``NonlinearFamily`` are patched on the class.

Two kinds of wrapper share one stack, so self times stay exact:

* recorded spans (name, start, end, parent) kept in memory and
  written out at the end, for calls that do real work;
* counted calls, for hot leaves (family evaluation and the small dense
  primitives of ``linalg``), which add to counts and times but keep
  no record, so tracing costs little.

A layer's self time is the time its calls ran minus the time covered
by calls nested inside them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

#: Package modules, in call-graph order from leaves to the front end.
#: ``errors`` only defines exception types and does no work.
LAYERS = ("expr", "linalg", "flow", "parity", "z2index", "maslov",
          "bifurcation", "suites", "cli")

#: The strict interpreter runs only inside a family's evaluator, whose
#: time already belongs to the expression layer; wrapping it would only
#: multiply the tracing cost of the hottest call.
UNWRAPPED = {"expr.evaluate", "expr.eval_matrix"}

#: Hot leaf calls: counted and timed, never recorded as spans.
COUNTED = {
    "linalg.orthonormalize", "linalg.gap_distance", "linalg.spectral_split",
    "linalg.pair_matrix", "linalg.det_sign", "linalg.align_frame",
    "linalg.orthogonal_complement",
    "flow.LinearFamily.evaluate", "flow.LinearFamily.evaluate_many",
    "flow._transport_frame", "flow._transport_batched",
    "bifurcation.NonlinearFamily.evaluate",
    "bifurcation.NonlinearFamily.jacobian",
    "maslov.graph_frame", "maslov.is_lagrangian",
    "maslov.symplectic_form_matrix",
}

#: Evaluating S(lambda, t) is the expression layer's work, whichever
#: module defines the family class.
LAYER_OF = {
    "flow.LinearFamily.evaluate": "expr",
    "flow.LinearFamily.evaluate_many": "expr",
}

#: Private frame-transport helpers, wrapped only for their counters
#: (one call per propagation, integrated length from the arguments).
PRIVATE = {"flow": ("_transport_frame", "_transport_batched")}

CLASSES = {"flow": ("LinearFamily",), "bifurcation": ("NonlinearFamily",)}

#: Names whose inclusive time and nesting are tracked together: the
#: scalar and batched evaluators of one family may call each other's
#: kind through a wrapping family.
GROUP = {
    "flow.LinearFamily.evaluate": "expr.eval",
    "flow.LinearFamily.evaluate_many": "expr.eval",
}


class Tracer:
    """Spans, counts and per-layer self times of one traced interval."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []        # [name_id, start, end, parent]
        self._stack: list[list] = []       # [child_time] per open call
        self._open: list[int] = []         # indices of open recorded spans
        self._active: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.maxima: dict = {}
        self.limit_keys: set = set()
        self._keepalive: list = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name: str, group: str, layer: str, fn, args, kwargs):
        """Run ``fn`` inside a recorded span of ``layer``."""
        frame = [0.0]                      # time covered by nested calls
        self._stack.append(frame)
        self._active[group] += 1
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([self._name_id(name), 0.0, 0.0, parent])
        self._open.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._close(name, group, layer, end - start, frame)
            self._open.pop()
            span = self.spans[idx]
            span[1], span[2] = start, end

    def _close(self, name, group, layer, dur, frame):
        self._stack.pop()
        self.self_s[layer] += dur - frame[0]
        if self._stack:
            self._stack[-1][0] += dur
        self._active[group] -= 1
        if not self._active[group]:
            self.incl_s[group] += dur
        self.calls[name] += 1

    def counted(self, name: str, group: str, layer: str, fn):
        """A wrapper for a hot call: same accounting, no span record."""
        stack, active, close = self._stack, self._active, self._close
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            active[group] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, group, layer, clock() - start, frame)
        return wrapper

    def span(self, name: str, layer: str, fn, *args, **kwargs):
        """A recorded span around a call made by the benchmark itself."""
        return self.call(name, name, layer, fn, args, kwargs)

    def active(self, group: str) -> int:
        return self._active[group]

    def count(self, key: str, amount=1):
        self.counters[key] += amount

    def maximum(self, key: str, value):
        if key not in self.maxima or value > self.maxima[key]:
            self.maxima[key] = value

    def limit_call(self, fam, lam):
        if not any(f is fam for f in self._keepalive):
            self._keepalive.append(fam)
        self.limit_keys.add((id(fam), float(lam)))

    def dump(self) -> dict:
        return {"names": self.names,
                "fields": ["name", "start_s", "end_s", "parent"],
                "spans": self.spans}


# -- probes: counters computed from a call's arguments and result ------

def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _probe_eval_many(tr, args, kwargs, result):
    if tr.active("expr.eval"):     # nested in another family's evaluator
        return
    tr.count("expr.eval_calls")
    tr.count("expr.eval_points", int(result.size // (result.shape[-1] ** 2)))


def _probe_eval(tr, args, kwargs, result):
    if tr.active("expr.eval"):
        return
    tr.count("expr.eval_calls")
    tr.count("expr.eval_points")


def _probe_limits(tr, args, kwargs, result):
    tr.limit_call(_arg(args, kwargs, 0, "fam"), _arg(args, kwargs, 1, "lam"))


def _probe_transport(tr, args, kwargs, result):
    t_from = _arg(args, kwargs, 3, "t_from")
    t_to = _arg(args, kwargs, 4, "t_to")
    tr.count("flow.transport_calls")
    tr.count("flow.horizon_t", abs(float(t_to) - float(t_from)))


def _probe_lu(tr, args, kwargs, result):
    tr.count("parity.lu_nnz", int(_arg(args, kwargs, 0, "M").nnz))


def _probe_z2(tr, args, kwargs, result):
    pair = _arg(args, kwargs, 0, "pair")
    tr.count("z2index.refine_inserts", len(result.grid) - len(pair.grid))
    tr.maximum("z2index.max_depth", int(result.refinement_depth))


def _probe_census(tr, args, kwargs, result):
    tr.count("maslov.crossings", len(result))


def _probe_suite(tr, args, kwargs, result):
    results = result if isinstance(result, list) else [result]
    tr.count("suites.cases", sum(r.total for r in results))


PROBES = {
    "flow.LinearFamily.evaluate": _probe_eval,
    "flow.LinearFamily.evaluate_many": _probe_eval_many,
    "flow.asymptotic_limits": _probe_limits,
    "flow._transport_frame": _probe_transport,
    "flow._transport_batched": _probe_transport,
    "parity.sparse_det_sign": _probe_lu,
    "z2index.z2_index": _probe_z2,
    "maslov.crossing_census": _probe_census,
    "suites.suite_properties": _probe_suite,
    "suites.suite_maslov_mod2": _probe_suite,
    "suites.suite_finite_parity": _probe_suite,
    "suites.suite_orientability": _probe_suite,
    "suites.suite_decomposition": _probe_suite,
}


def _make_wrapper(tracer: Tracer, name: str, fn):
    layer = LAYER_OF.get(name, name.split(".", 1)[0])
    group = GROUP.get(name, name)
    probe = PROBES.get(name)
    if name in COUNTED:
        inner = tracer.counted(name, group, layer, fn)
    else:
        def inner(*args, **kwargs):
            return tracer.call(name, group, layer, fn, args, kwargs)

    if probe is None:
        return functools.wraps(fn)(inner)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = inner(*args, **kwargs)
        probe(tracer, args, kwargs, result)
        return result
    return wrapper


def _module_functions(mod):
    """Public functions defined in ``mod``, plus its listed private ones."""
    short = mod.__name__.rsplit(".", 1)[-1]
    out = {}
    for attr, obj in vars(mod).items():
        if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                and not attr.startswith("_")):
            out[attr] = obj
    for attr in PRIVATE.get(short, ()):
        if inspect.isfunction(getattr(mod, attr, None)):
            out[attr] = getattr(mod, attr)
    return out


class Patched:
    """Context manager: every wrapped name patched while inside."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list = []
        self.wrapped: list[str] = []
        self.missing: list[str] = []

    def __enter__(self):
        layers = {layer: importlib.import_module(f"hetindex.{layer}")
                  for layer in LAYERS}
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "hetindex" or key.startswith("hetindex.")]
        replace = {}
        for layer, mod in layers.items():
            for attr, fn in _module_functions(mod).items():
                if f"{layer}.{attr}" in UNWRAPPED:
                    continue
                replace[id(fn)] = (fn, _make_wrapper(
                    self.tracer, f"{layer}.{attr}", fn))
                self.wrapped.append(f"{layer}.{attr}")
            for attr in PRIVATE.get(layer, ()):
                if f"{layer}.{attr}" not in self.wrapped:
                    self.missing.append(f"{layer}.{attr}")
            for cls_name in CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                self._patch_class(layer, cls)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        return self

    def _patch_class(self, layer: str, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(
                    _make_wrapper(self.tracer, name, raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = _make_wrapper(self.tracer, name, raw)
            else:
                continue
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, wrapped)
            self.wrapped.append(name)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False
