"""Outside-in tracing of qmodular's layer functions.

The tracer replaces each layer function by a wrapper at every name a caller
looks it up by: module globals that imported it (``levels`` binds
``wp_hat`` and ``delta`` at import, ``identities`` and ``cli`` bind
``expand_expr``) and, for methods, the class attribute (``QSeries.__mul__``,
``EtaQuotient.expand``).  Nothing inside the package changes.

Each wrapped call records a span: the layer function, the span that was
open when it started (its parent), its start and end, and the operation it
served.  Spans stay in memory until the session ends.  A span's self time is
its duration minus the time of its wrapped child spans, where a child's time
includes the wrapper's own bookkeeping, so tracing cost never lands in a
layer's self time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _observe_mul(tracer, args, out):
    a, b = args
    tracer.counts["qseries.mul.out_terms"] += len(out.coeffs)
    if any(type(c) is not int for c in a.coeffs) or any(
        type(c) is not int for c in b.coeffs
    ):
        tracer.counts["qseries.mul.fraction_calls"] += 1


def _observe_basis(tracer, args, out):
    key = ("levels.basis",) + tuple(args[:3])
    if key in tracer.seen:
        tracer.counts["levels.basis.repeats"] += 1
    tracer.seen.add(key)


# (layer function, defining module, attribute, observer).  The attribute is
# "Class.method" for methods.  expr.val_lower recurses through its own module
# global; that binding is left alone so one outside call is one span.
TARGETS = (
    ("qseries.mul", "qseries", "QSeries.__mul__", _observe_mul),
    ("qseries.invert", "qseries", "QSeries.invert", None),
    ("qseries.pow", "qseries", "QSeries.pow", None),
    ("qseries.add", "qseries", "QSeries.__add__", None),
    ("qseries.scale", "qseries", "QSeries.scale", None),
    ("qseries.sigma_series", "qseries", "sigma_series", None),
    ("eta.expand", "eta", "EtaQuotient.expand", None),
    ("weierstrass.wp_hat", "weierstrass", "wp_hat", None),
    ("weierstrass.wpt_hat", "weierstrass", "wpt_hat", None),
    ("weierstrass.eisenstein", "weierstrass", "eisenstein", None),
    ("weierstrass.phi_level", "weierstrass", "phi_level", None),
    ("expr.val_lower", "expr", "val_lower", None),
    ("expr.print_expr", "expr", "print_expr", None),
    ("levels.expand_expr", "levels", "expand_expr", None),
    ("levels.basis", "levels", "basis", _observe_basis),
    ("levels.reduce", "levels", "reduce", None),
    ("identities.check", "identities", "check", None),
    ("cli.parse_expr", "cli", "parse_expr", None),
)
RECURSIVE = {"expr.val_lower"}

# memoized functions whose hit ratio is read from cache_info()
CACHES = (
    ("eta.euler_function", "eta", "euler_function"),
    ("weierstrass.wp_hat", "weierstrass", "wp_hat"),
    ("weierstrass.wpt_hat", "weierstrass", "wpt_hat"),
)


def metric_names():
    """Every per-layer metric a traced session reports, in report order."""
    names = []
    for name, *_ in TARGETS:
        names += [f"{name}.calls", f"{name}.self_s"]
    names += ["qseries.mul.out_terms", "qseries.mul.fraction_share"]
    names += [f"{name}.hit_ratio" for name, _, _ in CACHES]
    names += ["levels.basis.repeat_ratio"]
    return names


def self_times(spans):
    """Self time of each span, in the clock's unit: its duration minus the
    outer duration of every span whose parent it is."""
    own = [end - start for _, _, start, end, _, _ in spans]
    for _, parent, _, _, outer, _ in spans:
        if parent >= 0:
            own[parent] -= outer
    return own


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names = []
        # (name id, parent index or -1, start, end, outer duration, op)
        self.spans = []
        self.op = -1
        self.counts = defaultdict(int)
        self.seen = set()
        self._stack = [-1]
        self._undo = []
        self._caches = {}

    def wrap(self, name, fn, observe=None):
        """A wrapper of fn that records a span named name per call."""
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            outer_start = clock()
            i = len(spans)
            spans.append(None)
            stack.append(i)
            done = False
            start = clock()
            try:
                out = fn(*args, **kwargs)
                done = True
            finally:
                end = clock()
                stack.pop()
                if done and observe is not None:
                    observe(self, args, out)
                spans[i] = (nid, stack[-1], start, end, clock() - outer_start, self.op)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target at each of its bindings in the loaded package."""
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "qmodular" or name.startswith("qmodular.")
        }
        for name, home, attr in CACHES:
            fn = getattr(mods[f"qmodular.{home}"], attr)
            if hasattr(fn, "cache_info"):
                self._caches[name] = fn
        for name, home, attr, observe in TARGETS:
            owner = mods[f"qmodular.{home}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                w = self.wrap(name, fn, observe)
                # QSeries.pow is also bound as __pow__
                for key, val in list(vars(cls).items()):
                    if val is fn:
                        self._set(cls, key, w)
                continue
            fn = getattr(owner, attr)
            w = self.wrap(name, fn, observe)
            for mod in mods.values():
                if name in RECURSIVE and mod is owner:
                    continue
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._set(mod, key, w)

    def _set(self, obj, key, value):
        self._undo.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def uninstall(self):
        for obj, key, old in reversed(self._undo):
            setattr(obj, key, old)
        self._undo.clear()

    def metrics(self, op_scale=None):
        """Per-layer metrics of the spans recorded so far, plus the sum of
        all unscaled self times (seconds) under the key "self_total_s".
        op_scale[i], when given, multiplies the self times of op i."""
        calls = defaultdict(int)
        own = defaultdict(int)
        times = self_times(self.spans)
        for (nid, *_, op), t in zip(self.spans, times):
            calls[nid] += 1
            own[nid] += t * op_scale[op] if op_scale and op >= 0 else t
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = own[nid] / 1e9
        mul_calls = out.get("qseries.mul.calls", 0)
        out["qseries.mul.out_terms"] = self.counts["qseries.mul.out_terms"]
        out["qseries.mul.fraction_share"] = _ratio(
            self.counts["qseries.mul.fraction_calls"], mul_calls
        )
        for name, _, _ in CACHES:
            fn = self._caches.get(name)
            info = fn.cache_info() if fn is not None else None
            out[f"{name}.hit_ratio"] = (
                _ratio(info.hits, info.hits + info.misses) if info else 0.0
            )
        out["levels.basis.repeat_ratio"] = _ratio(
            self.counts["levels.basis.repeats"], out.get("levels.basis.calls", 0)
        )
        out["self_total_s"] = sum(times) / 1e9
        return out


def _ratio(num, den):
    return num / den if den else 0.0
