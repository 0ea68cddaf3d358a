"""Per-layer tracing, installed from outside the program.

A layer is a module of ``padic_tate``.  ``Tracer.install`` wraps the public
functions of every span layer (``SPAN_LAYERS``) and rebinds each wrapper in
every ``padic_tate`` namespace that bound the function by name, so that
``cli``'s own ``p_exp`` or ``tate``'s own ``curve_equation_residual`` are
counted too.  ``PadicElement`` (layer ``field``) and ``DualElement`` (layer
``dual``) are wrapped on the class, so internal calls such as ``__sub__``
into ``__add__`` are counted as well; there are millions of those calls, so
they are aggregated into per-op counters and time sums instead of spans.
The module-level functions of ``field`` (``make_field``, ``arithmetic``,
``invert``, ...) are not wrapped: the element operations they make are
counted on the class.

Every wrapped call adds its duration to its parent's child time, so a
layer's self time is its calls' durations minus their children, and its
busy time is the duration of its outermost calls.  Spans carry a name,
start, end, parent span and request id; they are kept in memory (at most
``MAX_SPANS``) and written by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

MAX_SPANS = 100_000

SPAN_LAYERS = ("balls", "cli", "lattice", "parsing", "series", "tate", "weierstrass")

# PadicElement entry points and the counter each one feeds
FIELD_METHODS = {
    "__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add",
    "__neg__": "add",
    "__mul__": "mul", "__rmul__": "mul", "__pow__": "mul",
    "_scale_rational": "scale",
    "invert": "inv", "__truediv__": "inv", "__rtruediv__": "inv",
    "truncate": "trunc",
    "valuation": "other", "valuation_pi": "other", "is_indistinguishable": "other",
    "pi_digits": "other", "zero": "other", "one": "other", "from_rational": "other",
    "from_int": "other", "from_pi_digits": "other", "uniformizer": "other",
}
DUAL_METHODS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
                "__rmul__", "invert", "__truediv__", "__rtruediv__", "__pow__",
                "seed", "constant")


class Tracer:
    def __init__(self):
        self.active = False
        self.request = -1
        self.calls = defaultdict(int)       # (layer, op) -> calls
        self.self_s = defaultdict(float)    # layer -> seconds
        self.busy_s = defaultdict(float)    # layer -> seconds in outermost calls
        self.errors = defaultdict(int)      # layer -> calls that raised
        self.field_digits = 0               # sum of operand rel_prec
        self.spans: list = []
        self.dropped = 0
        self._stack: list = []              # [child seconds, enclosing span id]
        self._depth = defaultdict(int)
        self._restore: list = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, layer: str, op: str, span: bool, digits_of=None):
        tracer, stack, depth = self, self._stack, self._depth
        key = (layer, op)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[key] += 1
            if digits_of is not None:
                tracer.field_digits += sum(a.abs_prec - a.shift for a in args
                                           if type(a) is digits_of)
            parent = stack[-1][1] if stack else -1
            sid = parent
            if span:
                if len(tracer.spans) < MAX_SPANS:
                    sid = len(tracer.spans)
                    tracer.spans.append(None)
                else:
                    tracer.dropped += 1
            frame = [0.0, sid]
            stack.append(frame)
            depth[layer] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                tracer.errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                depth[layer] -= 1
                dur = end - start
                tracer.self_s[layer] += dur - frame[0]
                if not depth[layer]:
                    tracer.busy_s[layer] += dur
                if stack:
                    stack[-1][0] += dur
                if sid != parent:
                    tracer.spans[sid] = (f"{layer}.{op}", start, end, parent, tracer.request)

        return wrapper

    def _wrap_class(self, cls, layer: str, names, digits_of=None) -> None:
        for name in names:
            raw = inspect.getattr_static(cls, name, None)
            if raw is None:
                continue
            op = names[name] if isinstance(names, dict) else name
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(raw.__func__, layer, op, False))
            else:
                wrapped = self._wrap(raw, layer, op, False, digits_of)
            setattr(cls, name, wrapped)
            self._restore.append((cls, name, raw))

    def install(self) -> None:
        """Wrap every layer; the program must already be imported."""
        from padic_tate.dual import DualElement
        from padic_tate.field import PadicElement

        self._wrap_class(PadicElement, "field", FIELD_METHODS, PadicElement)
        self._wrap_class(DualElement, "dual", DUAL_METHODS)
        wrappers = {}
        for layer in SPAN_LAYERS:
            mod = sys.modules[f"padic_tate.{layer}"]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(obj, layer, name, True)
        for modname, mod in list(sys.modules.items()):
            if modname != "padic_tate" and not modname.startswith("padic_tate."):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    setattr(mod, name, wrappers[id(obj)])
                    self._restore.append((mod, name, obj))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "busy_s": dict(self.busy_s), "errors": dict(self.errors),
                "field_digits": self.field_digits}

    def reset(self) -> None:
        """Zero the figures; the installed wrappers keep the same containers."""
        for table in (self.calls, self.self_s, self.busy_s, self.errors):
            table.clear()
        self.field_digits = 0
        self.spans.clear()
        self.dropped = 0

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for sid, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, request = span
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")
