"""Spans around the public functions of every ramaseries layer.

install() wraps each public function of each layer module, and rebinds the
wrapper wherever the package holds the original under any name: verify
imports eval_phi by name, cli imports run_suite, and so on. Spans stay in
memory as [name, start_ns, end_ns, parent, info] lists until the run writes
them out; self time is computed afterwards from the parent links.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

LAYERS = ("special_fn", "series_engine", "coeff_triangle", "quadrature",
          "identities", "errata", "verify", "cli")
# the span names whose arguments and results the per-layer figures need
SERIES_PUBLIC = ("eval_psi_general", "eval_phi", "eval_phi_tilde", "eval_phi_da_direct")


def _series_info(args, kw, result):
    fn_args = list(args)
    if fn_args and hasattr(fn_args[0], "alpha"):  # SeriesParams
        p = fn_args[0]
        fn_args = [p.a, p.b, p.beta, p.alpha]
    return [fn_args, kw.get("cap"), result.value, result.abs_error_bound, result.terms_used]


def _form_info(args, kw, result):
    return getattr(args[0], "form", None)


def _task_info(args, kw, result):
    return args[0][1]  # (ordinal, op, args)


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self, only=None):
        self.only = only  # span names to trace; None traces every layer
        self.spans = []
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kw):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kw)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, kw, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__module__ = fn.__module__
        return traced

    def _targets(self):
        """(span name, owner, attribute, original, info) for every traced callable."""
        out = []
        for layer in LAYERS:
            mod = importlib.import_module("ramaseries." + layer)
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                info = None
                if layer == "series_engine" and attr in SERIES_PUBLIC:
                    info = _series_info
                elif layer == "quadrature" and attr == "oracle_value":
                    info = _form_info
                out.append(("%s.%s" % (layer, attr), mod, attr, obj, info))
        verify = sys.modules["ramaseries.verify"]
        out.append(("verify.task", verify, "_run_task", verify._run_task, _task_info))
        errata = sys.modules["ramaseries.errata"]
        out.append(("errata.reproduce", errata.ErrataEntry, "reproduce",
                    errata.ErrataEntry.reproduce, None))
        return out

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "ramaseries" or n.startswith("ramaseries.")]
        for name, owner, attr, orig, info in self._targets():
            if self.only is not None and name not in self.only:
                continue
            wrapped = self._wrap(name, orig, info)
            self._rebind(owner, attr, orig, wrapped)
            if inspect.ismodule(owner):
                for mod in modules:
                    for other, obj in list(vars(mod).items()):
                        if obj is orig and (mod, other) != (owner, attr):
                            self._rebind(mod, other, orig, wrapped)

    def _rebind(self, owner, attr, orig, wrapped):
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, orig))

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


def self_times(spans):
    """Per-span self time in ns: duration minus the children's durations."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own
