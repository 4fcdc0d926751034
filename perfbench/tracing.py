"""Spans and counters around qspeed's public calls, installed from outside.

Nothing here edits qspeed's files.  ``Tracer.install`` replaces each traced
function, in every qspeed module namespace that binds it (and on the class
for methods), by a wrapper; ``uninstall`` puts the originals back.

* ``Tracer`` records a span per call: a span's self time is its duration
  minus the time covered by its direct child spans.  Spans are folded
  into per-name totals as they close, so memory stays flat however long
  the traced phase runs; ``summary()`` gives the totals at the end.  A
  recursive call of the function already on top of the stack (jsonio's
  ``dump_report`` recurses once per value) joins the open span.
* ``Counter`` counts the numpy.linalg and scipy.linalg calls made while
  it is installed, and the Python-level function calls made inside
  ``oracle.brute_force_max`` (by a profile hook, which is why counting
  runs apart from timing).

This module imports neither numpy nor qspeed at import time, so
cli_traced.py can load it without changing what it measures.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time

# (module, attribute) pairs; "Class.method" names a method.  The metric
# name of a span is "<module>.<function>", e.g. "quantum.state_at".  Only
# reported functions are traced, so no unreported span hides time from
# its parent's self time.
TRACED = (
    ("quantum", "ParametricFamily.state_at"),
    ("quantum", "ParametricFamily.derivative_at"),
    ("quantum", "qfi"),
    ("quantum", "trace_speed"),
    ("quantum", "schatten_speed"),
    ("quantum", "optimal_povm"),
    ("quantum", "induced_parametric"),
    ("matcore", "schatten_norm"),
    ("matcore", "require_density"),
    ("classical", "gen_fisher"),
    ("bounds", "witness"),
    ("bounds", "superop_norm"),
    ("oracle", "brute_force_max"),
    ("oracle", "finite_diff_speed"),
    ("oracle", "random_instances"),
    ("estimation", "median_dispersion_vs_bound"),
    ("estimation", "cramer_rao_check"),
    ("estimation", "discrimination_game"),
    ("jsonio", "load_family"),
    ("jsonio", "dump_report"),
)

LINALG = (("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh"),
          ("numpy.linalg", "svd"), ("scipy.linalg", "expm"))


def metric_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def _qspeed_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qspeed" or name.startswith("qspeed."))]


class _Patcher:
    """Swaps functions for wrappers and restores them."""

    def __init__(self):
        self._undo = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch(self, module: str, attr: str, make_wrapper):
        """Replace module.attr (or module.Class.method) by make_wrapper(orig).

        Every qspeed module global bound to the same object is replaced
        too, so ``from .matcore import schatten_norm`` call sites are
        covered.
        """
        mod = importlib.import_module(module if "." in module
                                      else "qspeed." + module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            self._set(cls, meth, make_wrapper(cls.__dict__[meth]))
            return
        orig = getattr(mod, attr)
        wrapper = make_wrapper(orig)
        owners = [mod] + _qspeed_modules()
        seen = set()
        for owner in owners:
            if id(owner) in seen:
                continue
            seen.add(id(owner))
            for name, value in list(vars(owner).items()):
                if value is orig:
                    self._set(owner, name, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer(_Patcher):
    """Per-name span totals: inclusive seconds, self seconds, calls."""

    def __init__(self):
        super().__init__()
        self.totals: dict[str, list] = {}
        self._stack: list = []  # [name, start, child_seconds]

    @contextlib.contextmanager
    def span(self, name: str):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _open(self, name: str):
        self._stack.append([name, time.perf_counter(), 0.0])

    def _close(self):
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        if self._stack:
            self._stack[-1][2] += dur
        tot = self.totals.setdefault(name, [0.0, 0.0, 0])
        tot[0] += dur
        tot[1] += dur - child
        tot[2] += 1

    def install(self):
        for module, attr in TRACED:
            self.patch(module, attr, self._wrapper(metric_name(module, attr)))

    def _wrapper(self, name: str):
        def make(fn):
            def traced(*args, **kwargs):
                if self._stack and self._stack[-1][0] == name:
                    return fn(*args, **kwargs)
                self._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close()
            traced.__wrapped__ = fn
            return traced
        return make

    def summary(self) -> dict:
        """name -> {"total_s", "self_s", "calls"}."""
        return {k: {"total_s": v[0], "self_s": v[1], "calls": v[2]}
                for k, v in self.totals.items()}


class Counter(_Patcher):
    """Exact counts: linalg calls, and Python calls inside the oracle."""

    def __init__(self):
        super().__init__()
        self.calls: dict[str, int] = {}
        self.searches = 0
        self.pycalls = 0

    def install(self):
        for module, attr in LINALG:
            self.patch(module, attr, self._counting("linalg." + attr))
        self.patch("oracle", "brute_force_max", self._profiled)

    def _counting(self, name: str):
        def make(fn):
            def counted(*args, **kwargs):
                self.calls[name] = self.calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            counted.__wrapped__ = fn
            return counted
        return make

    def _profiled(self, fn):
        def hook(frame, event, arg):
            # the counting wrappers' own frames are not qspeed's calls
            if event == "call" and frame.f_code.co_filename != __file__:
                self.pycalls += 1

        def profiled(*args, **kwargs):
            self.searches += 1
            previous = sys.getprofile()
            sys.setprofile(hook)
            try:
                return fn(*args, **kwargs)
            finally:
                sys.setprofile(previous)
        profiled.__wrapped__ = fn
        return profiled
