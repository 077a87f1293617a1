"""Span tracing of the calls into each cqed_lab module's public functions.

The tracer wraps every public function of the layer modules at every
namespace that binds it (``propagate`` is bound in ``model``, ``spectra``,
``inference`` and the package), plus the ``least_squares`` solver bound in
``inference``.  A wrapper records one span (name, start, end, parent) and
returns exactly the object the function returned.  Spans stay in memory;
the per-layer metrics are computed from them when a pass ends.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("cli", "model", "spectra", "instrument", "inference")
SOLVER = ("inference", "least_squares")
FITTERS = ("fit_lorentzian_pair", "fit_decay", "fit_jc_cavity_spectrum")
IO_BYTES = ("spectra.write_spectrum", "spectra.read_spectrum",
            "instrument.write_signal", "instrument.read_signal")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _annotate(name: str, args, kwargs, result) -> dict:
    """Counts taken at the boundary: solver work, fit outcome, bytes."""
    if name == "inference.least_squares":
        return {"nfev": int(result.nfev), "max_nfev_hits": int(result.status == 0)}
    if name.split(".", 1)[1] in FITTERS:
        return {"converged": int(result.converged),
                "components": sum(k.startswith("rate_") for k in result.estimates)}
    if name in IO_BYTES:
        pos = 1 if ".write_" in name else 0
        return {"bytes": os.path.getsize(kwargs.get("path", args[pos]))}
    return {}


class Tracer:
    """Installs span wrappers into loaded ``cqed_lab`` modules and removes them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, 0.0, 0.0, stack[-1] if stack else None))
            stack.append(idx)
            span = spans[idx]
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.info = _annotate(name, args, kwargs, result)
            return result
        return wrapper

    def targets(self) -> dict:
        """function object -> span name, for everything to be wrapped."""
        found = {}
        for layer in LAYERS:
            mod = sys.modules[f"cqed_lab.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    found[obj] = f"{layer}.{attr}"
        solver = getattr(sys.modules[f"cqed_lab.{SOLVER[0]}"], SOLVER[1])
        found[solver] = ".".join(SOLVER)
        return found

    def install(self) -> None:
        """Wrap each target at every ``cqed_lab`` namespace that binds it."""
        targets = self.targets()
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        namespaces = [m for n, m in sys.modules.items()
                      if n == "cqed_lab" or n.startswith("cqed_lab.")]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                try:
                    wrapper = wrappers.get(obj)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def take(self) -> list:
        """Return the spans recorded so far and start a new list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def self_times(spans: list) -> list:
    """Each span's duration minus the time its direct children cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def layer_metrics(spans: list) -> dict:
    """Per-function and per-layer counts and times of one traced pass.

    ``<layer>.<function>.s`` is the time in outermost calls only, so a
    recursive call is not counted twice; ``<layer>.self_s`` is time in that
    layer's functions not covered by a child span.
    """
    own = self_times(spans)
    out: dict = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    def nested(i, same):
        anc = spans[i].parent
        while anc is not None:
            if same(spans[anc]):
                return True
            anc = spans[anc].parent
        return False

    for i, s in enumerate(spans):
        add(f"{s.name}.calls", 1)
        add(f"{s.layer}.calls", 1)
        add(f"{s.layer}.self_s", own[i])
        if not nested(i, lambda a: a.name == s.name):
            add(f"{s.name}.s", s.duration)
        if not nested(i, lambda a: a.layer == s.layer):
            add(f"{s.layer}.s", s.duration)
        for key, value in s.info.items():
            add(f"{s.name}.{key}", value)
        if s.name == "inference.least_squares":
            fitter = _enclosing_fitter(spans, s.parent)
            if fitter is not None:
                add(f"{fitter}.nfev", s.info.get("nfev", 0))
    return out


def _enclosing_fitter(spans, idx):
    while idx is not None:
        name = spans[idx].name
        if name.split(".", 1)[1] in FITTERS:
            return name
        idx = spans[idx].parent
    return None
