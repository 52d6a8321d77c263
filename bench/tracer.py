"""Outside-in span tracer for qrfkit, used by the benchmark's traced run only.

The tracer wraps every public function defined in each layer module and
rebinds the wrapper wherever a qrfkit module holds the original: module
globals (so ``from .qstate import partial_trace`` inside ``measures`` is
traced, as are the package re-exports) and dicts held in module globals
(``cli._RUNNERS``). Nothing under ``src/`` is edited. Untraced runs never
construct a Tracer.

Each span is (span id, parent span id, function id, start, end), kept in
memory and tagged with the benchmark call that caused it. A span's self time
is its duration minus the durations of its child spans; spans nest strictly
because every call is synchronous on one thread.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import sys
import time

import numpy as np

PACKAGE = "qrfkit"
# The package's modules, used as layers. `errors` holds no work.
LAYERS = ("cli", "rindler", "transference", "perspective", "measures", "qstate")

SPAN_DTYPE = np.dtype(
    [("call", "u4"), ("span", "i8"), ("parent", "i8"), ("fn", "u2"), ("t0", "f8"), ("t1", "f8")]
)


def public_functions() -> list[tuple[str, object]]:
    """("layer.name", function) for every public function a layer module defines."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                out.append((f"{layer}.{name}", obj))
    return out


def _package_namespaces() -> list[dict]:
    """Every namespace in which a qrfkit module can hold a function reference."""
    spaces = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        ns = vars(mod)
        spaces.append(ns)
        spaces.extend(v for v in ns.values() if type(v) is dict)
    return spaces


class Tracer:
    def __init__(self):
        fns = public_functions()
        self.names = [name for name, _ in fns]
        self._spans: list[tuple] = []
        self._stack = [0]
        self._ids = itertools.count(1)
        self._wrappers = {id(fn): (fn, self._wrap(fn, i)) for i, (_, fn) in enumerate(fns)}
        self._rebound: list[tuple[dict, object, object]] = []
        self._chunks: list[np.ndarray] = []

    def _wrap(self, fn, fid: int):
        spans, stack, ids, clock = self._spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, fid, t0, t1))

        return traced

    def _install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer is already installed")
        for ns in _package_namespaces():
            for key, value in ns.items():
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebound.append((ns, key, value))
        for ns, key, original in self._rebound:
            ns[key] = self._wrappers[id(original)][1]

    def _uninstall(self) -> None:
        for ns, key, original in self._rebound:
            ns[key] = original
        self._rebound.clear()

    @contextlib.contextmanager
    def active(self, call_id: int):
        """Trace everything qrfkit does inside the block as benchmark call call_id."""
        self._install()
        try:
            yield
        finally:
            self._uninstall()
            rows = [(call_id,) + s for s in self._spans]
            self._chunks.append(np.array(rows, dtype=SPAN_DTYPE))
            self._spans.clear()

    def spans(self) -> np.ndarray:
        if not self._chunks:
            return np.zeros(0, dtype=SPAN_DTYPE)
        return np.concatenate(self._chunks)

    def totals(self) -> dict[str, tuple[int, float]]:
        """{"layer.name": (calls, self seconds)} over every span recorded."""
        s = self.spans()
        if s.size == 0:
            return {name: (0, 0.0) for name in self.names}
        dur = s["t1"] - s["t0"]
        # Span ids are dense from the first recorded span. A parent of 0 is the
        # benchmark itself: it maps to slot 0, which no span occupies.
        base = int(s["span"].min()) - 1
        parent = np.where(s["parent"] == 0, 0, s["parent"] - base)
        child = np.bincount(parent, weights=dur, minlength=int(s["span"].max()) - base + 1)
        self_time = dur - child[s["span"] - base]
        n = len(self.names)
        calls = np.bincount(s["fn"], minlength=n)
        self_sum = np.bincount(s["fn"], weights=self_time, minlength=n)
        return {name: (int(calls[i]), float(self_sum[i])) for i, name in enumerate(self.names)}

    def write(self, path: str) -> None:
        """Save every span, with the function names, as a compressed .npz."""
        np.savez_compressed(path, spans=self.spans(), names=np.array(self.names))
