"""Outside-in span tracing of chatquant's layers.

The package is not edited: ``install`` replaces each public callable of
the traced modules with a wrapper that records a span, at every module
attribute the callable is bound to, and ``Tracer.restore`` puts the
originals back.  Spans stay in memory (compact arrays) until the
benchmark ends; ``Tracer.summary`` then derives call counts, inclusive
time and self time per span name.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = (
    "probcore",
    "sensitivity",
    "quantizer",
    "distortion",
    "allocation",
    "chatnet",
    "simulator",
    "experiments",
)

# Methods traced on their class, so every instance is covered.
METHODS = (
    ("probcore", "Pdf", "sample"),
    ("probcore", "Pdf", "integrate"),
    ("probcore", "Pdf", "cdf"),
    ("probcore", "Pdf", "ppf"),
    ("sensitivity", "SensitivityProfile", "__call__"),
    ("quantizer", "Quantizer", "quantize"),
)

CE_DECODER = "conditional-expectation"


def ce_bytes(trials: int, n_sensors: int) -> int:
    """Bytes of one float64 (trials, 2N-1 segments, nodes) array in the
    conditional-expectation decoder, computed from its shape; the node
    count mirrors the Gauss-Legendre order the decoder picks."""
    nodes = max(4, (n_sensors + 2) // 2)
    return trials * (2 * n_sensors - 1) * nodes * 8


class Tracer:
    """Span recorder shared by every wrapper of one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def name(self, name: str) -> int:
        with self._lock:
            nid = self._ids.get(name)
            if nid is None:
                nid = self._ids[name] = len(self.names)
                self.names.append(name)
            return nid

    def open(self, nid: int) -> tuple[list[int], int]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack and stack is not self._main_stack:
            # A pool thread's first span belongs to the span that was
            # running in the main thread, which started the pool.
            parent = self._main_stack[-1]
        else:
            parent = -1
        with self._lock:
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(parent)
            self.start.append(time.perf_counter())
            self.end.append(float("nan"))
        stack.append(idx)
        return stack, idx

    def close(self, stack: list[int], idx: int) -> None:
        self.end[idx] = time.perf_counter()
        stack.pop()

    def count(self, key: str, n: int) -> None:
        with self._lock:
            self.counters[key] += n

    def record_max(self, key: str, value: int) -> None:
        with self._lock:
            self.maxima[key] = max(self.maxima[key], value)

    def wrap(self, fn, name: str):
        nid = self.name(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, idx = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(stack, idx)

        return traced

    # -- summary --------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the part of its interval
        that its children cover; children running in pool threads may
        overlap, so their intervals are merged before subtracting.
        """
        start_a = np.frombuffer(self.start, dtype=float)
        end_a = np.frombuffer(self.end, dtype=float)
        parent_a = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        dur = end_a - start_a
        covered = np.zeros_like(dur)
        has_parent = np.flatnonzero(parent_a >= 0)
        order = has_parent[np.lexsort((start_a[has_parent], parent_a[has_parent]))]
        start, end, parent = self.start.tolist(), self.end.tolist(), self.parent.tolist()
        cur_parent, run_lo, run_hi = -1, 0.0, 0.0
        for i in order.tolist():
            p = parent[i]
            lo = max(start[i], start[p])
            hi = min(end[i], end[p])
            if p != cur_parent:
                if cur_parent >= 0:
                    covered[cur_parent] += run_hi - run_lo
                cur_parent, run_lo, run_hi = p, lo, hi
            elif lo > run_hi:
                covered[p] += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if cur_parent >= 0:
            covered[cur_parent] += run_hi - run_lo
        self_time = np.maximum(dur - covered, 0.0)
        out = {}
        for nid, name in enumerate(self.names):
            sel = names == nid
            out[name] = {
                "calls": int(sel.sum()),
                "s": float(dur[sel].sum()),
                "self_s": float(self_time[sel].sum()),
            }
        return out

    def dump(self, path) -> None:
        """Write every span (name, start, end, parent) to an .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )

    # -- patching -------------------------------------------------------

    def patch(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value``, remembering the original."""
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put back every original callable, newest patch first."""
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


def span_cost(calls: int = 200_000) -> float:
    """Seconds a span wrapper adds to one call, timed on a no-op."""

    def noop():
        return None

    traced = Tracer().wrap(noop, "noop")
    t = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - t
    t = time.perf_counter()
    for _ in range(calls):
        traced()
    return (time.perf_counter() - t - bare) / calls


def _quad_wrapper(tracer: Tracer, real_quad):
    """Counts quad calls and integrand evaluations; records no span, so
    integration time stays in ``integrate_adaptive``'s self time."""

    @functools.wraps(real_quad)
    def quad(func, a, b, *args, **kwargs):
        evals = [0]

        def counted(x, *fargs):
            evals[0] += 1
            return func(x, *fargs)

        try:
            return real_quad(counted, a, b, *args, **kwargs)
        finally:
            tracer.count("probcore.quad.calls", 1)
            tracer.count("probcore.integrand.evals", evals[0])

    return quad


def _decode_wrapper(tracer: Tracer, real_decode):
    """Names each decode span after its decoder and computes the size of
    the conditional-expectation decoder's largest array per chunk."""

    @functools.wraps(real_decode)
    def decode(decoder, indices, *args, **kwargs):
        nid = tracer.name(f"simulator.decode.{decoder}")
        if decoder == CE_DECODER:
            trials, n_sensors = np.atleast_2d(np.asarray(indices)).shape
            tracer.record_max(
                "simulator.decode.ce_bytes_per_chunk", ce_bytes(trials, n_sensors)
            )
        stack, idx = tracer.open(nid)
        try:
            return real_decode(decoder, indices, *args, **kwargs)
        finally:
            tracer.close(stack, idx)

    return decode


def _sample_wrapper(tracer: Tracer, real_sample):
    traced = tracer.wrap(real_sample, "probcore.Pdf.sample")

    @functools.wraps(real_sample)
    def sample(self, rng, size=None):
        tracer.count("probcore.Pdf.sample.draws", int(np.prod(size if size is not None else 1)))
        return traced(self, rng, size)

    return sample


def install(tracer: Tracer) -> None:
    """Wrap the traced layers' public callables wherever they are bound.

    Every loaded ``chatquant`` module, the package itself included, is
    scanned, so a function imported by name into another module (say
    ``waterfill_kkt`` in both ``allocation`` and ``experiments``) is
    replaced in both and no call escapes the count.  Callers outside the
    package must look functions up through the package at call time.
    """
    pkg = "chatquant"
    simulator = sys.modules[f"{pkg}.simulator"]
    wrappers: dict[int, object] = {
        id(simulator.decode): _decode_wrapper(tracer, simulator.decode)
    }
    for layer in LAYERS:
        mod = sys.modules[f"{pkg}.{layer}"]
        for attr, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
                and id(obj) not in wrappers
            ):
                wrappers[id(obj)] = tracer.wrap(obj, f"{layer}.{attr}")

    modules = [m for n, m in sys.modules.items() if n == pkg or n.startswith(pkg + ".")]
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                tracer.patch(mod, attr, wrapper)

    probcore = sys.modules[f"{pkg}.probcore"]
    tracer.patch(probcore, "quad", _quad_wrapper(tracer, probcore.quad))

    for layer, cls_name, meth in METHODS:
        cls = getattr(sys.modules[f"{pkg}.{layer}"], cls_name)
        real = getattr(cls, meth)
        if (layer, cls_name, meth) == ("probcore", "Pdf", "sample"):
            wrapped = _sample_wrapper(tracer, real)
        else:
            wrapped = tracer.wrap(real, f"{layer}.{cls_name}.{meth}")
        tracer.patch(cls, meth, wrapped)
