"""Span tracer that wraps the public functions of every mrilqr module.

While active, each public function defined in a module of the package is
replaced by a wrapper in every module namespace that binds it (for
example ``sample_plant`` is bound in ``discretize``, ``riccati``,
``controllability``, ``cli`` and the package itself), so calls are seen
whichever name they go through. Each call records a span
``[name, start_ns, end_ns, parent]``; spans stay in memory until
``write_spans`` and self time is derived afterwards as a span's duration
minus the durations of its direct children. Leaving ``active()`` puts the
original functions back.

Counters are kept at the same boundaries: call counts, distinct hashed
inputs for the functions listed in ``DIGESTED``, and values read from
return values or exceptions (Riccati iterations, dense simulation rows).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import importlib
import inspect
import pkgutil
import time
from collections import Counter, defaultdict

import numpy as np

import mrilqr
from mrilqr.errors import DareDivergenceError

ROOT_SPAN = "bench.op"

#: Functions whose distinct inputs are counted (repeated solves show as a ratio < 1).
DIGESTED = ("riccati.solve_dare", "discretize.sample_plant", "discretize.cost_matrices")


def package_modules() -> list:
    """The package and each of its submodules."""
    mods = [mrilqr]
    for info in pkgutil.iter_modules(mrilqr.__path__):
        mods.append(importlib.import_module(f"mrilqr.{info.name}"))
    return mods


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _digest(obj, h) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _digest(getattr(obj, f.name), h)
    elif isinstance(obj, (list, tuple)):
        h.update(b"(")
        for item in obj:
            _digest(item, h)
        h.update(b")")
    else:
        h.update(repr(obj).encode())
        h.update(b";")


def input_digest(args, kwargs) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    _digest((args, sorted(kwargs.items())), h)
    return h.digest()


class Tracer:
    """Spans and counters for one traced block of work."""

    def __init__(self, modules):
        self.modules = modules
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self._stack: list[int] = [-1]
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self._patches: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    # -- observers for the functions whose results carry layer counters

    def _observe_return(self, name: str, result) -> None:
        if name == "riccati.solve_dare":
            self.counts["riccati.iterations"] += result.iterations
            self.maxima["riccati.iterations_max"] = max(self.maxima["riccati.iterations_max"], result.iterations)
            if not result.converged:
                self.counts["riccati.not_converged"] += 1
        elif name == "simulate.simulate_closed_loop":
            self.counts["simulate.dense_rows"] += len(result.dense_times)

    def _observe_error(self, name: str, exc: Exception) -> None:
        if name == "riccati.solve_dare" and isinstance(exc, DareDivergenceError):
            self.counts["riccati.diverged"] += 1
            self.counts["riccati.iterations"] += exc.iterations
            self.maxima["riccati.iterations_max"] = max(self.maxima["riccati.iterations_max"], exc.iterations)

    # -- wrapping

    def _wrap(self, fn, name: str):
        idx = self._intern(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counts, distinct = self.counts, self.distinct
        calls_key = f"{name}.calls"
        digested = name in DIGESTED
        observe_return, observe_error = self._observe_return, self._observe_error

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[calls_key] += 1
            if digested:
                distinct[name].add(input_digest(args, kwargs))
            rec = [idx, 0, 0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                observe_error(name, exc)
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            observe_return(name, result)
            return result

        return traced

    @contextlib.contextmanager
    def active(self):
        """Wrap every public function in every namespace binding it; restore on exit."""
        originals: dict[int, tuple[object, str]] = {}
        for mod in self.modules:
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (obj, f"{_short(mod.__name__)}.{attr}")
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in originals.items()}
        try:
            for mod in self.modules:
                for attr, obj in list(vars(mod).items()):
                    wrapper = wrappers.get(id(obj))
                    if wrapper is not None:
                        self._patches.append((mod, attr, obj))
                        setattr(mod, attr, wrapper)
            yield self
        finally:
            while self._patches:
                mod, attr, obj = self._patches.pop()
                setattr(mod, attr, obj)

    @contextlib.contextmanager
    def span(self, name: str = ROOT_SPAN):
        """A span recorded by the benchmark itself, around one operation."""
        rec = [self._intern(name), 0, 0, self._stack[-1]]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    # -- results

    def self_times(self) -> dict[str, int]:
        """Nanoseconds per span name: span duration minus its direct children."""
        child = [0] * len(self.spans)
        for name_idx, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name_idx, start, end, _) in enumerate(self.spans):
            out[self.names[name_idx]] += (end - start) - child[i]
        return dict(out)

    def root_time_ns(self) -> int:
        idx = self._name_index.get(ROOT_SPAN)
        return sum(end - start for name_idx, start, end, parent in self.spans
                   if name_idx == idx and parent < 0)

    def distinct_ratio(self, name: str) -> float:
        calls = self.counts[f"{name}.calls"]
        return len(self.distinct[name]) / calls if calls else 0.0

    def deterministic_counts(self) -> dict[str, int]:
        """Everything that must repeat exactly for the same inputs."""
        out = dict(self.counts)
        out.update(self.maxima)
        out.update({f"{name}.distinct": len(self.distinct[name]) for name in DIGESTED})
        return out


def write_spans(path, tracers) -> None:
    """All spans of all traced blocks as CSV: block,name,start_ns,end_ns,parent."""
    with open(path, "w") as fh:
        fh.write("block,name,start_ns,end_ns,parent\n")
        for block, tr in enumerate(tracers):
            for name_idx, start, end, parent in tr.spans:
                fh.write(f"{block},{tr.names[name_idx]},{start},{end},{parent}\n")
