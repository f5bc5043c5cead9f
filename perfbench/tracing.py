"""Spans around calls into esfscan's modules, installed from outside.

The benchmark changes nothing under ``src/``.  Instead it rebinds
module-global names (and one class attribute) to timing wrappers, so every
call the library makes through those names is recorded.  Modules are
resolved with ``importlib.import_module``: the package ``__init__`` rebinds
``esfscan.scan`` to the function, so ``import esfscan.scan as m`` would
return the function instead of the module.

Millions of calls go through the hot names (four ``make_rational`` calls
per certified pair), so each wrapped call is folded into a per
(name, parent) total of calls and seconds instead of being stored one by
one.  Only the spans the benchmark opens itself, around each leg call,
are kept whole.  Everything stays in memory until :meth:`Tracer.dump`.
Spans recorded inside forked scan workers are lost with the worker.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

ROOT = "run"

# (module, global name, span name) rebound by install().
GLOBAL_HOOKS = (
    ("esfscan.certify", "find_certificate", "certify.find_certificate"),
    ("esfscan.certify", "k_cap", "symfun.k_cap"),
    ("esfscan.certify", "make_rational", "rational.make_rational"),
    ("esfscan.scan", "save_checkpoint", "checkpoint.save_checkpoint"),
    ("esfscan.scan", "load_checkpoint", "checkpoint.load_checkpoint"),
    ("esfscan.scan", "omit_oracle", "symfun.omit_oracle"),
    ("esfscan.scan", "k_cap", "symfun.k_cap"),
)


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Tuple[str, str, float, float]] = []  # name, parent, start, end
        self.totals: Dict[Tuple[str, str], List[float]] = {}  # (name, parent) -> [calls, s]
        self.counters: Dict[str, int] = {}
        self._stack = [ROOT]

    @contextmanager
    def span(self, name: str):
        """A whole span around one call the benchmark makes itself."""
        if not self.enabled:
            yield
            return
        parent = self._stack[-1]
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((name, parent, start, end))
            self._add(name, parent, end - start)

    def wrap(self, fn: Callable, name: str) -> Callable:
        """A stand-in for ``fn`` that records each call made inside a leg span."""
        stack, clock, add = self._stack, time.perf_counter, self._add

        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent == ROOT:  # the benchmark's own checks, outside every leg
                return fn(*args, **kwargs)
            stack.append(name)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                add(name, parent, elapsed)

        return traced

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _add(self, name: str, parent: str, seconds: float) -> None:
        entry = self.totals.get((name, parent))
        if entry is None:
            self.totals[(name, parent)] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    def calls(self, name: str) -> int:
        return sum(int(v[0]) for (n, _), v in self.totals.items() if n == name)

    def seconds(self, name: str) -> float:
        return sum(v[1] for (n, _), v in self.totals.items() if n == name)

    def self_seconds(self, name: str) -> float:
        """Time in ``name`` not covered by its direct child spans."""
        children = sum(v[1] for (_, p), v in self.totals.items() if p == name)
        return self.seconds(name) - children

    def dump(self, path: str) -> None:
        payload = {
            "spans": [
                {"name": n, "parent": p, "start": s, "end": e} for n, p, s, e in self.spans
            ],
            "totals": [
                {"name": n, "parent": p, "calls": int(v[0]), "seconds": v[1]}
                for (n, p), v in sorted(self.totals.items())
            ],
            "counters": self.counters,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)


def install(tracer: Tracer) -> None:
    """Rebind the hooked names in the already imported esfscan modules."""
    for module_name, attr, span_name in GLOBAL_HOOKS:
        module = importlib.import_module(module_name)
        fn = tracer.wrap(getattr(module, attr), span_name)
        # File sizes are read outside the timed span.
        if attr == "save_checkpoint":
            fn = _sized(fn, tracer, "checkpoint.bytes_written", after=True)
        elif attr == "load_checkpoint":
            fn = _sized(fn, tracer, "checkpoint.bytes_read", after=False)
        setattr(module, attr, fn)
    table_cls = importlib.import_module("esfscan.primes").PrimeTable
    table_cls.largest_leq = tracer.wrap(table_cls.largest_leq, "primes.largest_leq")


def _sized(fn: Callable, tracer: Tracer, counter: str, after: bool) -> Callable:
    """Add the size of the file ``fn`` writes (after) or reads (before) to ``counter``."""

    def sized(path, *args, **kwargs):
        if not after:
            tracer.count(counter, os.path.getsize(path))
        result = fn(path, *args, **kwargs)
        if after:
            tracer.count(counter, os.path.getsize(path))
        return result

    return sized
