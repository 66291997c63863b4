"""In-memory span tracing for the benchmark's traced runs.

A ``Tracer`` replaces functions with wrappers that record one span per call:
the span's name, start, end, parent span and unit id (a unit is one learner
run or one sweep cell; every span inside it shares the id).  Spans live in
flat arrays until the run ends, so recording costs an append per field.
``restore`` puts every original function back, so untraced runs time the
program exactly as shipped.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable

import numpy as np


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.unit = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, dict[str, float]] = {}
        self._stack: list[int] = []
        self._units = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------
    def open(self, name: str, new_unit: bool = False) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        if new_unit:
            unit = self._units
            self._units += 1
        else:
            unit = self.unit[parent] if parent >= 0 else -1
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(parent)
        self.unit.append(unit)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())  # last, so the bookkeeping above is not timed
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        self._stack.pop()

    def bucket(self, name: str) -> dict[str, float]:
        """Named counters recorded beside the spans of ``name``."""
        return self.counts.setdefault(name, {})

    # -- wrapping ------------------------------------------------------------
    def wrap(self, name: str, fn: Callable, count: Callable | None = None,
             before: Callable | None = None, new_unit: bool = False) -> Callable:
        """Return ``fn`` wrapped to record a span per call.

        ``before(args, kwargs)`` runs untimed ahead of the call; its result is
        handed to ``count(bucket, args, kwargs, result, state)`` after the span
        closes, so counting is never charged to the span either.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            i = tracer.open(name, new_unit)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if count is not None:
                count(tracer.bucket(name), args, kwargs, result, state)
            return result

        return traced

    def patch_function(self, name: str, fn: Callable, package: str, **kw) -> None:
        """Wrap ``fn`` under every name a module of ``package`` binds it to,
        so each caller resolves the wrapper whichever import style it used."""
        wrapper = self.wrap(name, fn, **kw)
        found = False
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr in [a for a, v in vars(mod).items() if v is fn]:
                self._set(mod, attr, wrapper)
                found = True
        if not found:
            raise LookupError(f"{name}: function not bound in any {package} module")

    def patch_method(self, name: str, cls: type, attr: str, **kw) -> None:
        self._set(cls, attr, self.wrap(name, cls.__dict__[attr], **kw))

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "unit": np.frombuffer(self.unit, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        a = self.arrays()
        incl = a["end"] - a["start"]
        own = self_times(a["start"], a["end"], a["parent"])
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name_id"] == nid
            out[name] = {"calls": int(sel.sum()), "incl_s": float(incl[sel].sum()),
                         "self_s": float(own[sel].sum())}
        return out

    def save(self, path: str) -> None:
        np.savez(path, names=np.asarray(self.names), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (spans nest like the call stack), so the
    covered time is the sum of the children's durations.
    """
    start, end = np.asarray(start, dtype=np.float64), np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    covered = np.zeros_like(dur)
    child = parent >= 0
    np.add.at(covered, parent[child], dur[child])
    return dur - covered
