"""Span recording and attribute patching for the traced benchmark run.

A :class:`Tracer` keeps the stack of open spans and folds every span
into per-name totals when it closes: calls, inclusive seconds and self
seconds.  A span's self time is its duration minus the time its child
spans cover; calls on one thread nest strictly, so the children of a
span are disjoint and their durations simply add.  Folding at close
keeps memory bounded: the defended fleet arm alone opens millions of
circuit-breaker spans per pass.

:class:`Patcher` installs wrappers around functions and methods and
takes every one of them out again.  A module-level function is replaced
in *every* loaded module that binds it (``from x import f`` makes a
second binding), so a call through any import path is recorded.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

_MARK = "__simbench_wrapper__"


class Tracer:
    """Open-span stack plus per-name totals and free-form counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._stack: List[list] = []  # [name, start_s, covered_by_children_s]
        self.totals: Dict[str, List[float]] = {}  # name -> [calls, incl_s, self_s]
        self.counts: Counter = Counter()

    def open(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def close(self) -> float:
        """Close the innermost span and return its duration."""
        name, start, covered = self._stack.pop()
        duration = self.clock() - start
        if self._stack:
            self._stack[-1][2] += duration
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - covered
        return duration

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open."""
        return any(frame[0] == name for frame in self._stack)

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def inclusive_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def top_level_s(self) -> float:
        """Time covered by spans with no parent (the sum of all self times)."""
        return sum(entry[2] for entry in self.totals.values())


def span_wrapper(
    fn: Callable,
    tracer: Tracer,
    name,
    after: Optional[Callable] = None,
) -> Callable:
    """Wrap ``fn`` so each call is one span.

    ``name`` is a string or a callable ``(args, kwargs) -> str``.
    ``after(tracer, args, kwargs, result)`` runs once the span is closed,
    to record counts read from the arguments or the result.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.open(name if isinstance(name, str) else name(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    setattr(wrapper, _MARK, True)
    return wrapper


def count_wrapper(fn: Callable, tracer: Tracer, after: Callable) -> Callable:
    """Wrap ``fn`` without a span: only ``after`` runs, for counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(tracer, args, kwargs, result)
        return result

    setattr(wrapper, _MARK, True)
    return wrapper


def is_wrapper(obj) -> bool:
    return isinstance(obj, types.FunctionType) and obj.__dict__.get(_MARK, False)


class Patcher:
    """Installs wrappers and restores every original on :meth:`restore`."""

    def __init__(self) -> None:
        self._patched: List[Tuple[object, str, object]] = []

    def method(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._patched.append((cls, attr, original))

    def function(self, original: Callable, make: Callable[[Callable], Callable]) -> int:
        """Replace ``original`` in every loaded module that binds it;
        returns the number of bindings patched."""
        wrapped = make(original)
        bound = 0
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._patched.append((module, attr, original))
                    bound += 1
        if not bound:
            raise LookupError(f"{original.__qualname__} is bound in no loaded module")
        return bound

    def restore(self) -> None:
        """Put every original back, then prove no wrapper is left."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        leftovers = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner in list(sys.modules.values())
            for attr, value in list(getattr(owner, "__dict__", {}).items())
            if is_wrapper(value)
            or (isinstance(value, type) and any(is_wrapper(v) for v in vars(value).values()))
        ]
        if leftovers:
            raise RuntimeError(f"wrappers left installed: {leftovers}")
