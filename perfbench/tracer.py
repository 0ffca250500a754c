"""Spans and counts recorded from outside the program.

The benchmark never edits ``src/``: it times a layer by replacing the
layer's public entry point with a wrapper, in the process that runs the
user command (see ``child.py``).  A :class:`Tracer` keeps every span in
memory -- name, start, end, parent span and run id -- and turns them
into per-layer self times when the command ends.  Self time is a span's
duration minus the time covered by its direct children, so nested
layers are never counted twice.  Spans read ``time.monotonic_ns``, the
clock the benchmark's stage marks use, so a command's layer self times
can be checked against its independently marked stage durations.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Union


class Tracer:
    """In-memory span recorder with a single-threaded span stack."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        #: [name, start_ns, end_ns, parent_index]
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.monotonic_ns(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        popped = self._stack.pop()
        if popped != index:  # pragma: no cover - wrappers always nest
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")
        self.spans[index][2] = time.monotonic_ns()

    def span_self_ns(self) -> List[int]:
        """Self time of every span (duration minus its children), in ns."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        return [end - start - child_ns[index]
                for index, (_, start, end, _) in enumerate(self.spans)]

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name."""
        out: Dict[str, float] = {}
        for span, self_ns in zip(self.spans, self.span_self_ns()):
            out[span[0]] = out.get(span[0], 0.0) + self_ns / 1e9
        return out

    def export(self) -> List[dict]:
        return [
            {"name": n, "start_ns": s, "end_ns": e, "parent": p, "run": self.run_id}
            for n, s, e, p in self.spans
        ]


def replace_everywhere(owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Swap ``owner.attr`` for ``make(original)``.

    A module-level function is also replaced in every loaded ``repro``
    module that imported it by name, so callers that did ``from x import
    f`` see the wrapper too.  Class attributes keep their descriptor
    kind (plain, ``classmethod`` or ``staticmethod``).
    """
    if isinstance(owner, type):
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        elif isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))
        return
    original = getattr(owner, attr)
    wrapped = make(original)
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapped
    setattr(owner, attr, wrapped)


def span_wrapper(
    tracer: Tracer,
    name: Union[str, Callable[[tuple, dict], str]],
    after: Optional[Callable[[Tracer, tuple, dict, Any], None]] = None,
) -> Callable[[Callable], Callable]:
    """Wrapper factory: time each call as a span named ``name`` (or
    ``name(args, kwargs)``); ``after`` may add counts from the call's
    arguments and result."""

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    return make


def observe_wrapper(
    before: Optional[Callable[[], None]] = None,
    after: Optional[Callable[[tuple, dict, Any], None]] = None,
) -> Callable[[Callable], Callable]:
    """Wrapper factory without spans: run ``before`` ahead of each call
    and ``after`` with its arguments and result (markers, captures)."""

    def make(fn: Callable) -> Callable:
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if before is not None:
                    before()
                result = await fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    return make
