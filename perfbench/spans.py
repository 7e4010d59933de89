"""In-memory spans around calls into cogrowth's public functions.

A traced run replaces selected module or class attributes with thin wrappers
that record one span per call: name, start, end, parent span and request id.
Spans stay in memory and are written out when the run ends.  The untraced run
installs nothing, so the program runs exactly as a user would run it.
"""
from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: str
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records spans for the calls it wraps; single-threaded by design."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.request))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, inspect=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if inspect is not None:
                self.spans[index].attrs.update(inspect(result))
            return result

        return traced  # functools.wraps keeps fn as traced.__wrapped__

    def install(self, targets: dict[str, object]) -> None:
        """Wrap each dotted attribute, e.g. "cogrowth.cli.solve_series".

        The span is named after the function's defining module, so the same
        function reached through two namespaces gives spans of one name.
        """
        for dotted, inspect in targets.items():
            owner, attr = resolve(dotted)
            fn = getattr(owner, attr)
            module = fn.__module__.removeprefix("cogrowth.")
            name = f"{module}.{fn.__qualname__}"
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(fn, name, inspect))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)


def resolve(dotted: str):
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for part in parts[cut:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1]
    raise ValueError(f"cannot resolve {dotted!r}")


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    reach = float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        inside = [
            (max(lo, s.start), min(hi, s.end)) for lo, hi in children.get(i, [])
        ]
        out.append((s.end - s.start) - _covered(inside))
    return out
