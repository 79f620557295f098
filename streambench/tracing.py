"""In-memory spans around calls into streamrag's layers.

A traced run replaces selected module attributes (the names through which
one layer calls another) with wrappers that record a span per call: its
name, start, end and the span that was open when it started. Nothing in
``streamrag`` itself is edited; the originals are put back when the
``patched`` block exits. Runs are single-threaded, so one stack of open
spans gives every span its parent.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

# (owner, attribute, span name, key function or None)
Target = tuple[Any, str, str, "Callable[..., Any] | None"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    tag: str  # what the benchmark was running, e.g. a strategy
    key: Any = None  # e.g. the query text, for distinct counts


@dataclass
class Summary:
    """Per-layer totals over the spans recorded since the last clear()."""

    layers: dict[str, tuple[int, float]]  # name -> (calls, self seconds)
    calls_by_tag: dict[tuple[str, str], int]
    distinct_by_tag: dict[tuple[str, str], int]
    distinct: dict[str, int]
    wall_s: float  # summed duration of the root spans


def resolve(owner: Any, attr: str) -> Callable | None:
    """The function a wrap target names, or None if it no longer exists."""
    # vars() for classes, so a method is wrapped as the plain function
    return vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.tag = ""
        # "owner.attr" of each wrap target that did not resolve, by span name
        self.missing: dict[str, set[str]] = defaultdict(set)

    def _push(self, name: str, key: Any = None) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.tag, key))
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def _pop(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self._push(name)
        try:
            yield
        finally:
            self._pop(idx)

    def wrap(self, fn: Callable, name: str, key: Callable[..., Any] | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._push(name, key(*args, **kwargs) if key is not None else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._pop(idx)

        return traced

    @contextmanager
    def patched(self, targets: list[Target]) -> Iterator[None]:
        """Wrap ``owner.attr`` as span ``name`` for each target, then restore.

        A target whose attribute is missing is skipped and recorded in
        ``missing``, so the benchmark keeps running when a refactor renames
        or removes an inner function, and the layer it measured is known
        to be incomplete rather than read as zero calls.
        """
        saved = []
        try:
            for owner, attr, name, key in targets:
                original = resolve(owner, attr)
                if original is None:
                    self.missing[name].add(f"{owner.__name__}.{attr}")
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, key))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> Summary:
        """Calls and self time per span name. A span's self time is its
        duration minus the time its children cover, so the self times of
        all spans, roots included, sum to the roots' total duration."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.end - span.start
        layers: dict[str, list] = defaultdict(lambda: [0, 0.0])
        by_tag: dict[tuple[str, str], int] = defaultdict(int)
        keys_by_tag: dict[tuple[str, str], set] = defaultdict(set)
        keys: dict[str, set] = defaultdict(set)
        for i, span in enumerate(self.spans):
            entry = layers[span.name]
            entry[0] += 1
            entry[1] += (span.end - span.start) - covered[i]
            by_tag[(span.name, span.tag)] += 1
            if span.key is not None:
                keys_by_tag[(span.name, span.tag)].add(span.key)
                keys[span.name].add(span.key)
        return Summary(
            layers={name: (calls, self_s) for name, (calls, self_s) in layers.items()},
            calls_by_tag=dict(by_tag),
            distinct_by_tag={k: len(v) for k, v in keys_by_tag.items()},
            distinct={k: len(v) for k, v in keys.items()},
            wall_s=sum(s.end - s.start for s in self.spans if s.parent < 0),
        )

    def clear(self) -> None:
        if self._open:
            raise RuntimeError("cannot clear spans while a span is open")
        self.spans.clear()
