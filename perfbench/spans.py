"""Spans recorded from outside the program, by wrapping its functions.

A root span is one operation the benchmark issues (a submit, an ingest,
an epoch advance, a restart or a set-up).  While a root is open on the
calling thread, every wrapped function records a span with its name,
start, end, parent span and root.  Calls made outside a root (answer
checks, data generation) and calls on other threads or processes are
not recorded: shard builds that run in pool workers show up as self
time of the dispatching span.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class NullRecorder:
    """The untraced run: roots cost one no-op context manager."""

    _null = contextlib.nullcontext()

    def root(self, kind: str, label: str = ""):
        return self._null


class SpanRecorder:
    """Spans of the traced run, recorded by the wrappers it installs."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent, root]``; index = span id
        self.spans: list[list] = []
        #: root span id -> (kind, label)
        self.roots: dict[int, tuple[str, str]] = {}
        #: (root span id, counter) -> value, for counts taken in wrappers
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def root(self, kind: str, label: str = ""):
        stack = self._stack()
        span = len(self.spans)
        self.spans.append([f"root.{kind}", perf_counter(), None, None, span])
        self.roots[span] = (kind, label)
        stack.append(span)
        try:
            yield
        finally:
            stack.pop()
            self.spans[span][2] = perf_counter()

    def count(self, counter: str, value: float) -> None:
        """Add ``value`` to ``counter`` of the root open on this thread."""
        stack = self._stack()
        if stack:
            self.counters[(stack[0], counter)] += value

    def wrap(self, name: str, function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = self._stack()
            if not stack:
                return function(*args, **kwargs)
            parent = stack[-1]
            span = len(self.spans)
            record = [name, perf_counter(), None, parent, stack[0]]
            self.spans.append(record)
            stack.append(span)
            try:
                return function(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = perf_counter()

        return traced

    # -- installation ----------------------------------------------------------

    def install(self, targets, extra=None) -> None:
        """Wrap every target; ``extra`` maps a span name to a wrapper factory.

        A class attribute is replaced on its class.  A module-level
        function is replaced in every loaded module that binds the same
        object under any name, so imports by name are covered.
        """
        extra = extra or {}
        for target in targets:
            owner, attribute = target.owner, target.attribute
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            wrapped = self.wrap(target.name, original)
            if target.name in extra:
                wrapped = extra[target.name](wrapped)
            if isinstance(owner, type):
                self._rebind(owner, attribute, wrapped)
                continue
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if namespace is None or not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self._rebind(module, key, wrapped)

    def _rebind(self, owner, attribute, value) -> None:
        self._installed.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed.clear()

    # -- output ----------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span_id, (name, start, end, parent, root) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "root": root,
                }) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for name, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def summarize(recorder: SpanRecorder, names) -> dict:
    """Per-span calls and self time, root totals and per-root inclusive time.

    Returns ``calls[name]``, ``self_s[name]``, ``root_s`` (all roots),
    ``unattributed_s`` (root self time: work inside a root that no
    wrapped function covers) and ``inclusive[root][name]`` (time inside
    spans of ``name`` within each root, nested calls counted once).
    """
    spans = recorder.spans
    own = self_times(spans)
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    inclusive: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    root_s = unattributed = 0.0
    for span_id, (name, start, end, parent, root) in enumerate(spans):
        if parent is None:
            root_s += end - start
            unattributed += own[span_id]
            continue
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[span_id]
        if spans[parent][0] != name:
            inclusive[root][name] += end - start
    return {
        "calls": calls,
        "self_s": self_s,
        "root_s": root_s,
        "unattributed_s": unattributed,
        "inclusive": inclusive,
    }
