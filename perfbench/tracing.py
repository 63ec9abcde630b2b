"""Spans around fragfield's public functions, patched in from outside.

The program carries no tracing of its own, so the traced run replaces each
wrapped function with a recording wrapper in *every* fragfield module that
bound it: ``experiment`` and ``cli`` import ``fit_hyperparameters``,
``local_update_cycle`` and others with ``from ... import``, and ``cli`` keeps
its command functions in a dict, so patching only the defining module would
miss those calls.  Spans live in memory; ``summary`` folds them into per-name
totals when the run ends.
"""

from __future__ import annotations

import contextlib
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 for a root span
    root: str  # name of the outermost enclosing span
    end: float = math.nan
    children_s: float = 0.0  # time covered by direct children
    failed: bool = False
    work: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


@dataclass
class Totals:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    failed: int = 0
    work: dict = field(default_factory=lambda: defaultdict(float))


class Tracer:
    """Records nested spans while ``recording`` is true.

    ``wrap`` installs a wrapper; ``restore`` puts every original back.  A
    wrapped function that does not exist in the program under test is noted
    in ``missing`` and reported as zero calls, so a later refactor that drops
    or renames it cannot crash the benchmark.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.recording = False
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner, key, original, is_dict)

    # ------------------------------------------------------------ spans
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent].root if parent >= 0 else name
        self.spans.append(Span(name, time.perf_counter(), parent, root))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].children_s += span.duration

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around calls into the program."""
        idx = self._open(name) if self.recording else None
        try:
            yield
        finally:
            if idx is not None:
                self._close(idx)

    # ------------------------------------------------------------ patching
    def wrap(self, module, attr: str, name: str, *, work=None, failed=None) -> None:
        """Trace ``module.attr`` under span ``name`` wherever it is bound.

        ``work(args, kwargs, result) -> dict`` adds counted work to the span;
        ``failed(result) -> bool`` flags a returned value as a failure (a
        raised exception always is one).
        """
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(name)
            return
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return original(*args, **kwargs)
            idx = tracer._open(name)
            span = tracer.spans[idx]
            try:
                result = original(*args, **kwargs)
            except Exception:
                span.failed = True
                raise
            finally:
                tracer._close(idx)
            if failed is not None and failed(result):
                span.failed = True
            if work is not None:
                span.work = work(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fragfield" or mod_name.startswith("fragfield.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original, False))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper
                            self._patches.append((value, k, original, True))

    def restore(self) -> None:
        for owner, key, original, is_dict in reversed(self._patches):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # ------------------------------------------------------------ summary
    def has_ancestor(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def summary(self, root: str) -> dict:
        """Per span name under root spans ``root``: calls, seconds, failures, work."""
        out: dict = defaultdict(Totals)
        for span in self.spans:
            if span.root != root:
                continue
            t = out[span.name]
            t.calls += 1
            t.s += span.duration
            t.self_s += span.self_s
            t.failed += int(span.failed)
            for key, value in span.work.items():
                t.work[key] += value
        return out
