"""Span recorder that wraps the public functions of the tfcgc modules.

A traced run replaces each listed function, wherever a tfcgc module holds
a reference to it, by a wrapper that records a span (name, start, end,
parent, process).  Callers that imported a function by name
(``from .identify import fit_tvarx``) hold their own binding, so every
module dictionary is searched for the original object, not only the
defining module.

Forked pool workers inherit the patched modules and the recorder.  A
worker drops the spans it inherited, records its own, and appends them to
a spool file each time one of its top-level spans ends (once per crop
unit), so the parent can merge them after the pool shuts down.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    pid: int
    counts: dict = field(default_factory=dict)  # e.g. bytes, grid cells

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Children of one process run one after another, but the spans of pool
    workers under one parent overlap each other, so the covered part is
    the length of the union of the children's intervals, clipped to the
    parent's.  The clock is system-wide, so spans of forked workers and
    of their parent share one time axis.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    own = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        own[s.sid] = s.duration - covered
    return own


class Recorder:
    """Keeps spans in memory; workers spool theirs to ``spool_dir``."""

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.owner = os.getpid()
        self.pid = self.owner
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.base_depth = 0
        self.next_id = 0

    def _adopt_process(self) -> None:
        # first span in a forked worker: forget what the parent recorded
        self.pid = os.getpid()
        self.spans = []
        self.next_id = self.pid << 32
        # keep the parent's open span as the remote parent of this worker's
        # top-level spans; self_times() ignores cross-process children
        self.stack = self.stack[-1:]
        self.base_depth = len(self.stack)

    def enter(self) -> int:
        if os.getpid() != self.pid:
            self._adopt_process()
        sid = self.next_id
        self.next_id += 1
        self.stack.append(sid)
        return sid

    def leave(self, sid: int, name: str, start: float, end: float, counts: dict) -> None:
        self.stack.pop()
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(sid, parent, name, start, end, self.pid, counts))
        if self.pid != self.owner and len(self.stack) <= self.base_depth:
            self._flush()

    def _flush(self) -> None:
        path = os.path.join(self.spool_dir, f"{self.pid}.jsonl")
        with open(path, "a", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")
        self.spans = []

    def collect(self) -> list[Span]:
        """Own spans plus every span the workers spooled; empties the spool."""
        merged = list(self.spans)
        for fname in sorted(os.listdir(self.spool_dir)):
            path = os.path.join(self.spool_dir, fname)
            with open(path, encoding="ascii") as fh:
                merged.extend(Span(**json.loads(line)) for line in fh)
            os.unlink(path)
        self.spans = []
        return merged


def _wrap(recorder: Recorder, name: str, fn, counts_of):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = recorder.enter()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.leave(sid, name, start, time.perf_counter(), {})
            raise
        end = time.perf_counter()
        counts = counts_of(args, kwargs, result) if counts_of else {}
        recorder.leave(sid, name, start, end, counts)
        return result

    return wrapper


class Patcher:
    """Installs wrappers into every tfcgc module that references a target."""

    def __init__(self, recorder: Recorder, modules):
        self.recorder = recorder
        self.modules = list(modules)
        self.undo: list[tuple[object, str, object]] = []

    def function(self, module, attr: str, span: str, counts_of=None) -> None:
        original = getattr(module, attr, None)
        if original is None:
            return  # renamed or removed: the layer then reports no calls
        wrapper = _wrap(self.recorder, span, original, counts_of)
        for mod in self.modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.undo.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def method(self, cls, attr: str, span: str) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            return
        self.undo.append((cls, attr, original))
        setattr(cls, attr, _wrap(self.recorder, span, original, None))

    def restore(self) -> None:
        for owner, key, value in reversed(self.undo):
            setattr(owner, key, value)
        self.undo = []
