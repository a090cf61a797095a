"""Span tracing from outside the program.

A `Tracer` replaces chosen module attributes with timing wrappers and puts
the originals back on `restore()`.  `cartoseg.pipeline` binds most stage
functions at import (`from .edges import refine_edges`), so the wrappers go
on the names in that namespace; `graphs` is used through module attributes
(`graphs.decompose`), so those are wrapped on `cartoseg.graphs` itself,
which also catches the MCS calls `generate_model` makes internally.

Each call becomes a span: name, start, end, parent span and the scene it
served.  Spans stay in memory until `write()`.  A span's self time is its
duration minus the part its direct children cover.
"""

from __future__ import annotations

import json
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

_SCENE_FILE = re.compile(r"^(scene_\d+)(?:_|$)")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    scene: str | None
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


def _scene_of_args(args) -> str | None:
    """Scene id from a `scene_NNN` argument or a `scene_NNN_*` file name."""
    for a in args:
        if isinstance(a, (str, Path)):
            m = _SCENE_FILE.match(Path(a).name)
            if m:
                return m.group(1)
    return None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _open(self, name: str, scene: str | None) -> int:
        parent = self._stack[-1] if self._stack else None
        if scene is None and parent is not None:
            scene = self.spans[parent].scene
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, scene))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, i: int) -> None:
        span = self.spans[i]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].children_s += span.duration

    @contextmanager
    def span(self, name: str, scene: str | None = None):
        """A span around benchmark code of its own (a LOO fold, a unit)."""
        i = self._open(name, scene)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, module, attr: str, name: str, observe=None) -> None:
        """Replace `module.attr` by a span-recording wrapper;
        `observe(tracer, args, result)` runs after the span closes, to
        record counts."""
        original = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            i = tracer._open(name, _scene_of_args(args))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(i)
            if observe is not None:
                observe(tracer, args, result)
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped name back, newest first."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def inclusive(self, name: str) -> float:
        """Total time of `name` spans, not counting a `name` span nested
        inside another one."""
        total = 0.0
        for s in self.spans:
            if s.name != name:
                continue
            p = s.parent
            while p is not None and self.spans[p].name != name:
                p = self.spans[p].parent
            if p is None:
                total += s.duration
        return total

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + s.self_s
        return out

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def write(self, path) -> None:
        """One JSON object per span: id, name, start and end (seconds from
        the first span), parent id and scene."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0].start if self.spans else 0.0
        with path.open("w") as f:
            for i, s in enumerate(self.spans):
                f.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "start": round(s.start - t0, 9),
                            "end": round(s.end - t0, 9),
                            "parent": s.parent,
                            "scene": s.scene,
                        }
                    )
                    + "\n"
                )
