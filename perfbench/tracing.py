"""In-memory spans recorded from outside the program.

``Tracer.patch`` wraps public driver-side calls of the package for the
length of a traced run (the package itself is not modified); ``Capture``
stands in for a Ray ``Dataset`` so that a layer's per-batch functions can
be replayed in-process over the same batches the run used.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time

import pyarrow as pa


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.iteration: int | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "iteration": self.iteration,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _spans(self, name: str, iteration: int) -> list[dict]:
        return [s for s in self.spans if s["name"] == name and s["iteration"] == iteration]

    def median_per_iteration(self, name: str, iterations: list[int]) -> float:
        """Median over ``iterations`` of the summed time of the spans
        called ``name`` in each (0 where there are none)."""
        return statistics.median(sum((s["end"] - s["start"] for s in self._spans(name, i)), 0.0)
                                 for i in iterations)

    def count(self, name: str, iteration: int) -> int:
        return len(self._spans(name, iteration))

    @contextlib.contextmanager
    def patch(self, targets: list[tuple[object, str, str]]):
        """Wrap ``owner.attr`` in a span called ``name`` for each
        ``(owner, attr, name)`` target; restores the originals on exit."""
        saved = []
        try:
            for owner, attr, name in targets:
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrapped(orig, name))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def _wrapped(self, fn, name: str):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return call

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.spans, f)
        os.replace(tmp, path)


class Capture:
    """Records the ``map_batches`` calls a layer makes on a Dataset."""

    def __init__(self):
        self.fns: list[tuple[object, str]] = []

    def map_batches(self, fn, batch_format: str = "default", **_):
        self.fns.append((fn, batch_format))
        return self

    def replay(self, batch: pa.Table) -> pa.Table:
        for fn, fmt in self.fns:
            if fmt == "pandas":
                batch = pa.Table.from_pandas(fn(batch.to_pandas()), preserve_index=False)
            else:
                batch = fn(batch)
        return batch
