"""In-memory span recording around calls into the repository's layers.

The benchmark wraps the public methods of the objects a pipeline
exposes (its oracle, buffer, accountant, store, backend and aggregator
shards) with :meth:`Tracer.wrap`.  Each call records one span: its
layer name, start, end, its own id, the id of the span that caused it
and the id of the root span it belongs to.  The pipeline's ``submit``
and ``end_epoch`` are the roots.  Spans stay in memory until
:meth:`Tracer.dump` writes them out after the run; nothing here reads
or changes what the wrapped call computes.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Dict, List, Tuple


class Tracer:
    """Records nested spans per thread; summarises them per layer."""

    def __init__(self) -> None:
        #: (root id, span id, parent id or 0, name, start, end)
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, method: str, name: str) -> None:
        """Shadow ``owner.method`` with a span-recording instance attribute."""
        original = getattr(owner, method)
        spans = self.spans
        ids = self._ids
        stack_of = self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            if stack:
                root_id, parent_id = stack[-1][0], stack[-1][1]
            else:
                root_id, parent_id = span_id, 0
            stack.append((root_id, span_id))
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((root_id, span_id, parent_id, name, start, end))

        setattr(owner, method, traced)

    def layer_times(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (calls, total seconds, self seconds)``.

        A span's self time is its duration minus the time its child
        spans cover.  Children of one span run on the span's own thread
        and never overlap, so the covered time is their summed duration.
        """
        child_time: Dict[int, float] = {}
        for __, __, parent_id, __, start, end in self.spans:
            if parent_id:
                child_time[parent_id] = child_time.get(parent_id, 0.0) + (
                    end - start
                )
        table: Dict[str, list] = {}
        for __, span_id, __, name, start, end in self.spans:
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time.get(span_id, 0.0)
        return {name: tuple(row) for name, row in table.items()}

    def root_seconds(self) -> float:
        """Summed duration of every root span (time spent inside roots)."""
        return sum(
            end - start
            for __, __, parent_id, __, start, end in self.spans
            if not parent_id
        )

    def dump(self, path) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        origin = min((span[4] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            for root_id, span_id, parent_id, name, start, end in self.spans:
                out.write(json.dumps({
                    "trace": root_id,
                    "span": span_id,
                    "parent": parent_id,
                    "name": name,
                    "start_s": start - origin,
                    "end_s": end - origin,
                }) + "\n")
