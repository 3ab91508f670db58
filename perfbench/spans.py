"""In-memory span recorder for the traced replay.

A span is ``{id, name, start, end, parent, job, agent}``; times are seconds
from the recorder's creation. Spans stay in memory until :meth:`write`.
Self time is a span's duration minus the durations of its direct children,
which run one after another inside it.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class SpanRecorder:
    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self._stack: list[int] = []
        self.spans: list[dict] = []
        self.job: int | None = None

    @contextmanager
    def span(self, name: str, agent: int | None = None) -> Iterator[dict]:
        record = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter() - self._t0,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "job": self.job,
            "agent": agent,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._t0
            self._stack.pop()

    def self_times(self, job: int) -> list[tuple[dict, float]]:
        """(span, self time) for every finished span of ``job``."""
        spans = [s for s in self.spans if s["job"] == job and s["end"] is not None]
        child_total: dict[int, float] = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_total[s["parent"]] += s["end"] - s["start"]
        return [(s, s["end"] - s["start"] - child_total[s["id"]]) for s in spans]

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "spans": self.spans}, indent=1) + "\n")
