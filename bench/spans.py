"""In-memory span recorder for the benchmark's traced runs.

A span is one timed call into a vtrkit layer, made from the benchmark's own
code: name, start, end (``time.perf_counter`` seconds), the id of the span
that encloses it, and optional counts the caller attaches.  Spans stay in
memory while the run measures and are written as JSON lines once it ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Recorder:
    """Records nested spans; ``span`` yields a dict the caller may fill with counts."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        counts: dict[str, int] = {}
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "counts": counts,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield counts
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            totals[s["name"]] += s["end"] - s["start"] - covered[s["id"]]
        return dict(totals)

    def count_totals(self) -> dict[str, int]:
        totals: dict[str, int] = defaultdict(int)
        for s in self.spans:
            for key, value in s["counts"].items():
                totals[key] += value
        return dict(totals)


class NullRecorder:
    """Tracing off: the same calls, nothing recorded."""

    def span(self, name: str):
        return nullcontext({})


def write_jsonl(path, recorders: list[Recorder]) -> None:
    """One line per span; ``pass`` numbers the traced pass the span belongs to."""
    with open(path, "w", encoding="utf-8") as f:
        for index, recorder in enumerate(recorders):
            for s in recorder.spans:
                f.write(json.dumps({"pass": index, **s}, sort_keys=True) + "\n")
