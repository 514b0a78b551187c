"""In-memory spans and the Ray Data ``ds.stats()`` breakdown.

Spans are recorded by the benchmark's own code around each call into an
engine layer; nothing inside the engine is instrumented.  A span is
``(name, start, end, parent, run_id)``; spans are kept in memory and written
out once, when the run ends.
"""

from __future__ import annotations

import json
import re
import time
from contextlib import contextmanager
from typing import Optional


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": parent, "run_id": self.run_id}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part its children cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, covered)]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


# ---------------------------------------------------------------------------
# ds.stats() text -> seconds per layer
# ---------------------------------------------------------------------------

_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
_DUR = r"([0-9.]+)(us|ms|s)"
_OP_RE = re.compile(
    r"^Operator \d+ (\S.*?): (?:\d+ tasks executed, \d+ blocks produced in ([0-9.]+)s"
    r"|executed in ([0-9.]+)s)", re.M)
_WALL_RE = re.compile(r"\* Remote wall time: .*?, " + _DUR + r" total")
_UDF_RE = re.compile(r"\* UDF time: .*?, " + _DUR + r" total")
_BLOCKED_RE = re.compile(r"user thread is blocked by Ray Data iter_batches: " + _DUR)
# all-to-all operators: their work is a data exchange between tasks
_EXCHANGE = ("Aggregate", "Sort", "Repartition", "RandomShuffle", "HashShuffle",
             "HashAggregate", "Zip", "Join")


def _secs(m: Optional[re.Match]) -> float:
    return float(m.group(1)) * _UNIT[m.group(2)] if m else 0.0


def stats_breakdown(text: str) -> dict[str, float]:
    """Busy seconds of scan, map and exchange operators, plus the time the
    consuming thread was blocked, from one ``Dataset.stats()`` string.

    A read fused with maps counts its UDF time as map and the rest of its
    task time as scan."""
    out = {"scan": 0.0, "map": 0.0, "exchange": 0.0, "iter_blocked": 0.0}
    ops = list(_OP_RE.finditer(text))
    for i, m in enumerate(ops):
        body = text[m.end(): ops[i + 1].start() if i + 1 < len(ops) else len(text)]
        name = m.group(1)
        if m.group(3) is not None or name.split("->")[0].startswith(_EXCHANGE):
            walls = [_secs(w) for w in _WALL_RE.finditer(body)]
            out["exchange"] += sum(walls) if walls else float(m.group(3) or m.group(2))
            continue
        wall = _secs(_WALL_RE.search(body))
        udf = _secs(_UDF_RE.search(body))
        if name.startswith("Read"):
            out["scan"] += max(wall - udf, 0.0)
            out["map"] += udf
        else:
            out["map"] += wall
    out["iter_blocked"] = sum(_secs(b) for b in _BLOCKED_RE.finditer(text))
    return out


def add_breakdown(total: dict[str, float], ds) -> None:
    """Add one executed Dataset's breakdown into ``total``."""
    try:
        text = ds.stats()
    except Exception:  # a dataset that never ran has no stats
        return
    for k, v in stats_breakdown(text).items():
        total[k] = total.get(k, 0.0) + v
