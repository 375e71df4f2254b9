"""In-memory spans around the benchmark's calls into forestbound.

An operation span (one analysis, one post hoc session, one set-up step) is
the parent of a span per public call made inside it; every span carries the
operation's id.  Calls made *beside* an operation, after its timer stopped,
are recorded with ``beside=True``: they measure a sub-step on its own and
count towards no self time.

Timing runs whether or not spans are recorded, because the end-to-end
metrics need the latency of single calls; recording is the only cost that
tracing adds.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import asdict, dataclass
from time import perf_counter

LAYERS = ("forest", "zeta", "pruning", "bounds", "curve", "formats", "bench")

# The probe loop's seconds at the reference speed, about its median on the
# 2-vCPU Xeon host the benchmark was tuned on.  Only ratios between runs of
# one host matter.
PROBE_LOOPS = 20_000
PROBE_REF_S = 1.8e-3


def speed_scale() -> float:
    """Reference speed over the host's speed now, from a fixed Python loop.

    The host this benchmark was tuned on switches for seconds at a time
    between two speeds some 1.6x apart.  Multiplying a latency by the scale
    measured beside it turns it into seconds at the reference speed, which
    repeat across runs where raw seconds do not.
    """
    t = perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return PROBE_REF_S / (perf_counter() - t)


@dataclass
class Span:
    name: str
    op: str
    parent: int | None
    start: float
    end: float
    beside: bool = False


class Tracer:
    """Times calls; records spans while ``recording`` is set."""

    def __init__(self) -> None:
        self.recording = False
        self.spans: list[Span] = []
        self.notes: dict[str, list[float]] = defaultdict(list)
        self._op = ""
        self._parent: int | None = None

    def start_op(self, name: str, op: str) -> float:
        t = perf_counter()
        if self.recording:
            self._op, self._parent = op, len(self.spans)
            self.spans.append(Span(name, op, None, t, t))
        return t

    def end_op(self, started: float) -> float:
        t = perf_counter()
        if self.recording:
            self.spans[self._parent].end = t
        return t - started

    def timed(self, name: str, fn, *args, beside: bool = False):
        """Call ``fn(*args)``; return its result and its duration in seconds."""
        t0 = perf_counter()
        out = fn(*args)
        t1 = perf_counter()
        if self.recording:
            self.spans.append(Span(name, self._op, self._parent, t0, t1, beside))
        return out, t1 - t0

    def call(self, name: str, fn, *args):
        return self.timed(name, fn, *args)[0]

    def note(self, name: str, value: float) -> None:
        if self.recording:
            self.notes[name].append(value)

    def durations(self, name: str, beside: bool = False) -> list[float]:
        return [
            s.end - s.start
            for s in self.spans
            if s.name == name and s.beside == beside
        ]

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Seconds per layer not covered by child spans; op spans are "bench".

        Only spans from index ``first`` on count.  Children of one operation
        run one after another, so the covered part of a parent is the sum of
        its children clipped to its interval.
        """
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans[first:]:
            if s.parent is not None and not s.beside:
                p = self.spans[s.parent]
                covered[s.parent] += max(
                    0.0, min(s.end, p.end) - max(s.start, p.start)
                )
        out = dict.fromkeys(LAYERS, 0.0)
        for i, s in enumerate(self.spans[first:], start=first):
            if s.beside:
                continue
            layer = "bench" if s.parent is None else s.name.split(".", 1)[0]
            out[layer] += (s.end - s.start) - covered[i]
        return out

    def write(self, path, header: dict) -> None:
        """Write the header and then one span per line, as JSON."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                rec = asdict(s)
                rec["start"] -= t0
                rec["end"] -= t0
                fh.write(json.dumps(rec) + "\n")
