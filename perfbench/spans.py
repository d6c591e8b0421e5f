"""In-memory spans around the benchmark's calls into prcalc.

A span records name, start, end, parent span and op id.  Its layer is the
part of the name before the first dot (`surface.parse_term` belongs to
`surface`).  Spans stay in a list until the round ends; `span_report`
turns them into busy and self times.

`Untraced` has the same `call` signature and only forwards, so the timed
code path is the same in both modes apart from the span bookkeeping.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, List

_now = time.perf_counter


class Untraced:
    phase = "round"
    op = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent, op, phase, error]
        self._stack: List[int] = []
        self.phase = "setup"
        self.op = None

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = [name, _now(), 0.0, parent, self.op, self.phase, None]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        except BaseException as e:
            span[6] = type(e).__name__
            raise
        finally:
            self._stack.pop()
            span[2] = _now()


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [end - start for _name, start, end, *_ in spans]
    for _name, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def span_report(spans: List[list]) -> Dict[str, dict]:
    """Per span name: calls, busy seconds (outermost spans of that name)
    and the exceptions that left the spans."""
    out: Dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "errors": {}})
    for name, start, end, parent, _op, _phase, err in spans:
        rec = out[name]
        rec["calls"] += 1
        if not _has_ancestor_named(spans, parent, name):
            rec["busy_s"] += end - start
        if err is not None:
            rec["errors"][err] = rec["errors"].get(err, 0) + 1
    return dict(out)


def _has_ancestor_named(spans, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False

