"""In-memory span recorder for the benchmark's traced mode.

A span covers one call the benchmark makes into a layer: its name, start,
end, the span that was open around it, and the run id shared by every span
of one benchmark run.  Spans stay in memory and are written out once, as
Chrome trace JSON, when the run ends.
"""

import contextlib
import json
import time


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        rec = self._new(name, time.monotonic())
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            self._open.pop()
            rec["end"] = time.monotonic()

    def add(self, name, start, end, parent):
        """Records a finished span timed elsewhere (the per-layer driver
        reports monotonic stamps of its calls) under span `parent`."""
        self._new(name, start, parent)["end"] = end

    def _new(self, name, start, parent=None):
        if parent is None and self._open:
            parent = self._open[-1]
        rec = {"id": len(self.spans), "name": name, "start": start,
               "end": None, "parent": parent}
        self.spans.append(rec)
        return rec

    def write_chrome(self, path):
        t0 = min((s["start"] for s in self.spans), default=0.0)
        events = [{
            "name": s["name"], "ph": "X", "pid": 1, "tid": 1,
            "ts": round((s["start"] - t0) * 1e6, 3),
            "dur": round((s["end"] - s["start"]) * 1e6, 3),
            "args": {"span": s["id"], "parent": s["parent"],
                     "run": self.run_id},
        } for s in self.spans]
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)

    def table(self):
        """Per span name: calls, total seconds and self seconds (total
        minus the time its child spans cover)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        rows = {}
        for s in self.spans:
            dur = s["end"] - s["start"]
            r = rows.setdefault(s["name"], [0, 0.0, 0.0])
            r[0] += 1
            r[1] += dur
            r[2] += dur - child[s["id"]]
        return rows
