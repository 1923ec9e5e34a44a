"""Spans recorded around calls into scoresys modules, from outside.

A Tracer replaces chosen module attributes (the names the CLI and the
CV harness call through) with wrappers that record a span per call:
name, start, end, parent and any attributes read off the result.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter() - self.t0, "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self.t0
            self._stack.pop()

    def wrap(self, name: str, fn, inspect=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if inspect is not None:
                    rec.update(inspect(result))
                return result
        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """targets: (module, attribute, span name, inspect or None)."""
        saved = []
        try:
            for mod, attr, name, inspect in targets:
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.wrap(name, getattr(mod, attr), inspect))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    # --- reading spans back ---------------------------------------------------

    @staticmethod
    def duration(rec: dict) -> float:
        return rec["end"] - rec["start"]

    def parent_of(self, rec: dict):
        return None if rec["parent"] is None else self.spans[rec["parent"]]

    def under(self, rec: dict, name: str) -> bool:
        """True when an ancestor span is called name."""
        p = self.parent_of(rec)
        while p is not None:
            if p["name"] == name:
                return True
            p = self.parent_of(p)
        return False

    def find(self, name: str, under: str | None = None) -> list[dict]:
        return [s for s in self.spans if s["name"] == name
                and (under is None or self.under(s, under))]

    def total(self, name: str, under: str | None = None) -> float:
        return sum(self.duration(s) for s in self.find(name, under))

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, indent=1)
            fh.write("\n")


def span_cost() -> float:
    """Seconds a call wrapped by Tracer.wrap costs more than the bare
    call: the median over 5 batches of 20000 calls of the per-call
    difference, measured on a no-op."""
    def noop():
        return None

    calls, batches = 20000, 5
    tr = Tracer()
    wrapped = tr.wrap("noop", noop)
    diffs = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        diffs.append(((t2 - t1) - (t1 - t0)) / calls)
        tr.spans.clear()
    return statistics.median(diffs)
