"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around calls into reefsim's public functions.  A call
made inside the package is traced by replacing the name the *calling*
module looks up (``reefsim.mission.ekf_update``, not
``reefsim.vehicle.ekf_update``), so the program's own code is untouched and
the originals are restored when the traced pass ends.

Each span carries a name, start, end and parent index.  Spans stay in
compact arrays until the pass ends; self time is a span's duration minus the
part of it covered by its children.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, span: str) -> int:
        nid = self._ids.get(span)
        if nid is None:
            nid = self._ids[span] = len(self.names)
            self.names.append(span)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a call made from the benchmark's own code."""
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, owner, attr: str, span: str, count=None) -> None:
        """Replace ``owner.attr`` by a traced version until :meth:`restore`.

        ``count(counts, args, kwargs, result)`` runs after the span closes
        and records work counts at the same boundary.
        """
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            i = tracer._open(span)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(i)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def arrays(self):
        return tuple(np.asarray(a) for a in (self.name, self.parent, self.start, self.end))

    def totals(self) -> dict[str, tuple[float, float, int]]:
        """Per span name: (total seconds, self seconds, span count).

        Spans nest strictly in one thread, so the children of a span are
        disjoint and their durations sum to the coverage of the parent.
        A span nested inside another of the same name (recursion) would be
        counted twice in the total; no traced function recurses.
        """
        name, parent, start, end = self.arrays()
        duration = end - start
        covered = np.zeros(len(duration))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], duration[has_parent])
        own = duration - covered
        out = {}
        for nid, label in enumerate(self.names):
            mask = name == nid
            out[label] = (float(duration[mask].sum()), float(own[mask].sum()), int(mask.sum()))
        return out

    def durations(self, span: str) -> np.ndarray:
        name, _, start, end = self.arrays()
        nid = self._ids.get(span)
        if nid is None:
            return np.zeros(0)
        mask = name == nid
        return end[mask] - start[mask]

    def top_level_coverage(self) -> float:
        """Seconds covered by spans that have no parent span."""
        _, parent, start, end = self.arrays()
        top = parent < 0
        return float((end[top] - start[top]).sum())
