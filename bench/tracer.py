"""Spans around zecklab's public entry points, recorded from outside the package.

``Tracer.install`` replaces each traced function in every ``zecklab`` module
namespace that holds it (and each traced method on ``SequenceHandle``) with a
wrapper that times the call.  Nothing under ``src/`` changes.

Self time is a span's duration minus the time its child spans cover.  It is
summed per function as the run goes, together with call and error counts
and a few work counts taken from arguments and results.  The spans
themselves (name, start, end, parent span, op id) are kept in memory only
when asked for, because the hottest entry points are called millions of
times, and are written out at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

SEQUENCE_METHODS = ["top_index", "index_of_value", "extend_until_exceeds", "term"]
FUNCTIONS = {
    "recurrence": ["parse_recurrence"],
    "greedy": ["greedy_decompose"],
    "legality": ["is_legal", "word_derivation", "window_alignment", "word_is_legal"],
    "enumerator": ["naive_oracle", "enumerate_legal", "decompositions_up_to",
                   "first_nonunique"],
    "uniqueness": ["probe_family", "construct_counterexample",
                   "verify_uniqueness_range"],
}
TRACED = [f"sequence.{m}" for m in SEQUENCE_METHODS] + [
    f"{module}.{name}" for module, names in FUNCTIONS.items() for name in names]
STATUSES = ["ok", "inconsistent", "budget_exceeded"]
COUNTS = ["sequence.terms_grown", "greedy.summands", "enumerator.naive_oracle.candidates",
          "enumerator.enumerate_legal.decompositions", "enumerator.decompositions_up_to.words"
          ] + [f"uniqueness.status_{s}" for s in STATUSES]


class Tracer:
    """Per-function call, self-time and error totals for one process."""

    def __init__(self, keep_spans: bool = False):
        self.active = True
        self.op_id = 0
        self.totals = defaultdict(lambda: [0, 0.0, 0])  # calls, self_s, errors
        self.counts = defaultdict(int)
        self.spans: list | None = [] if keep_spans else None
        self._stack: list[list] = []  # [name, start, child_s, span index]
        self._new_handles: list = []
        self._hooks = {
            "greedy.greedy_decompose": self._on_greedy,
            "legality.is_legal": self._on_is_legal,
            "legality.word_is_legal": self._on_word_is_legal,
            "enumerator.enumerate_legal": self._on_enumerate_legal,
            "enumerator.decompositions_up_to": self._on_sweep,
            "uniqueness.probe_family": self._on_probe,
        }

    # -- installation -----------------------------------------------------

    def install(self, zk) -> None:
        """Wrap every traced entry point of the imported package ``zk``."""
        cls = zk.SequenceHandle
        for method in SEQUENCE_METHODS:
            setattr(cls, method, self._wrap(f"sequence.{method}", getattr(cls, method)))
        init = cls.__init__

        def registering_init(handle, *args, **kwargs):
            init(handle, *args, **kwargs)
            if self.active:
                self._new_handles.append((handle, len(handle)))

        cls.__init__ = registering_init
        namespaces = [mod for name, mod in sys.modules.items()
                      if name == zk.__name__ or name.startswith(zk.__name__ + ".")]
        for module, names in FUNCTIONS.items():
            home = sys.modules[f"{zk.__name__}.{module}"]
            for name in names:
                original = getattr(home, name)
                wrapped = self._wrap(f"{module}.{name}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapped)

    def _wrap(self, name: str, fn):
        stack, totals, hooks, clock = self._stack, self.totals, self._hooks, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = None
            if self.spans is not None:
                index = len(self.spans)
                self.spans.append(None)
            frame = [name, 0.0, 0.0, index]
            parent = stack[-1] if stack else None
            stack.append(frame)
            raised = True
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                entry = totals[name]
                entry[0] += 1
                entry[1] += duration - frame[2]
                if raised:
                    entry[2] += 1
                if parent is not None:
                    parent[2] += duration
                if index is not None:
                    self.spans[index] = (name, frame[1], end,
                                         parent[3] if parent else None, self.op_id)
            hook = hooks.get(name)
            if hook is not None:
                hook(result, parent[0] if parent else None)
            return result

        return traced

    # -- work counts --------------------------------------------------------

    def _on_greedy(self, result, parent):
        d = result[0] if isinstance(result, tuple) else result
        self.counts["greedy.summands"] += len(d.summands)

    def _on_is_legal(self, verdict, parent):
        self.counts["legality.is_legal.illegal"] += not verdict.legal

    def _on_word_is_legal(self, legal, parent):
        if parent == "enumerator.naive_oracle":
            self.counts["enumerator.naive_oracle.candidates"] += 1
            self.counts["enumerator.naive_oracle.legal"] += bool(legal)

    def _on_enumerate_legal(self, result, parent):
        self.counts["enumerator.enumerate_legal.decompositions"] += len(result)

    def _on_sweep(self, buckets, parent):
        self.counts["enumerator.decompositions_up_to.words"] += sum(map(len, buckets.values()))
        if parent == "enumerator.first_nonunique":
            self.counts["enumerator.first_nonunique.sweeps"] += 1

    def _on_probe(self, records, parent):
        for rec in records:
            self.counts[f"uniqueness.status_{rec.status}"] += 1

    def settle_handles(self) -> None:
        """Add the growth of handles created since the last call, then drop them.

        Called at every op boundary, so handles an op creates and discards
        are neither lost nor kept alive.
        """
        for handle, before in self._new_handles:
            self.counts["sequence.terms_grown"] += len(handle) - before
        self._new_handles.clear()

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric, as {name: (value, unit)}."""
        out = {}
        for name in TRACED:
            calls, self_s, errors = self.totals[name]
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
            out[f"{name}.errors"] = (errors, "count")
        for name in COUNTS:
            out[name] = (self.counts[name], "count")

        def share(part, whole):
            return part / whole if whole else 0.0

        out["legality.is_legal.illegal_share"] = (share(
            self.counts["legality.is_legal.illegal"],
            self.totals["legality.is_legal"][0]), "ratio")
        out["enumerator.naive_oracle.legal_share"] = (share(
            self.counts["enumerator.naive_oracle.legal"],
            self.counts["enumerator.naive_oracle.candidates"]), "ratio")
        out["enumerator.first_nonunique.sweeps_per_call"] = (share(
            self.counts["enumerator.first_nonunique.sweeps"],
            self.totals["enumerator.first_nonunique"][0]), "sweeps/call")
        return out

    def self_share(self, names: list[str]) -> float:
        """Share of all traced self time spent in ``names``."""
        total = sum(entry[1] for entry in self.totals.values())
        return sum(self.totals[n][1] for n in names) / total if total else 0.0

    def write_spans(self, path: str) -> None:
        """One JSON object per span, in the order the spans started."""
        with open(path, "w") as out:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(json.dumps({"id": index, "name": name, "start": start,
                                      "end": end, "parent": parent, "op": op}) + "\n")
