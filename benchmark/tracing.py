"""Spans around the calls that one nls2d module makes into another.

The tracer replaces a module attribute with a wrapper that records a span:
a name, a start and an end (``time.perf_counter``, which is system-wide on
Linux, so spans of different processes share one clock), the id of the span
open around it in the same process, and optional counts read from the
result.  Nothing under ``src/`` is edited: the wrappers work because the
package looks these names up in a module's globals at call time.

Spans stay in memory.  A sweep worker is forked from the traced process, so
it inherits the wrappers; when its outermost span closes it appends its
spans to a file of its own under the spool directory, and `collect` merges
those files with the spans of the process that installed the tracer.
"""

from __future__ import annotations

import functools
import json
import os
import time


class Tracer:
    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.home_pid = os.getpid()
        self.pid = self.home_pid
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._next_id = 0

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``counts(result)`` may return a dict of counts stored on the span.
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open_span(name)
            try:
                result = fn(*args, **kwargs)
                if counts is not None:
                    span["counts"] = counts(result)
                return result
            finally:
                tracer._close_span(span)

        setattr(owner, attr, traced)

    def _open_span(self, name: str) -> dict:
        pid = os.getpid()
        if pid != self.pid:
            # first span in a forked worker: the copied parent spans are not ours
            self.pid = pid
            self.spans = []
            self._open = []
        span = {
            "id": f"{pid}:{self._next_id}",
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "pid": pid,
        }
        self._next_id += 1
        self.spans.append(span)
        self._open.append(span)
        span["start"] = time.perf_counter()
        return span

    def _close_span(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._open.pop()
        if not self._open and self.pid != self.home_pid:
            path = os.path.join(self.spool_dir, f"spans_{self.pid}.jsonl")
            with open(path, "a") as fh:
                for s in self.spans:
                    fh.write(json.dumps(s) + "\n")
            self.spans = []

    def collect(self) -> list[dict]:
        """Own spans plus every span the forked workers spooled."""
        spans = list(self.spans)
        for entry in sorted(os.listdir(self.spool_dir)):
            if entry.startswith("spans_") and entry.endswith(".jsonl"):
                with open(os.path.join(self.spool_dir, entry)) as fh:
                    spans.extend(json.loads(line) for line in fh)
        return spans


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the nls2d package."""
    from nls2d import evolution, grid, ground_state, harness

    def evolve_counts(rec):
        return {"steps": rec.steps_taken, "probes": len(rec.times)}

    for owner, attr, name, counts in (
        (ground_state, "solve_radial_shooting", "ground_state.shooting", None),
        (harness, "solve_petviashvili", "ground_state.petviashvili", None),
        (harness, "load_ground_state", "ground_state.load", None),
        (ground_state, "load_ground_state", "ground_state.load", None),
        (harness, "make_initial_data", "ground_state.initial_data", None),
        (grid.SpectralGrid, "__init__", "grid.spectral_grid", None),
        (harness, "classify", "classifier.classify", None),
        (harness, "evolve", "evolution.evolve", evolve_counts),
        (evolution, "evolve", "evolution.evolve", evolve_counts),
        (harness, "scattering_detect", "diagnostics.scattering_detect", None),
        (harness, "run_single", "harness.run_single", None),
        (harness, "_sweep_worker", "harness.sweep_row", None),
        (harness, "write_verdict_json", "harness.artifacts", None),
        (harness, "write_trajectory_csv", "harness.artifacts", None),
        (evolution, "write_trajectory_csv", "harness.artifacts", None),
        (harness, "write_scattering_json", "harness.artifacts", None),
        (harness, "write_virial_csv", "harness.artifacts", None),
    ):
        tracer.wrap(owner, attr, name, counts)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_time(span: dict, spans: list[dict]) -> float:
    """Span duration minus its direct children (they run one after another)."""
    return duration(span) - sum(
        duration(s) for s in spans if s["parent"] == span["id"])


def total(spans: list[dict], name: str) -> float:
    return sum(duration(s) for s in spans if s["name"] == name)


def count(spans: list[dict], name: str, key: str) -> int:
    return sum(s["counts"][key] for s in spans
               if s["name"] == name and "counts" in s)


def self_table(spans: list[dict]) -> list[tuple[str, int, float]]:
    """(name, calls, summed self time in s) per span name, largest first."""
    table: dict[str, list] = {}
    for s in spans:
        row = table.setdefault(s["name"], [0, 0.0])
        row[0] += 1
        row[1] += self_time(s, spans)
    return sorted(((k, v[0], v[1]) for k, v in table.items()),
                  key=lambda r: -r[2])
