"""Span tracing by wrapping the program's functions from outside.

A ``Tracer`` swaps each named function for a timing wrapper in every
``supercell`` module namespace that binds it and, for methods, on the
class. ``restore`` puts the originals back, so the program is never edited.
Spans (name, start, end, parent) are kept in compact in-memory arrays and
written out once, when the run ends.

A target missing from the code (renamed or fused by a later change) is
recorded as absent; its time then falls into its caller's self time and
the run goes on.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import os
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

# Span name -> (module, attribute path). The epoch split follows the
# training hot path: embed gather, GRU scan, heads (the self time of the
# forward pass plus the loss), GRU backward, embed scatter, Adam and the
# per-epoch accuracy pass.
TARGETS: dict[str, tuple[str, str]] = {
    "ingest.decompose": ("supercell.ingest", "decompose"),
    "canon.canonicalize": ("supercell.canon", "canonicalize"),
    "core.render_feature": ("supercell.core", "render_feature"),
    "mapping.generate_training_data": ("supercell.mapping", "generate_training_data"),
    "mapping.resolve_position": ("supercell.mapping", "resolve_position"),
    "perturb.augment": ("supercell.perturb", "augment"),
    "learner.train": ("supercell.learner", "train"),
    "learner.init_params": ("supercell.learner", "init_params"),
    "learner.encode_samples": ("supercell.learner", "encode_samples"),
    "learner.embed_gather": ("supercell.learner", "_embed_batch"),
    "learner.gru_scan": ("supercell.learner", "_gru_scan"),
    "learner.forward_batch": ("supercell.learner", "_forward_batch"),
    "learner.loss_and_grads": ("supercell.learner", "loss_and_grads"),
    "learner.gru_backward": ("supercell.learner", "_gru_backward"),
    "learner.embed_scatter": ("supercell.learner", "_embed_backward"),
    "learner.adam": ("supercell.learner", "_adam_step"),
    "learner.accuracy_pass": ("supercell.learner", "_accuracy_encoded"),
    "learner.predict_cells": ("supercell.learner", "predict_cells"),
    "learner.ModelParams.save": ("supercell.learner", "ModelParams.save"),
    "learner.ModelParams.load": ("supercell.learner", "ModelParams.load"),
    "assemble.TargetTable.apply": ("supercell.assemble", "TargetTable.apply"),
    "assemble.finalize_and_write": ("supercell.assemble", "finalize_and_write"),
    "baseline.signature": ("supercell.baseline", "signature"),
    "baseline.match_columns": ("supercell.baseline", "match_columns"),
    "baseline.baseline_integrate": ("supercell.baseline", "baseline_integrate"),
    "baseline.save_signatures": ("supercell.baseline", "save_signatures"),
}


# What a count callback receives in place of the result when the call raised.
RAISED = object()


def _apply_counts(counters: dict, args, kwargs):
    report = args[0].report
    before = (report.cells_written, report.cells_skipped)

    def after(result):
        counters["assemble.cells_written"] += report.cells_written - before[0]
        counters["assemble.cells_skipped"] += report.cells_skipped - before[1]

    return after


def _len_of_result(counter: str):
    def hook(counters: dict, args, kwargs):
        def after(result):
            if result is not RAISED:
                counters[counter] += len(result)

        return after

    return hook


def _predicted_cells(counters: dict, args, kwargs):
    counters["learner.predict_cells.cells"] += len(args[0])
    return None


def _store_bytes(counters: dict, args, kwargs):
    path = str(args[1])

    def after(result):
        if result is not RAISED:
            counters["baseline.store_bytes"] = os.path.getsize(path) + os.path.getsize(
                path + ".index.json"
            )

    return after


# Work counts taken at the same boundaries as the spans. A hook sees the
# call's arguments before it runs and may return a callback, which gets the
# result, or RAISED if the call raised; a raising TargetTable.apply still
# counts the cells it wrote or skipped before an AggModeConflict.
COUNT_HOOKS: dict[str, Callable] = {
    "assemble.TargetTable.apply": _apply_counts,
    "ingest.decompose": _len_of_result("ingest.cells_out"),
    "perturb.augment": _len_of_result("perturb.samples_out"),
    "learner.predict_cells": _predicted_cells,
    "baseline.save_signatures": _store_bytes,
}

COUNTERS = (
    "assemble.cells_written",
    "assemble.cells_skipped",
    "ingest.cells_out",
    "perturb.samples_out",
    "learner.predict_cells.cells",
    "baseline.store_bytes",
)


@dataclass
class SpanStats:
    calls: int
    busy_s: float
    self_s: float


class Tracer:
    """Records spans while ``active``; ``paused`` lets the benchmark run its
    own input generation and correctness checks without tracing them."""

    def __init__(self) -> None:
        self.names: list[str] = list(TARGETS)
        self._name_id = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, int] = {c: 0 for c in COUNTERS}
        self.absent: list[str] = []
        self.active = False
        self._patches: list[tuple[object, str, object]] = []

    # -- installing and removing the wrappers -------------------------------

    def install(self) -> None:
        for name_id, (name, (module_name, path)) in enumerate(TARGETS.items()):
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = None if owner is None else vars(owner).get(attr)
            if raw is None:
                self.absent.append(name)
                continue
            if isinstance(raw, staticmethod):
                self._patch(owner, attr, staticmethod(self._wrap(raw.__func__, name_id, name)))
            elif owner_name:
                self._patch(owner, attr, self._wrap(raw, name_id, name))
            else:
                wrapper = self._wrap(raw, name_id, name)
                for mod in list(sys.modules.values()):
                    mod_name = getattr(mod, "__name__", "")
                    if not (mod_name == "supercell" or mod_name.startswith("supercell.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._patch(mod, key, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.active = False

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, name_id: int, name: str):
        hook = COUNT_HOOKS.get(name)
        stack = self._stack
        name_ids, parents, starts, ends = self._name_id, self._parent, self._start, self._end
        counters = self.counters
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            after = hook(counters, args, kwargs) if hook is not None else None
            index = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            result = RAISED
            started = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ends[index] = perf()
                starts[index] = started
                stack.pop()
                if after is not None:
                    after(result)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextlib.contextmanager
    def paused(self):
        was = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = was

    # -- results -------------------------------------------------------------

    def stats(self) -> dict[str, SpanStats]:
        """Calls, busy time and self time per span name.

        Self time is a span's duration minus the time its child spans
        cover; children run inside their parent on one thread, so that is
        the sum of the children's durations. None of the wrapped functions
        calls itself, so busy time is the plain sum of durations.
        """
        n = len(self._name_id)
        child = [0.0] * n
        durations = [e - s for s, e in zip(self._start, self._end)]
        for i, parent in enumerate(self._parent):
            if parent >= 0:
                child[parent] += durations[i]
        out = {name: SpanStats(0, 0.0, 0.0) for name in self.names}
        for i, name_id in enumerate(self._name_id):
            entry = out[self.names[name_id]]
            entry.calls += 1
            entry.busy_s += durations[i]
            entry.self_s += durations[i] - child[i]
        return out

    def span_count(self) -> int:
        return len(self._name_id)

    def span_cost_s(self, calls: int = 20_000) -> float:
        """Seconds one traced call adds to a plain one, measured on a no-op
        function. The measured spans are dropped again."""

        def noop():
            return None

        traced = self._wrap(noop, len(self.names), "calibration")
        mark = len(self._name_id)
        was, self.active = self.active, True
        perf = time.perf_counter
        started = perf()
        for _ in range(calls):
            noop()
        plain_s = perf() - started
        started = perf()
        for _ in range(calls):
            traced()
        traced_s = perf() - started
        self.active = was
        for column in (self._name_id, self._parent, self._start, self._end):
            del column[mark:]
        return max(traced_s - plain_s, 0.0) / calls

    def write_spans(self, path: str) -> None:
        """Gzipped CSV, one line per span: name, start, end (seconds on the
        run's monotonic clock) and the index of the parent span, -1 at the
        top."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name,start_s,end_s,parent\n")
            for name_id, start, end, parent in zip(
                self._name_id, self._start, self._end, self._parent
            ):
                fh.write(f"{self.names[name_id]},{start:.9f},{end:.9f},{parent}\n")
