"""Spans around the calls into each evops layer, recorded from outside the package.

``install`` replaces layer functions on the evops modules with wrappers that
record one span per call: name, start, end, parent span and thread id, plus
an integer of work done (rows gathered, library cells scanned, bytes read).
The loop looks these functions up as module globals or class attributes at
call time, so the wrappers see every call without any change to evops.
Spans stay in memory; ``layer_metrics`` turns them into per-layer numbers.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np


class Span(NamedTuple):
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    work: int


class Recorder:
    """Collects spans; one per wrapped call, from any thread."""

    def __init__(self):
        # Plain tuples in Span's field order; ``spans`` makes them Spans.
        self._records: list[tuple] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main_thread = threading.main_thread().ident

    @property
    def spans(self) -> list[Span]:
        return [Span(*r) for r in self._records]

    def wrap(self, name, fn, work=None):
        """Return ``fn`` wrapped so that each call records a span called ``name``.

        ``work(*args, **kwargs)`` gives the span's work count; it runs after
        the span has ended, so its cost is not charged to the span.
        """
        records, ids, stacks = self._records, self._ids, self._stacks
        main_stack = stacks.setdefault(self._main_thread, [])
        get_ident, clock = threading.get_ident, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            thread = get_ident()
            stack = stacks.get(thread)
            if stack is None:
                stack = stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            else:
                # A worker thread's first span was caused by whatever the
                # main thread has open, since the pool is driven from there.
                parent = main_stack[-1] if main_stack else None
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            amount = work(*args, **kwargs) if work is not None else 0
            records.append((span_id, name, start, end, parent, thread, amount))
            return result

        return traced


def _library_cells(query, library, k):
    return int(library.vectors.size)


def _selected_rows(genome, *args, **kwargs):
    return int(np.count_nonzero(genome))


def _file_bytes(path):
    return os.path.getsize(path)


def install(recorder: Recorder) -> None:
    """Wrap the public functions of every evops layer with span recorders."""
    from evops import dataset, evolution, fitness, pareto_report

    def patch(owner, attr, name, work=None):
        setattr(owner, attr, recorder.wrap(name, getattr(owner, attr), work))

    patch(dataset, "load_dataset", "dataset.load")
    patch(dataset, "read_embedding_file", "dataset.read", _file_bytes)

    patch(evolution, "run_evolution", "evolution.run")
    patch(evolution, "safe_uniform_crossover", "evolution.variation.crossover")
    patch(evolution, "safe_bitflip_mutation", "evolution.variation.mutation")
    patch(evolution, "select_parents", "evolution.ranking.select_parents")
    patch(evolution, "select_survivors", "evolution.ranking.select_survivors")

    patch(fitness.FitnessEvaluator, "evaluate", "fitness.evaluate")
    patch(fitness.FitnessEvaluator, "evaluate_full", "fitness.evaluate_full")
    patch(fitness, "aggregate_selected", "fitness.aggregation", _selected_rows)
    patch(fitness, "knn_predict", "fitness.knn", _library_cells)
    patch(fitness, "confusion_matrix", "fitness.scoring.confusion_matrix")
    patch(fitness, "weighted_f1_from_confusion", "fitness.scoring.weighted_f1")

    patch(pareto_report, "build_report", "pareto_report.build_report")
    patch(pareto_report, "evaluate_front", "pareto_report.evaluate_front")
    patch(pareto_report, "compute_baseline", "pareto_report.baseline")
    patch(pareto_report, "export_report", "pareto_report.export")


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span duration minus the time its children on the same thread cover.

    Children on other threads run alongside the parent rather than inside
    it, so they are not subtracted.
    """
    by_id = {s.span_id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            children[s.parent].append((s.start, s.end))
    return {s.span_id: (s.end - s.start) - covered(children[s.span_id]) for s in spans}


VARIATION = ("evolution.variation.crossover", "evolution.variation.mutation")
RANKING = ("evolution.ranking.select_parents", "evolution.ranking.select_survivors")
SCORING = ("fitness.scoring.confusion_matrix", "fitness.scoring.weighted_f1")

# Computed, not measured: the gather reads each selected float64 row and
# writes it to a temporary, and reduceat reads the temporary once more.
AGGREGATION_PASSES = 3
# Computed, not measured: a subtract, a multiply and an add per library cell.
KNN_FLOPS_PER_CELL = 3

# Metrics that count work; they must repeat exactly between traced runs of
# the same input.
COUNT_METRICS = (
    "dataset.bytes_read",
    "evolution.variation.calls",
    "evolution.ranking.calls",
    "fitness.scored",
    "fitness.computed",
    "fitness.aggregation.calls",
    "fitness.aggregation.rows_gathered",
    "fitness.aggregation.bytes_moved",
    "fitness.knn.queries",
    "fitness.knn.flops",
    "fitness.scoring.calls",
    "pareto_report.bytes_written",
)


def layer_metrics(spans, generations, dim, manifest_bytes, bytes_written) -> dict:
    """Per-layer numbers of one traced run, keyed by metric name.

    Fitness layers count every call, from the search and from the report's
    rescoring alike; fitness.scored and fitness.computed count the search's
    calls only. With more than one worker, the self times of the fitness
    layers add up over the worker threads, so they can exceed wall time.
    """
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    names = {s.span_id: s.name for s in spans}

    def group(*span_names):
        return [s for n in span_names for s in by_name[n]]

    def self_s(*span_names):
        return sum(own[s.span_id] for s in group(*span_names))

    def wall_s(name):
        return sum(s.end - s.start for s in by_name[name])

    def work(name):
        return sum(s.work for s in by_name[name])

    out = {}
    load_s = wall_s("dataset.load")
    out["dataset.load_s"] = load_s
    out["dataset.bytes_read"] = manifest_bytes + work("dataset.read")
    out["dataset.mb_per_s"] = out["dataset.bytes_read"] / load_s / 1e6

    for layer, span_names in (("variation", VARIATION), ("ranking", RANKING)):
        seconds = self_s(*span_names)
        out[f"evolution.{layer}.self_s"] = seconds
        out[f"evolution.{layer}.calls"] = len(group(*span_names))
        out[f"evolution.{layer}.ms_per_gen"] = 1000.0 * seconds / generations

    scored = len(by_name["fitness.evaluate"])
    computed = sum(
        1 for s in by_name["fitness.evaluate_full"] if names.get(s.parent) == "fitness.evaluate"
    )
    out["fitness.scored"] = scored
    out["fitness.computed"] = computed
    out["fitness.cache_hit_ratio"] = 1.0 - computed / scored

    agg_s = self_s("fitness.aggregation")
    rows = work("fitness.aggregation")
    out["fitness.aggregation.self_s"] = agg_s
    out["fitness.aggregation.calls"] = len(by_name["fitness.aggregation"])
    out["fitness.aggregation.rows_gathered"] = rows
    out["fitness.aggregation.bytes_moved"] = AGGREGATION_PASSES * rows * dim * 8
    out["fitness.aggregation.gb_per_s"] = out["fitness.aggregation.bytes_moved"] / agg_s / 1e9

    knn_s = self_s("fitness.knn")
    queries = len(by_name["fitness.knn"])
    out["fitness.knn.self_s"] = knn_s
    out["fitness.knn.queries"] = queries
    out["fitness.knn.us_per_query"] = 1e6 * knn_s / queries
    out["fitness.knn.flops"] = KNN_FLOPS_PER_CELL * work("fitness.knn")

    out["fitness.scoring.self_s"] = self_s(*SCORING)
    out["fitness.scoring.calls"] = len(group(*SCORING))

    out["pareto_report.evaluate_front_s"] = wall_s("pareto_report.evaluate_front")
    out["pareto_report.baseline_s"] = wall_s("pareto_report.baseline")
    out["pareto_report.export_s"] = wall_s("pareto_report.export")
    out["pareto_report.bytes_written"] = bytes_written
    return out


def write_spans(spans, path) -> None:
    """Write spans as CSV, one per line, in the order they ended."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("span_id,name,start,end,parent,thread,work\n")
        for s in spans:
            parent = "" if s.parent is None else s.parent
            fh.write(f"{s.span_id},{s.name},{s.start:.9f},{s.end:.9f},{parent},{s.thread},{s.work}\n")
