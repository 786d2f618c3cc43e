"""Outside-in tracing of the library's layers for the traced benchmark run.

While a :class:`Tracer` is installed, each public layer function is replaced,
where its caller looks it up, by a wrapper that records a span (name, start,
end, parent span, job id) and a few counters.  Spans nest under ``cli.main``
and under the benchmark's own calls, so a layer's self time is its spans'
durations minus the time of the spans nested directly inside them.  Spans
stay in memory until the run ends.  Nothing under ``src/`` is modified; the
original functions are put back by :meth:`Tracer.remove`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter
from typing import Callable

# (module, attribute, span name).  Each entry is a place where a caller looks
# the function up at call time: the CLI, the construction pipeline, the text
# parser's graph builder, the illusion coloring's swap loop, and the package
# namespace that the benchmark's own jobs use.
WRAP_SITES = (
    ("majority_illusion.cli", "main", "cli.main"),
    ("majority_illusion.cli", "parse_graph_text", "fileformat.parse"),
    ("majority_illusion.cli", "write_graph", "fileformat.write"),
    ("majority_illusion.cli", "illusion_coloring", "coloring.illusion"),
    ("majority_illusion.cli", "classify_network", "analysis.classify"),
    ("majority_illusion.cli", "agent_statuses", "analysis.statuses"),
    ("majority_illusion.cli", "pq_report", "analysis.pq"),
    ("majority_illusion.cli", "regular_exists", "feasibility.verdict"),
    ("majority_illusion.cli", "construct_regular_illusion_report", "construct.build"),
    ("majority_illusion.cli", "fast_construct_report", "construct.build"),
    ("majority_illusion.cli", "best_coloring", "oracle.scan"),
    ("majority_illusion.cli", "extension", "logic.extension"),
    ("majority_illusion.construct", "make_graph", "graphs.make_graph"),
    ("majority_illusion.construct", "classify_network", "analysis.classify"),
    ("majority_illusion.construct", "regular_exists", "feasibility.verdict"),
    ("majority_illusion.fileformat", "make_graph", "graphs.make_graph"),
    ("majority_illusion.coloring", "weak_majority_2_coloring_swaps", "coloring.swap_loop"),
    ("majority_illusion", "illusion_coloring", "coloring.illusion"),
    ("majority_illusion", "classify_network", "analysis.classify"),
    ("majority_illusion", "regular_exists", "feasibility.verdict"),
    ("majority_illusion", "illusion_possible", "oracle.scan"),
    ("majority_illusion", "enumerate_regular", "oracle.enumerate"),
    ("majority_illusion", "formula_possible", "logic.formula_possible"),
)


def _pairing_edges(report) -> int:
    return sum(s["edges_added"] for s in report.stages if s["stage"].endswith("-pairing"))


# Counters taken from a span's arguments and result: span name -> function
# (args, result) -> {counter: increment}.  They run inside the span.
COUNTERS: dict[str, Callable] = {
    "fileformat.parse": lambda args, out: {"fileformat.bytes": len(args[0])},
    "fileformat.write": lambda args, out: {"fileformat.bytes": len(out)},
    "graphs.make_graph": lambda args, out: {
        "graphs.edges_built": sum(map(len, out.adj)) // 2
    },
    "coloring.swap_loop": lambda args, out: {"coloring.swaps": out[1]},
    "feasibility.verdict": lambda args, out: {"feasibility.verdicts": 1},
    "construct.build": lambda args, out: {
        "construct.pairing_jobs": int(_pairing_edges(out[1]) > 0),
        "construct.pairing_edges": _pairing_edges(out[1]),
    },
    # Computed, not observed: a scan covers 2^n colorings unless it stops early.
    "oracle.scan": lambda args, out: {"oracle.colorings_scanned": 1 << args[0].n},
}

# Per-layer metrics in output order: (name, unit, source, prediction).  The
# source is ("self", span name) for summed self time or ("count", counter).
# The prediction names the end-to-end metric and workload the layer figure
# should move, written down before any optimisation of that layer.
PER_LAYER = (
    ("graphs.make_graph_s", "s", ("self", "graphs.make_graph"),
     "job_p50_s on construct-regular (dense edge sets); parse cost on color-pipeline"),
    ("graphs.edges_built", "count", ("count", "graphs.edges_built"), "work count for make_graph"),
    ("fileformat.parse_s", "s", ("self", "fileformat.parse"),
     "job_p50_s on color-pipeline (two text hops per job) and construct-regular"),
    ("fileformat.write_s", "s", ("self", "fileformat.write"),
     "job_p50_s on color-pipeline and construct-regular (n*k/2 edges written)"),
    ("fileformat.bytes", "B", ("count", "fileformat.bytes"), "work count for parse and write"),
    ("coloring.swap_loop_s", "s", ("self", "coloring.swap_loop"),
     "job_tail_s and jobs_per_s on color-pipeline; no change on exhaustive-certify"),
    ("coloring.swaps", "count", ("count", "coloring.swaps"), "work count for the swap loop"),
    ("coloring.illusion_s", "s", ("self", "coloring.illusion"),
     "job_tail_s and jobs_per_s on color-pipeline; no change on exhaustive-certify"),
    ("analysis.classify_s", "s", ("self", "analysis.classify"),
     "job_p50_s on color-pipeline and construct-regular (validation)"),
    ("analysis.statuses_s", "s", ("self", "analysis.statuses"), "job_p50_s on color-pipeline"),
    ("analysis.pq_s", "s", ("self", "analysis.pq"), "job_p50_s on color-pipeline"),
    ("feasibility.verdict_s", "s", ("self", "feasibility.verdict"),
     "moves nothing: closed-form control"),
    ("feasibility.verdicts", "count", ("count", "feasibility.verdicts"), "control count"),
    ("construct.build_s", "s", ("self", "construct.build"),
     "job_tail_s and ops_ok_ratio on construct-regular"),
    ("construct.pairing_jobs", "count", ("count", "construct.pairing_jobs"),
     "constructions that ran a pairing stage"),
    ("construct.pairing_edges", "count", ("count", "construct.pairing_edges"),
     "edges added by pairing stages, from ConstructionReport.stages"),
    ("construct.failed", "count", ("count", "construct.build.raised"),
     "ops_ok_ratio on construct-regular"),
    ("oracle.scan_s", "s", ("self", "oracle.scan"), "jobs_per_s on exhaustive-certify"),
    ("oracle.colorings_scanned", "count", ("count", "oracle.colorings_scanned"),
     "computed as 2^n per scan call"),
    ("oracle.colorings_per_s", "1/s", ("rate", "oracle.colorings_scanned", "oracle.scan"),
     "jobs_per_s on exhaustive-certify"),
    ("oracle.enumerate_s", "s", ("self", "oracle.enumerate"), "jobs_per_s on exhaustive-certify"),
    ("oracle.graphs_enumerated", "count", ("count", "oracle.enumerate.items"),
     "work count for enumerate_regular"),
    ("logic.formula_possible_s", "s", ("self", "logic.formula_possible"),
     "job_tail_s on exhaustive-certify"),
    ("logic.extension_s", "s", ("self", "logic.extension"),
     "job_p50_s on construct-regular (mc on witnesses with thousands of nodes)"),
    ("cli.self_s", "s", ("self", "cli.main"),
     "job_p50_s on color-pipeline (argparse, JSON payloads, stdout handling)"),
    ("trace.jobs_per_s", "1/s", ("jobs_per_s",),
     "the traced run's own throughput; against the untraced jobs_per_s it is the tracing overhead"),
)


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or None, job id].
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.job: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, span in WRAP_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    self.counts.update(count(args, result))
                return result
            except Exception:
                self.counts[f"{name}.raised"] += 1
                raise
            finally:
                self._close(index)

        return traced

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        """One span per item: the generator's own work between yields."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                index = self._open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                self.counts[f"{name}.items"] += 1
                yield item

        return traced

    def self_times(self) -> Counter[str]:
        nested = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                nested[parent] += end - start
        totals: Counter[str] = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, nested):
            totals[name] += end - start - inner
        return totals

    def layer_metrics(self, jobs_per_s: float, speed_factor: float) -> dict[str, dict]:
        """The PER_LAYER figures; self times are scaled by ``speed_factor``,
        the run's median host-speed factor (see ``run.scale_factors``)."""
        self_time = Counter({k: v * speed_factor for k, v in self.self_times().items()})
        metrics = {}
        for name, unit, source, _ in PER_LAYER:
            if source[0] == "self":
                value = self_time[source[1]]
            elif source[0] == "count":
                value = self.counts[source[1]]
            elif source[0] == "rate":
                busy = self_time[source[2]]
                value = self.counts[source[1]] / busy if busy else 0.0
            else:
                value = jobs_per_s
            metrics[name] = {"value": value, "unit": unit}
        return metrics
