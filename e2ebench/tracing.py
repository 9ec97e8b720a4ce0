"""Traced mode: spans around each layer's public entry points.

Wrappers are installed from here, only when the benchmark runs with
``--trace 1``; the program itself is not edited.  Each wrapped call
records a span (metric name, start, end, parent span) in memory and adds
its *self time* -- its duration minus the time of wrapped calls made
inside it -- to the per-layer rollup.  Layer names are those of
``docs/architecture.toml``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

#: Spans kept for the trace file; the rollup always counts every call.
MAX_SPANS = 200_000

#: (span metric, module, function or Class.method) per wrapped entry point.
ENTRY_POINTS = [
    ("topology.generate", "repro.topology.generator", "generate_topology"),
    ("topology.generate", "repro.topology.generator", "build_topology"),
    ("topology.generate", "repro.topology.generator", "place_hosts"),
    ("topology.mutate", "repro.topology.network", "Topology.remove_as_link"),
    ("topology.mutate", "repro.topology.network", "Topology.insert_as_link"),
    ("topology.mutate", "repro.topology.network", "Topology.detach_exchange_link"),
    ("topology.mutate", "repro.topology.network", "Topology.reattach_exchange_link"),
    ("routing.converge", "repro.routing.bgp", "BGPTable.converge_all"),
    ("routing.rounds", "repro.routing.bgp", "BGPTable.convergence_rounds"),
    ("routing.resolve", "repro.routing.forwarding", "PathResolver.resolve"),
    ("routing.resolve", "repro.routing.forwarding", "PathResolver.resolve_secondary"),
    ("routing.resolve", "repro.routing.forwarding", "PathResolver.resolve_round_trip"),
    (
        "routing.resolve",
        "repro.routing.forwarding",
        "PathResolver.resolve_round_trip_secondary",
    ),
    ("netsim.bucket_view", "repro.netsim.conditions", "BucketProbeMixin.bucket_view"),
    ("netsim.probe", "repro.netsim.conditions", "BucketProbeMixin.probe"),
    ("netsim.probe", "repro.netsim.conditions", "BucketProbeMixin.probe_batch"),
    ("measurement.campaign", "repro.measurement.collector", "Campaign.run_traceroutes"),
    ("measurement.campaign", "repro.measurement.collector", "Campaign.run_transfers"),
    ("measurement.transfer", "repro.measurement.tcp", "TCPTransferSimulator.measure_block"),
    ("overlay.state", "repro.overlay.state", "OverlayState.record_probe"),
    ("overlay.state", "repro.overlay.state", "OverlayState.reset_pair"),
    ("overlay.state", "repro.overlay.state", "OverlayState.estimate"),
    ("overlay.state", "repro.overlay.state", "OverlayState.usable_pairs"),
    ("datasets.builder", "repro.datasets.builders", "build_group"),
    ("datasets.save", "repro.datasets.io", "save_dataset"),
    ("datasets.load", "repro.datasets.io", "load_dataset"),
    ("core.altpath", "repro.core.altpath", "AlternatePathFinder.best_all"),
    ("core.altpath", "repro.core.altpath", "best_one_hop_alternates"),
    ("scenario.advance", "repro.scenario.timeline", "ScenarioTimeline.advance_to"),
    ("scenario.advance", "repro.scenario.timeline", "ScenarioTimeline.reset"),
    ("scenario.availability", "repro.scenario.availability", "analyze_availability"),
    ("service.loop", "repro.service.detour", "DetourService.run"),
    ("service.store", "repro.service.store", "PathStore.candidates"),
    ("service.store", "repro.service.store", "PathStore.record_leg_probe"),
    ("service.store", "repro.service.store", "PathStore.reset_leg"),
    ("service.store", "repro.service.store", "PathStore.mark_path_down"),
    ("service.store", "repro.service.store", "PathStore.mark_path_up"),
    ("service.store", "repro.service.store", "PathStore.set_path_facts"),
    ("service.store", "repro.service.store", "PathStore.snapshot"),
    ("service.store", "repro.service.store", "PathStore.usable"),
]

#: Modules whose public functions all count as ``core.analysis``.
CORE_ANALYSIS_MODULES = [
    "analysis", "ases", "bandwidth", "bootstrap", "crossmetric", "episodes",
    "graph", "hopdepth", "hosts", "medians", "propagation", "timeofday",
    "triangulation",
]

#: Per-layer metric -> program ``repro.obs`` counters summed into it.
OBS_COUNTERS = {
    "routing.converged_dests": [
        "routing.bgp.batch_convergences",
        "routing.columnar.batch_convergences",
    ],
    "core.altpath_pairs": ["core.altpath.pairs"],
    "core.altpath_reruns": ["core.altpath.reruns"],
    "scenario.dests_reconverged": ["scenario.dests_invalidated"],
    "service.requests": ["service.requests"],
}

#: Per-layer metric -> span metric whose call count it reports.
CALL_COUNTS = {
    "topology.mutations": "topology.mutate",
    "netsim.bucket_views": "netsim.bucket_view",
    "experiments.artifacts": "experiments.artifact",
}

#: Self-time metrics, in the order BENCHMARK.json lists them.
TIME_METRICS = [
    "topology.generate", "topology.mutate", "routing.converge", "routing.resolve",
    "routing.rounds", "netsim.bucket_view", "netsim.probe", "measurement.campaign",
    "measurement.transfer", "overlay.state", "datasets.builder", "datasets.save",
    "datasets.load", "core.altpath", "core.analysis", "scenario.advance",
    "scenario.availability", "service.loop", "service.select", "service.store",
    "experiments.artifact",
]


def _probes(args, kwargs, result) -> float:
    # probe_batch returns one RTT per probe; probe returns a ProbeBatch.
    return float(len(getattr(result, "rtt_ms", result)))


def _records(args, kwargs, result) -> float:
    return float(len(result[0]))


def _written_mb(args, kwargs, result) -> float:
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path) / 1e6


#: Span metric -> (count metric, count of one call).
AMOUNTS = {
    "netsim.probe": ("netsim.probes", _probes),
    "measurement.campaign": ("measurement.records", _records),
    "datasets.save": ("datasets.written_mb", _written_mb),
}


class SpanRecorder:
    """In-memory spans and the per-layer self-time rollup."""

    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.dropped = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.amounts: dict[str, float] = defaultdict(float)
        # Open calls: [span id, start, time spent in wrapped children].
        self._stack: list[list] = []

    def wrap(self, metric: str, fn):
        """``fn`` wrapped so that, while active, each call is a span."""
        amount = AMOUNTS.get(metric)
        if metric not in self._name_ids:
            self._name_ids[metric] = len(self.names)
            self.names.append(metric)
        name_id = self._name_ids[metric]
        rec = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            stack = rec._stack
            parent = stack[-1][0] if stack else -1
            if len(rec.spans) < MAX_SPANS:
                span_id = len(rec.spans)
                rec.spans.append(None)
            else:
                span_id = -1
                rec.dropped += 1
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                rec.self_s[metric] += duration - frame[2]
                rec.calls[metric] += 1
                if stack:
                    stack[-1][2] += duration
                if span_id >= 0:
                    rec.spans[span_id] = [name_id, frame[1], end, parent]
            if amount is not None:
                rec.amounts[amount[0]] += amount[1](args, kwargs, result)
            return result

        traced.__wrapped_by_e2ebench__ = True
        return traced

    def dump(self, path: str, meta: dict, rollup: dict) -> None:
        """Write the spans and the rollup as one JSON file."""
        payload = {
            "meta": meta,
            "span_fields": ["name", "start_s", "end_s", "parent"],
            "names": self.names,
            "spans": [s for s in self.spans if s is not None],
            "dropped_spans": self.dropped,
            "rollup": rollup,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _replace_everywhere(orig, new) -> None:
    """Point every ``repro`` and benchmark module global bound to ``orig`` at ``new``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (
            name == "__main__" or name.startswith(("repro.", "e2ebench."))
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, new)
            elif isinstance(value, dict) and attr.isupper():
                for key, item in list(value.items()):
                    if item is orig:
                        value[key] = new


def _install(rec: SpanRecorder, metric: str, module_name: str, qualname: str) -> None:
    module = importlib.import_module(module_name)
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        cls = getattr(module, cls_name)
        setattr(cls, attr, rec.wrap(metric, cls.__dict__[attr]))
        return
    orig = getattr(module, qualname)
    _replace_everywhere(orig, rec.wrap(metric, orig))


def install() -> SpanRecorder:
    """Wrap every entry point of ENTRY_POINTS and the analysis modules."""
    rec = SpanRecorder()
    for metric, module_name, qualname in ENTRY_POINTS:
        _install(rec, metric, module_name, qualname)
    for short in CORE_ANALYSIS_MODULES:
        module_name = f"repro.core.{short}"
        module = importlib.import_module(module_name)
        for attr, value in list(vars(module).items()):
            if (
                inspect.isfunction(value)
                and value.__module__ == module_name
                and not attr.startswith("_")
            ):
                _install(rec, "core.analysis", module_name, attr)
    strategy = importlib.import_module("repro.service.strategy")
    for cls in _subclasses(strategy.PathSelectionAlgorithm):
        if "select" in cls.__dict__ and not inspect.isabstract(cls):
            setattr(cls, "select", rec.wrap("service.select", cls.__dict__["select"]))
    tables = importlib.import_module("repro.experiments.tables")
    figures = importlib.import_module("repro.experiments.figures")
    artifacts = [tables.table1, tables.table2, tables.table3, *figures.ALL_FIGURES.values()]
    for fn in artifacts:
        _replace_everywhere(fn, rec.wrap("experiments.artifact", fn))
    return rec


def _subclasses(cls) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def rollup(rec: SpanRecorder, metrics, rounds: int) -> dict[str, float]:
    """Per-layer metrics, per round: self times, call counts, amounts.

    Args:
        rec: The recorder the run used.
        metrics: The program's ``repro.obs`` Metrics captured alongside.
        rounds: Rounds the run measured (values are divided by it).
    """
    out: dict[str, float] = {}
    for metric in TIME_METRICS:
        out[f"{metric}_s"] = rec.self_s.get(metric, 0.0) / rounds
    for name, span_metric in CALL_COUNTS.items():
        out[name] = rec.calls.get(span_metric, 0) / rounds
    for name, _ in AMOUNTS.values():
        out[name] = rec.amounts.get(name, 0.0) / rounds
    for name, counters in OBS_COUNTERS.items():
        out[name] = sum(metrics.counter(c) for c in counters) / rounds
    return out
