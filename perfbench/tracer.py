"""Per-layer tracing from outside the program.

:class:`SpanTracer` wraps the public entry points of every layer of the
``repro`` package (``core``, ``experiments``, ``hepdata``, ``buildsys``,
``environment``, ``scheduler``, ``storage``, ``history``, ``service``,
``reporting``, ``virtualization``) and records one span per call: name,
start, end and parent.  Nothing under ``src/`` is instrumented; the
wrappers are installed on the classes for the duration of one traced
iteration and removed again afterwards.

A span's *self time* is its duration minus the time covered by its child
spans.  Only calls made on the thread that installed the tracer are
recorded: work that a backend runs on its own threads or child processes
is covered by the enclosing ``scheduler.backends.execute`` span, so the
self times partition the traced thread's wall time without overlap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.buildsys.builder import PackageBuilder
from repro.core.diagnosis import FailureDiagnosisEngine
from repro.core.regression import RegressionDetector
from repro.core.runner import ValidationRunner
from repro.core.spsystem import SPSystem
from repro.environment.compatibility import CompatibilityChecker
from repro.hepdata.analysis import PhysicsAnalysis
from repro.hepdata.generator import MonteCarloGenerator
from repro.hepdata.reconstruction import EventReconstruction
from repro.hepdata.simulation import DetectorSimulation
from repro.history.ledger import ValidationHistoryLedger
from repro.scheduler.backends import ExecutionBackend
from repro.scheduler.cache import BuildCache
from repro.scheduler.campaign import CampaignScheduler
from repro.scheduler.lifecycle import PluginRegistry
from repro.service.daemon import ValidationService
from repro.storage.catalog import RunCatalog
from repro.storage.common_storage import CommonStorage, StorageNamespace
from repro.virtualization.provisioning import ProvisioningService

#: The layers, named after the ``repro`` sub-packages; a span's layer is the
#: first component of its name.
LAYERS = (
    "core",
    "experiments",
    "hepdata",
    "buildsys",
    "environment",
    "scheduler",
    "storage",
    "history",
    "service",
    "reporting",
    "virtualization",
)

Hook = Callable[["SpanTracer", tuple, dict, object], None]


def _count_events(tracer: "SpanTracer", args: tuple, kwargs: dict, result) -> None:
    tracer.counts["hepdata.events"] += kwargs.get("n_events", args[1] if len(args) > 1 else 0)


def _count_lookup(tracer: "SpanTracer", args: tuple, kwargs: dict, result) -> None:
    tracer.counts["scheduler.cache.lookups"] += 1
    tracer.counts["scheduler.cache.hits"] += result is not None


def _count_dag(tracer: "SpanTracer", args: tuple, kwargs: dict, result) -> None:
    tracer.counts["scheduler.dag.tasks"] += len(result.dag)


def _count_persisted(tracer: "SpanTracer", args: tuple, kwargs: dict, result) -> None:
    tracer.counts["storage.persist.files"] += len(result)
    tracer.counts["storage.persist.bytes"] += sum(os.path.getsize(path) for path in result)


def _count_loaded(tracer: "SpanTracer", args: tuple, kwargs: dict, result) -> None:
    directory = kwargs.get("directory", args[1] if len(args) > 1 else None)
    tracer.counts["storage.load.files"] += sum(
        len(files) for _root, _dirs, files in os.walk(directory)
    )


#: (class, attribute, span name, hook run after a successful call).
ENTRY_POINTS: Tuple[Tuple[type, str, str, Optional[Hook]], ...] = (
    (SPSystem, "__init__", "core.mount", None),
    (SPSystem, "submit", "core.submit", None),
    (SPSystem, "validate", "core.validate", None),
    (ValidationRunner, "run", "core.runner", None),
    (RegressionDetector, "compare_to_reference", "core.regression", None),
    (FailureDiagnosisEngine, "diagnose_run", "core.diagnosis", None),
    (MonteCarloGenerator, "generate", "hepdata.generate", _count_events),
    (DetectorSimulation, "simulate", "hepdata.simulate", None),
    (EventReconstruction, "reconstruct", "hepdata.reconstruct", None),
    (PhysicsAnalysis, "run", "hepdata.analysis", None),
    (PackageBuilder, "build_inventory", "buildsys.build_inventory", None),
    (PackageBuilder, "build_package", "buildsys.build_package", None),
    (CompatibilityChecker, "check", "environment.check", None),
    (CampaignScheduler, "run_requests", "scheduler.campaign", _count_dag),
    (BuildCache, "lookup", "scheduler.cache", _count_lookup),
    (BuildCache, "store", "scheduler.cache", None),
    (BuildCache, "persist_to", "scheduler.cache.journal", None),
    (BuildCache, "restore_from", "scheduler.cache.journal", None),
    (PluginRegistry, "emit", "scheduler.lifecycle.emit", None),
    (StorageNamespace, "put", "storage.put", None),
    (CommonStorage, "persist", "storage.persist", _count_persisted),
    (CommonStorage, "load", "storage.load", _count_loaded),
    (RunCatalog, "record", "storage.catalog", None),
    (ValidationHistoryLedger, "__init__", "history.mount", None),
    (ValidationHistoryLedger, "ingest_cycle", "history.ingest", None),
    (ValidationService, "__init__", "service.start", None),
    (ValidationService, "submit", "service.submit", None),
    (ValidationService, "run_next", "service.dispatch", None),
    (ValidationService, "beat", "service.beat", None),
    (ValidationService, "publish_dashboard", "reporting.dashboard", None),
    (ProvisioningService, "provision_standard_images", "virtualization.provision", None),
)


#: Counters that hooks and the workloads add to (reported even when zero).
COUNTERS = (
    "hepdata.events",
    "scheduler.dag.tasks",
    "scheduler.cache.lookups",
    "storage.persist.files",
    "storage.persist.bytes",
    "storage.load.files",
    "service.rejected",
)

#: Every span name the tracer can record.
SPAN_NAMES = tuple(
    sorted(
        {name for _cls, _attribute, name, _hook in ENTRY_POINTS}
        | {"scheduler.backends.execute", "experiments.standalone", "experiments.chain"}
    )
)


def _backend_classes() -> List[type]:
    """Every execution backend class that defines its own ``execute``."""
    found, pending = [], list(ExecutionBackend.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "execute" in cls.__dict__:
            found.append(cls)
    return sorted(found, key=lambda cls: cls.__name__)


def p90(values: List[float]) -> float:
    """The 90th percentile, interpolated between samples (0.0 for none)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class SpanTracer:
    """Records spans around the wrapped entry points and aggregates them.

    Aggregates are kept per phase: ``"setup"`` covers what a traced
    iteration does before its timer starts, ``"measure"`` the timed part.
    Only measure-phase self time counts towards ``trace.attributed_ratio``.
    Spans closed while the phase is None (the science checks after the
    timer stops) are not aggregated.
    """

    def __init__(self) -> None:
        self.phase: Optional[str] = None
        self.calls: Counter = Counter()
        self.self_seconds: Dict[Tuple[str, str], float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: Wall seconds of the traced iterations, as timed.
        self.traced_walls: List[float] = []
        #: Wall seconds at the reference host speed, traced and untraced.
        self.normalised_walls: Dict[bool, List[float]] = {True: [], False: []}
        #: Spans of the current iteration: [name, start, end, parent index].
        self.spans: List[list] = []
        self._stack: List[list] = []
        self._thread: Optional[int] = None
        self._patches: List[Tuple[type, str, object]] = []

    # -- recording -----------------------------------------------------------
    def _enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        frame = [index, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        span = self.spans[frame[0]]
        span[2] = end
        duration = end - span[1]
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += duration
        if self.phase is None:
            return
        self.calls[span[0]] += 1
        self.self_seconds[(self.phase, span[0])] += duration - frame[1]

    def _traced(self, function: Callable, name: str, hook: Optional[Hook] = None) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return function(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if hook is not None and tracer.phase is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    # -- installation --------------------------------------------------------
    def _patch(self, cls: type, attribute: str, name: str, hook: Optional[Hook]) -> None:
        original = cls.__dict__[attribute]
        if isinstance(original, classmethod):
            replacement = classmethod(self._traced(original.__func__, name, hook))
        else:
            replacement = self._traced(original, name, hook)
        setattr(cls, attribute, replacement)
        self._patches.append((cls, attribute, original))

    @contextlib.contextmanager
    def installed(self) -> Iterator["SpanTracer"]:
        """Wrap every entry point for the duration of the block."""
        self._thread = threading.get_ident()
        self.phase = "setup"
        self.spans = []
        try:
            for cls, attribute, name, hook in ENTRY_POINTS:
                self._patch(cls, attribute, name, hook)
            for cls in _backend_classes():
                self._patch(cls, "execute", "scheduler.backends.execute", None)
            yield self
        finally:
            while self._patches:
                cls, attribute, original = self._patches.pop()
                setattr(cls, attribute, original)
            self._stack.clear()
            self.phase = None

    def wrap_experiments(self, experiments: Iterable) -> None:
        """Trace the test executors of generated experiment definitions."""
        for experiment in experiments:
            for test in experiment.standalone_tests:
                test.executor = self._traced(test.executor, "experiments.standalone")
            for chain in experiment.chains:
                for step in chain.steps:
                    step.executor = self._traced(step.executor, "experiments.chain")

    def record_wall(self, traced: bool, wall: float, factor: float) -> None:
        """Record an iteration's wall time and its normalisation factor."""
        if traced:
            self.traced_walls.append(wall)
        self.normalised_walls[traced].append(wall * factor)

    # -- results -------------------------------------------------------------
    def _self_ms(self, name: str) -> float:
        return 1000.0 * sum(
            self.self_seconds.get((phase, name), 0.0) for phase in ("setup", "measure")
        )

    def _layer_seconds(self) -> Dict[str, float]:
        layers = {layer: 0.0 for layer in LAYERS}
        for (phase, name), seconds in self.self_seconds.items():
            if phase == "measure":
                layers[name.split(".", 1)[0]] += seconds
        return layers

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric, per traced iteration where it is a total."""
        iterations = max(len(self.traced_walls), 1)
        values: Dict[str, float] = {}
        for name in SPAN_NAMES:
            values[f"{name}.calls"] = self.calls[name] / iterations
            values[f"{name}.self_ms"] = self._self_ms(name) / iterations
        for name in COUNTERS:
            values[name] = self.counts[name] / iterations
        values["buildsys.packages_built"] = self.calls["buildsys.build_package"] / iterations
        lookups = self.counts["scheduler.cache.lookups"]
        values["scheduler.cache.hit_ratio"] = (
            self.counts["scheduler.cache.hits"] / lookups if lookups else 0.0
        )
        waits = self.samples["service.queue_wait_ms"]
        values["service.queue_wait_ms_p50"] = statistics.median(waits) if waits else 0.0
        values["service.queue_wait_ms_p90"] = p90(waits)
        wall = sum(self.traced_walls)
        layers = self._layer_seconds()
        for layer, seconds in layers.items():
            values[f"share.{layer}"] = seconds / wall if wall else 0.0
        values["trace.attributed_ratio"] = sum(layers.values()) / wall if wall else 0.0
        values["trace.overhead_ratio"] = (
            statistics.median(self.normalised_walls[True])
            / statistics.median(self.normalised_walls[False])
            if self.normalised_walls[True] and self.normalised_walls[False]
            else 0.0
        )
        return values

    def layer_table(self) -> str:
        """Self time by layer and by span over the measured wall time."""
        wall = sum(self.traced_walls)
        iterations = max(len(self.traced_walls), 1)
        lines = [
            f"self time by layer over {iterations} traced iteration(s), "
            f"{1000.0 * wall / iterations:.1f} ms wall per iteration",
            f"  {'layer / span':<34}{'calls/it':>12}{'self ms/it':>14}{'share':>9}",
        ]
        layers = self._layer_seconds()
        for layer in sorted(LAYERS, key=lambda item: -layers[item]):
            lines.append(
                f"  {layer:<34}{'':>12}{1000.0 * layers[layer] / iterations:>14.2f}"
                f"{(layers[layer] / wall if wall else 0.0):>9.1%}"
            )
            for (phase, name), seconds in sorted(
                self.self_seconds.items(), key=lambda item: -item[1]
            ):
                if phase == "measure" and name.split(".", 1)[0] == layer:
                    lines.append(
                        f"    {name:<32}{self.calls[name] / iterations:>12.1f}"
                        f"{1000.0 * seconds / iterations:>14.2f}"
                        f"{(seconds / wall if wall else 0.0):>9.1%}"
                    )
        attributed = sum(layers.values())
        lines.append(
            f"  {'attributed':<34}{'':>12}{1000.0 * attributed / iterations:>14.2f}"
            f"{(attributed / wall if wall else 0.0):>9.1%}"
        )
        return "\n".join(lines)

    def write_spans(self, path: str) -> None:
        """Write the last traced iteration's spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )
