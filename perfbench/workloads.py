"""The benchmark workloads: seeded inputs, closed loops and science checks.

Every workload drives the system the way one of its users does, from a
single client process, with a pool of at most two task slots (the size of
the small hosts the benchmark is meant to run on):

``hera-matrix``
    ZEUS, H1 and HERMES at scale 0.12 on the five standard configurations
    for six rounds: 90 cells through the default ``simulated`` backend.
    *Why:* this is the paper's validation matrix and the cells/sec
    headline.  The build cache hits from round 2 on, one configuration
    fails for every experiment so failure diagnosis runs, and the
    ``hepdata`` kernels do most of the work, while backend dispatch does
    little and nothing is persisted.

``new-release``
    Full-size inventories (ZEUS 60, H1 100, HERMES 30 packages, standalone
    tests at full count) with the minimum event counts, one round on all
    five configurations through the ``processes`` backend.
    *Why:* this is the day a new release or configuration lands.  Every
    build is a cache miss (about 950 builds, 1,900 DAG tasks), so real
    dispatch and the backend's build replays do real work; it is the
    workload on which ``scheduler.backends`` and ``buildsys`` weigh most.

``service-sessions``
    A series of daemon sessions shaped like ``repro serve``: load the
    common storage, start a ``ValidationService`` (warm start, history
    recording), let three tenants with weights 2:1:1 submit a burst of
    single-cell specs, drain the queue with a heartbeat and dashboard after
    every dispatch, then persist the build cache and the storage.  The
    storage grows from session to session.
    *Why:* this is the only workload where disk writes and read-backs
    dominate and where queueing shows in the submit-to-result latency.

Each workload is a closed loop with one client: the next campaign (or the
next burst) is submitted only after the previous one has completed.  The
seed drives all input generation — the runner's Monte Carlo seed, the
request order and, in ``service-sessions``, the tenant, experiment and
configuration of every submission; the program receives only the
generated inputs.  A service session of the benchmark's size asks for
every cell once, so every seed (and every session) asks for the same
work and the figures of different seeds can be compared.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro._common import ReproError
from repro.core.runner import RunnerSettings
from repro.core.spsystem import SPSystem
from repro.environment.configuration import sp_system_configurations
from repro.experiments import (
    build_h1_experiment,
    build_hermes_experiment,
    build_zeus_experiment,
)
from repro.history.ledger import ValidationHistoryLedger
from repro.scheduler.lifecycle import EVENT_SUBMISSION_STARTED, LifecycleObserver
from repro.scheduler.spec import CampaignSpec, ValidationRequest
from repro.service import ServiceRateLimited, TenantPolicy, ValidationService
from repro.service.queue import STATUS_COMPLETED
from repro.service.tenants import TenantLedger
from repro.storage.catalog import RunCatalog
from repro.storage.common_storage import CommonStorage

from perfbench.tracer import SpanTracer, p90

#: The daemon's tenants and their fair-share weights (2:1:1).
TENANTS = (
    TenantPolicy("alice", weight=2),
    TenantPolicy("bob", weight=1),
    TenantPolicy("carol", weight=1),
)

EXPERIMENTS = ("ZEUS", "H1", "HERMES")

#: Pool geometry of every campaign: two workers with one slot each.
WORKERS = 2
SLOTS_PER_WORKER = 1

#: Set-up and restart samples taken before and after each iteration; the
#: medians over the run are reported.
SETUP_SAMPLES = 5
RESTART_SAMPLES = 4

#: The calibration loop, and its time in ms on the reference host: the
#: speed every reported timing is normalised to.
CALIBRATION_ITERATIONS = 300_000
REFERENCE_CALIBRATION_MS = 20.0


@dataclass(frozen=True)
class Size:
    """How much work one iteration of a workload does."""

    #: Experiment scale (packages, standalone tests, events).
    scale: float = 1.0
    #: Events per analysis chain and per test; None keeps the scaled default.
    events: Optional[int] = None
    rounds: int = 1
    #: How many of the five standard configurations the matrix covers.
    configurations: int = 5
    backend: str = "simulated"
    #: service-sessions only: sessions per iteration and submissions per burst.
    sessions: int = 0
    burst: int = 0


#: The sizes the benchmark runs at.
SIZES: Dict[str, Size] = {
    "hera-matrix": Size(scale=0.12, rounds=6),
    "new-release": Size(scale=1.0, events=10, backend="processes"),
    "service-sessions": Size(scale=0.12, sessions=4, burst=15),
}

#: Tiny sizes for the benchmark's self-tests.
TINY_SIZES: Dict[str, Size] = {
    "hera-matrix": Size(scale=0.01, rounds=2, configurations=2),
    "new-release": Size(scale=0.05, events=10, configurations=2, backend="processes"),
    "service-sessions": Size(scale=0.01, configurations=2, sessions=2, burst=3),
}


class ScienceMismatch(Exception):
    """The program's outputs differ from what the check expected."""


@dataclass
class Inputs:
    """Everything one run generates from its seed."""

    size: Size
    runner_seed: int
    requests: Tuple[ValidationRequest, ...] = ()
    #: service-sessions: per session, the (tenant, experiment, key) picks.
    sessions: Tuple[Tuple[Tuple[str, str, str], ...], ...] = ()

    def make_experiments(self) -> List:
        """Fresh ZEUS, H1 and HERMES definitions at the workload's size."""
        events = {}
        if self.size.events is not None:
            events = dict(events_per_chain=self.size.events, events_per_test=self.size.events)
        return [
            build(scale=self.size.scale, **events)
            for build in (build_zeus_experiment, build_h1_experiment, build_hermes_experiment)
        ]

    def campaign_spec(self) -> CampaignSpec:
        return CampaignSpec(
            requests=self.requests,
            rounds=self.size.rounds,
            workers=WORKERS,
            slots_per_worker=SLOTS_PER_WORKER,
            backend=self.size.backend,
        )


def generate_inputs(workload: str, seed: int, size: Optional[Size] = None) -> Inputs:
    """The seeded inputs of one run of *workload*."""
    size = size or SIZES[workload]
    rng = random.Random(f"{workload}:{seed}")
    keys = tuple(
        configuration.key for configuration in sp_system_configurations()
    )[: size.configurations]
    inputs = Inputs(size=size, runner_seed=rng.randrange(1, 2**31 - 1))
    if workload == "service-sessions":
        total = size.sessions * size.burst
        picks: List[Tuple[str, str]] = []
        while len(picks) < total:
            # Every cell once per round, ordered as in the campaign workloads.
            order = list(keys)
            rng.shuffle(order)
            picks.extend((experiment, key) for key in order for experiment in EXPERIMENTS)
        picks = picks[:total]
        tenants = [
            policy.name for policy in TENANTS for _ in range(policy.weight)
        ]
        tenant_picks = (tenants * (total // len(tenants) + 1))[:total]
        rng.shuffle(tenant_picks)
        plan = [
            (tenant, experiment, key)
            for tenant, (experiment, key) in zip(tenant_picks, picks)
        ]
        inputs.sessions = tuple(
            tuple(plan[start:start + size.burst])
            for start in range(0, total, size.burst)
        )
    else:
        # The seed orders the configurations; each configuration's block
        # holds the experiments in one fixed order, so that no seed moves
        # the expensive cells to one end of the campaign.
        order = list(keys)
        rng.shuffle(order)
        inputs.requests = tuple(
            ValidationRequest(experiment, key) for key in order for experiment in EXPERIMENTS
        )
    return inputs


def provision(
    inputs: Inputs, experiments: List, storage: Optional[CommonStorage] = None
) -> SPSystem:
    """A provisioned system with the experiments registered."""
    system = SPSystem(
        runner_settings=RunnerSettings(
            simulated_seconds_per_test=30.0, seed=inputs.runner_seed
        ),
        storage=storage,
    )
    system.provision_standard_images()
    for experiment in experiments:
        system.register_experiment(experiment)
    return system


def measure_setup(inputs: Inputs) -> float:
    """Seconds to generate the experiments and provision a system for them."""
    started = time.perf_counter()
    provision(inputs, inputs.make_experiments())
    return time.perf_counter() - started


def start_daemon(inputs: Inputs, experiments: List, directory: str) -> ValidationService:
    """Mount the persisted storage (if any) and start a ready daemon on it."""
    storage = (
        CommonStorage.load(directory) if os.path.isdir(directory) else CommonStorage()
    )
    return ValidationService(provision(inputs, experiments, storage=storage), tenants=TENANTS)


def _digest(document: object) -> str:
    return hashlib.sha256(
        json.dumps(document, sort_keys=True).encode("utf-8")
    ).hexdigest()


@dataclass
class Science:
    """The outputs a run is checked on."""

    run_documents: List[Dict[str, object]]
    catalogue: List[Dict[str, object]]
    passed: int

    @property
    def digest(self) -> str:
        return _digest([self.run_documents, self.catalogue])


def check_science(observed: Science, expected: Science) -> None:
    """Raise :class:`ScienceMismatch` unless *observed* equals *expected*."""
    if len(observed.run_documents) != len(expected.run_documents):
        raise ScienceMismatch(
            f"{len(observed.run_documents)} cells, expected {len(expected.run_documents)}"
        )
    for index, (got, want) in enumerate(zip(observed.run_documents, expected.run_documents)):
        if got != want:
            raise ScienceMismatch(
                f"run document of cell {index} ({want.get('run_id')}) differs "
                "from the serial replay"
            )
    if observed.catalogue != expected.catalogue:
        raise ScienceMismatch("catalogue records differ from the serial replay")
    if observed.passed != expected.passed:
        raise ScienceMismatch(
            f"{observed.passed} cells passed, the serial replay passed {expected.passed}"
        )


def serial_replay(inputs: Inputs) -> Science:
    """The science of an untimed, serial ``SPSystem.validate`` pass."""
    system = provision(inputs, inputs.make_experiments())
    cycles = [
        system.validate(request.experiment, request.configuration_key)
        for _round in range(inputs.size.rounds)
        for request in inputs.requests
    ]
    return Science(
        run_documents=[cycle.run.to_document() for cycle in cycles],
        catalogue=[record.to_dict() for record in system.catalog.all()],
        passed=sum(cycle.successful for cycle in cycles),
    )


def calibration_ms() -> float:
    """Time of a fixed pure-Python loop: the host's current speed."""
    started = time.perf_counter()
    total = 0
    for value in range(CALIBRATION_ITERATIONS):
        total += value * value
    return 1000.0 * (time.perf_counter() - started)


def _factor(calibration_before: float, calibration_after: float) -> float:
    """Scales a timing between two calibrations to the reference host speed."""
    return REFERENCE_CALIBRATION_MS / statistics.mean((calibration_before, calibration_after))


@dataclass
class Part:
    """One timed stretch of an iteration: a campaign, or one service session.

    Timings are kept as measured, with the factor that scales them to the
    reference host speed (see :func:`run_workload`).
    """

    cells: int
    wall: float
    factor: float
    latencies_ms: List[float]


@dataclass
class Iteration:
    """What one pass of a workload's closed loop measured."""

    parts: List[Part]
    attempted: int
    failed: int
    digest: str
    science: Optional[Science] = None
    #: Why the iteration's own science check failed, if it did.
    error: Optional[str] = None
    system: Optional[SPSystem] = None

    @property
    def cells(self) -> int:
        return sum(part.cells for part in self.parts)

    @property
    def wall(self) -> float:
        return sum(part.wall for part in self.parts)

    @property
    def factor(self) -> float:
        """Scales :attr:`wall` to the reference host speed."""
        return sum(part.wall * part.factor for part in self.parts) / self.wall


def campaign_iteration(
    inputs: Inputs, work_dir: str, tracer: Optional[SpanTracer] = None
) -> Iteration:
    """One client submits the campaign to a fresh system and waits for it.

    A cell's submit-to-result latency runs from the ``submit`` call until
    the cell's result reaches the client through ``on_cell_complete``.
    """
    experiments = inputs.make_experiments()
    if tracer is not None:
        tracer.wrap_experiments(experiments)
    system = provision(inputs, experiments)
    spec = inputs.campaign_spec()
    if tracer is not None:
        tracer.phase = "measure"
    latencies: List[float] = []

    def cell_result(_cell) -> None:
        latencies.append(1000.0 * (time.perf_counter() - started))

    # The set-up samples' garbage is collected before, not during, the
    # timed region.
    gc.collect()
    calibration = calibration_ms()
    started = time.perf_counter()
    try:
        campaign = system.submit(spec, on_cell_complete=cell_result).result()
    except ReproError:
        return Iteration([Part(0, time.perf_counter() - started, 1.0, [])], 1, 1, "")
    wall = time.perf_counter() - started
    factor = _factor(calibration, calibration_ms())
    science = Science(
        run_documents=[run.to_document() for run in campaign.runs()],
        catalogue=[record.to_dict() for record in system.catalog.all()],
        passed=sum(cell.result.successful for cell in campaign.cells),
    )
    return Iteration(
        parts=[Part(len(campaign.cells), wall, factor, latencies)],
        attempted=1,
        failed=0,
        digest=science.digest,
        science=science,
        system=system,
    )


class _QueueWaitObserver(LifecycleObserver):
    """Times each submission from its ``submit`` return to its dispatch."""

    name = "perfbench-queue-wait"
    events = frozenset({EVENT_SUBMISSION_STARTED})

    def __init__(self, submitted_at: Dict[str, float], samples: List[float]) -> None:
        self.submitted_at = submitted_at
        self.samples = samples

    def handle(self, event, context) -> None:
        submitted = self.submitted_at[event.payload["submission"]]
        self.samples.append(1000.0 * (time.perf_counter() - submitted))


def service_iteration(
    inputs: Inputs, work_dir: str, tracer: Optional[SpanTracer] = None
) -> Iteration:
    """A series of daemon sessions over one storage directory, from empty.

    The calibration loop runs between sessions, outside the timed region,
    so that each session's timings get their own normalisation factor.
    The storage the last session persists stays in ``work_dir/storage``
    for the restart samples.
    """
    directory = os.path.join(work_dir, "storage")
    shutil.rmtree(directory, ignore_errors=True)
    experiments = inputs.make_experiments()
    if tracer is not None:
        tracer.wrap_experiments(experiments)
        tracer.phase = "measure"
    parts: List[Part] = []
    attempted = failed = accepted = cells = 0
    for session in inputs.sessions:
        # Each ``repro serve`` session is a fresh process, so the previous
        # session's garbage is collected before the session is timed.
        gc.collect()
        calibration = calibration_ms()
        session_latencies: List[float] = []
        session_cells = 0
        session_started = time.perf_counter()
        service = start_daemon(inputs, experiments, directory)
        submitted_at: Dict[str, float] = {}
        if tracer is not None:
            service.system.lifecycle.add_observer(
                _QueueWaitObserver(submitted_at, tracer.samples["service.queue_wait_ms"])
            )
        for tenant, experiment, key in session:
            spec = CampaignSpec(
                experiments=(experiment,),
                configuration_keys=(key,),
                workers=WORKERS,
                slots_per_worker=SLOTS_PER_WORKER,
                record_history=True,
            )
            attempted += 1
            try:
                submission = service.submit(tenant, spec)
            except ServiceRateLimited:
                failed += 1
                if tracer is not None:
                    tracer.counts["service.rejected"] += 1
                continue
            submitted_at[submission.submission_id] = time.perf_counter()
            accepted += 1
        while True:
            submission = service.run_next()
            if submission is None:
                break
            session_latencies.append(
                1000.0 * (time.perf_counter() - submitted_at[submission.submission_id])
            )
            if submission.status == STATUS_COMPLETED:
                session_cells += submission.cells
            else:
                failed += 1
        service.system.persist_build_cache()
        service.system.storage.persist(directory)
        session_wall = time.perf_counter() - session_started
        factor = _factor(calibration, calibration_ms())
        parts.append(Part(session_cells, session_wall, factor, session_latencies))
        cells += session_cells
    if tracer is not None:
        tracer.phase = None
    iteration = Iteration(parts, attempted, failed, "")
    try:
        iteration.digest = _check_sessions(directory, accepted, cells)
    except ScienceMismatch as mismatch:
        iteration.error = str(mismatch)
    return iteration


def _check_sessions(directory: str, accepted: int, cells: int) -> str:
    """Check the reloaded storage of a session series; returns its digest."""
    storage = CommonStorage.load(directory)
    if cells != accepted:
        raise ScienceMismatch(f"{accepted} submissions accepted, {cells} cells completed")
    billed = TenantLedger(storage).total_cells()
    if billed != cells:
        raise ScienceMismatch(f"tenant ledger bills {billed} cells, {cells} were submitted")
    events = len(ValidationHistoryLedger(storage).events())
    if events != cells:
        raise ScienceMismatch(f"history ledger holds {events} events for {cells} cells")
    return _digest(storage.namespace(RunCatalog.NAMESPACE).items())


@dataclass
class Outcome:
    """The result of one benchmark run."""

    #: End-to-end metrics at the reference host speed.
    metrics: Dict[str, float]
    #: The same metrics as timed on the host, before normalisation.
    raw_metrics: Dict[str, float]
    attempted: int
    failed: int
    correct: bool
    notes: List[str]
    tracer: Optional[SpanTracer] = None


def _summarise(
    iterations: List[Iteration],
    setup: List[Tuple[float, float]],
    restarts: List[Tuple[float, float]],
    peak_rss_mb: float,
    normalised: bool,
) -> Dict[str, float]:
    """The end-to-end metrics, each timing scaled by its own factor.

    Throughput and latency percentiles are taken per timed part (a
    campaign, or one service session) and the median over the parts is
    reported, so that one part slowed by the host moves none of them.
    """

    def scaled(value: float, factor: float) -> float:
        return value * factor if normalised else value

    parts = [part for iteration in iterations for part in iteration.parts]

    def over_parts(percentile: Callable[[List[float]], float]) -> float:
        return statistics.median(
            percentile([scaled(latency, part.factor) for latency in part.latencies_ms])
            for part in parts
            if part.latencies_ms
        )

    return {
        "cells_per_s": statistics.median(
            part.cells / scaled(part.wall, part.factor) for part in parts
        ),
        "submit_to_result_ms_p50": over_parts(statistics.median),
        "submit_to_result_ms_p90": over_parts(p90),
        "restart_s": statistics.median(scaled(*sample) for sample in restarts),
        "setup_s": statistics.median(scaled(*sample) for sample in setup),
        "peak_rss_mb": peak_rss_mb,
    }


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: str,
    size: Optional[Size] = None,
    tamper: Optional[Callable[[Iteration], None]] = None,
) -> Outcome:
    """Run *workload* for *seconds* and check its science.

    Each pass of the loop takes set-up samples, runs one iteration and
    takes restart samples, with the calibration loop run between these
    steps (and between the sessions of a service iteration).  The host's
    speed on small shared machines drifts by tens of percent within
    seconds, and the calibration score tracks it, so every timing is
    normalised to the reference host speed by the factor
    ``REFERENCE_CALIBRATION_MS / mean(calibration before, after)`` of the
    calibrations on either side of it.

    With *trace*, iterations alternate between untraced and traced, so the
    tracing overhead is measured on the same inputs.  *tamper* edits the
    first iteration before it is checked (the self-tests use it to prove
    that the check catches a wrong run document).
    """
    inputs = generate_inputs(workload, seed, size)
    iterate = service_iteration if workload == "service-sessions" else campaign_iteration
    tracer = SpanTracer() if trace else None
    iterations: List[Iteration] = []
    setup: List[Tuple[float, float]] = []
    restarts: List[Tuple[float, float]] = []
    # A restart mounts the storage the first campaign persisted or, on
    # service-sessions, the storage every session series leaves behind.
    restart_dir = os.path.join(
        work_dir, "storage" if workload == "service-sessions" else "restart"
    )
    notes: List[str] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(iterations) < (2 if trace else 1):
        # The previous iteration's garbage is collected outside the timed
        # region.  Set-up and restart samples are spread over the run, so
        # that they see the same host conditions as the iterations.
        gc.collect()
        setup_calibration = calibration_ms()
        setup_pass = [measure_setup(inputs) for _ in range(SETUP_SAMPLES)]
        setup_factor = _factor(setup_calibration, calibration_ms())
        traced = tracer is not None and len(iterations) % 2 == 1
        if traced:
            with tracer.installed():
                iteration = iterate(inputs, work_dir, tracer)
        else:
            iteration = iterate(inputs, work_dir)
        if iterations:
            iteration.science = None
        elif iteration.system is not None:
            iteration.system.persist_build_cache()
            iteration.system.storage.persist(restart_dir)
        iteration.system = None
        iterations.append(iteration)
        if len(iterations) == 1:
            # Later iterations in the same process only add allocator
            # fragmentation; the first one is what a user's run costs.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup.extend((sample, setup_factor) for sample in setup_pass)
        if os.path.isdir(restart_dir):
            # The host's speed drifts within a pass, so each restart sample
            # is normalised by the calibrations just before and after it.
            # The garbage of the iteration and of the previous restart is
            # collected before each sample, so that no sample pays for it.
            experiments = inputs.make_experiments()
            for _ in range(RESTART_SAMPLES):
                gc.collect()
                calibration = calibration_ms()
                started = time.perf_counter()
                start_daemon(inputs, experiments, restart_dir)
                sample = time.perf_counter() - started
                restarts.append((sample, _factor(calibration, calibration_ms())))
        if tracer is not None:
            tracer.record_wall(traced, iteration.wall, iteration.factor)

    correct = True
    try:
        first = iterations[0]
        if tamper is not None:
            tamper(first)
        if first.science is not None:
            check_science(first.science, serial_replay(inputs))
            first.digest = first.science.digest
            expected_cells = len(inputs.requests) * inputs.size.rounds
            if first.cells != expected_cells:
                raise ScienceMismatch(f"{first.cells} cells, expected {expected_cells}")
        for iteration in iterations:
            if iteration.error is not None:
                raise ScienceMismatch(iteration.error)
        digests = {iteration.digest for iteration in iterations if iteration.digest}
        if len(digests) > 1:
            raise ScienceMismatch(
                f"{len(digests)} different science digests across "
                f"{len(iterations)} iterations of the same inputs"
            )
    except ScienceMismatch as mismatch:
        correct = False
        notes.append(f"science check failed: {mismatch}")

    notes.append(
        "iteration walls (s): " + " ".join(f"{i.wall:.3f}" for i in iterations)
    )
    notes.append(
        "normalisation factors: " + " ".join(f"{i.factor:.3f}" for i in iterations)
    )
    notes.append(
        f"{len(iterations)} iteration(s), {sum(i.cells for i in iterations)} cells, "
        f"{sum(len(p.latencies_ms) for i in iterations for p in i.parts)} "
        "submit-to-result samples, "
        f"{len(restarts)} restart samples, {len(setup)} set-up samples"
    )
    return Outcome(
        metrics=_summarise(iterations, setup, restarts, peak_rss_mb, normalised=True),
        raw_metrics=_summarise(iterations, setup, restarts, peak_rss_mb, normalised=False),
        attempted=sum(iteration.attempted for iteration in iterations),
        failed=sum(iteration.failed for iteration in iterations),
        correct=correct,
        notes=notes,
        tracer=tracer,
    )
