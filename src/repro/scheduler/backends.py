"""Execution backends for campaign DAGs.

The campaign scheduler separates *what* a campaign produces from *how* its
DAG is executed.  The scientific output — run documents and catalogue
records — always comes from the deterministic cell pass, committed in the
sequential path's exact order; that is the invariant that keeps both
backends bit-identical.  What a backend decides is the campaign's wall-clock
story: how the derived task DAG is dispatched over the worker pool and what
timeline (:class:`~repro.scheduler.pool.PoolSchedule`) comes back.

Two backends ship with the registry:

* :class:`SimulatedBackend` — the timeline model.  It wraps the
  deterministic event-driven :class:`~repro.scheduler.pool.SimulatedWorkerPool`:
  simulated timestamps, injectable worker failures, reproducible timelines.
* :class:`ProcessPoolBackend` — the real executor.  It dispatches the DAG
  over a :class:`concurrent.futures.ProcessPoolExecutor` with
  ``workers x slots_per_worker`` children: dependencies gate submission,
  the scheduling policy orders the ready queue exactly as in the
  simulation, and measured wall-clock seconds come back in the
  ``PoolSchedule``.  A build task's payload is a picklable
  :class:`~repro.buildsys.builder.BuildTask` re-compilation (a pure
  function of the package content digest) that runs in a child process
  outside the GIL and is digest-checked against the recorded result.
  Test and chain tasks — and the builds of a custom builder — carry no
  payload and complete as no-ops the moment they are dispatched.

Backends are selected by name through :func:`execution_backend`, mirroring
:func:`~repro.scheduler.pool.scheduling_policy`.

The real executor has one failure contract: the first failing build aborts
the campaign with a :class:`~repro._common.SchedulingError` that names the
failing task and the backend, and still-queued work is cancelled
(``cancel_futures=True``), so a 1000-cell campaign does not keep building
after the first failure.
"""

from __future__ import annotations

import heapq
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro._common import BuildError, SchedulingError
from repro.buildsys.builder import BuildResult, BuildTask, build_result_digest
from repro.scheduler.dag import CampaignDAG
from repro.scheduler.lifecycle import (
    EVENT_DEADLINE_EXCEEDED,
    EarlyStopRequested,
    PluginRegistry,
)
from repro.scheduler.pool import (
    PoolSchedule,
    SchedulingPolicy,
    SimulatedWorkerPool,
    TaskAssignment,
    WorkerFailure,
    effective_slots_per_worker,
    scheduling_policy,
)
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.virtualization.resources import VALIDATION_VM_PROFILE, ResourceProfile


@dataclass
class ExecutionRequest:
    """Everything a backend needs to execute one campaign DAG."""

    dag: CampaignDAG
    workers: int = 1
    worker_profile: ResourceProfile = VALIDATION_VM_PROFILE
    failures: Tuple[WorkerFailure, ...] = ()
    policy: Union[str, SchedulingPolicy, None] = None
    deadline_seconds: Optional[float] = None
    #: Task ID -> the build the real executor re-compiles when the task
    #: runs.  Tasks without an entry dispatch as no-ops; the simulated
    #: backend ignores the payloads.
    payloads: Mapping[str, BuildTask] = field(default_factory=dict)
    #: Lifecycle event bus the dispatch loop emits ``deadline_exceeded``
    #: through (None = no events).  When a deadline-abort policy is
    #: registered on it, the emission raises
    #: :class:`~repro.scheduler.lifecycle.EarlyStopRequested` and the
    #: backend cancels its queued work.
    lifecycle: Optional[PluginRegistry] = None
    #: Campaign ID the emitted events are tagged with.
    campaign_id: Optional[str] = None
    #: Telemetry bundle the dispatch loop records spans and metrics into
    #: (None = the no-op bundle).  Dispatch spans carry category
    #: "dispatch" — wall-clock timings, excluded from the cross-backend
    #: parity contract by design.
    telemetry: Optional[Telemetry] = None


class ExecutionBackend:
    """Executes a campaign DAG and reports the resulting pool timeline.

    Backends never see the validation runner: by the time a backend runs,
    every cell's runs are already recorded, which is what makes the
    scientific output backend-independent by construction.
    """

    #: Registry name, also used by the CLI ``--backend`` flag.
    name = "base"

    #: True when the backend really runs task payloads (the campaign
    #: scheduler skips preparing expensive payload state, e.g. expected
    #: build digests, for backends that only simulate time).
    executes_payloads = False

    def execute(self, request: ExecutionRequest) -> PoolSchedule:
        """Execute *request* and return the timeline it produced."""
        raise NotImplementedError


class SimulatedBackend(ExecutionBackend):
    """The deterministic event-driven pool simulation (the default)."""

    name = "simulated"

    def execute(self, request: ExecutionRequest) -> PoolSchedule:
        telemetry = request.telemetry or NULL_TELEMETRY
        pool = SimulatedWorkerPool(
            request.workers,
            profile=request.worker_profile,
            failures=request.failures,
            policy=request.policy,
            deadline_seconds=request.deadline_seconds,
            lifecycle=request.lifecycle,
            campaign_id=request.campaign_id,
        )
        with telemetry.tracer.span(
            "backend_dispatch", category="dispatch", backend=self.name
        ):
            schedule = pool.execute(request.dag)
        schedule.backend = self.name
        telemetry.metrics.increment(
            "tasks_executed_total", amount=len(schedule.assignments), backend=self.name
        )
        return schedule


def _execute_build_task(task: BuildTask) -> BuildResult:
    """Child-process entry point of the process backend (module level so a
    child interpreter can import it; the task travels by pickle)."""
    return task.run()


class ProcessPoolBackend(ExecutionBackend):
    """Really executes the campaign DAG on a wall-clock pool of child processes.

    Concurrency capacity is ``workers x slots_per_worker`` children (the
    same slot arithmetic as the simulated pool); a task is submitted the
    moment its dependencies have finished and a slot is free, with the
    scheduling policy ordering the ready queue exactly as in the
    simulation.  Every :class:`~repro.buildsys.builder.BuildTask` payload
    (picklable by design: plain dataclasses over plain value types) runs in
    a child and its result is pickled back and digest-checked by the
    parent against the recorded result.  The child's ``runs`` counter
    increments on the child's *copy*; the parent increments its own task
    on result receipt, so every executed task reports ``runs == 1``.
    Tasks without a payload complete as no-ops when dispatched.

    The returned schedule carries *measured* seconds: per-task
    submission/completion offsets from the campaign's start, the real
    makespan, and a critical path recomputed from the measured durations.
    Those numbers differ from run to run — which is precisely why the
    determinism suite excludes timing fields when comparing backends.

    Worker failure injection is a feature of the simulation; requesting it
    here raises :class:`~repro._common.SchedulingError`.
    """

    name = "processes"

    executes_payloads = True

    def execute(self, request: ExecutionRequest) -> PoolSchedule:
        if request.failures:
            raise SchedulingError(
                "worker failure injection requires the simulated backend; "
                f"the {self.name} backend executes for real"
            )
        if request.workers < 1:
            raise SchedulingError("a worker pool needs at least one worker")
        if request.deadline_seconds is not None and request.deadline_seconds <= 0:
            raise SchedulingError("a campaign deadline must be positive")
        telemetry = request.telemetry or NULL_TELEMETRY
        policy = scheduling_policy(request.policy)
        dag = request.dag
        tasks = dag.tasks()
        # Same slot arithmetic as the simulated pool: a worker runs as many
        # concurrent tasks as its profile accommodates — normally one per
        # core, fewer when memory or disk is the binding constraint.
        slots_per_worker = effective_slots_per_worker(request.worker_profile)
        if slots_per_worker < 1:
            raise SchedulingError(
                "the worker profile cannot accommodate a single campaign task"
            )
        n_slots = request.workers * slots_per_worker
        with telemetry.tracer.span(
            "policy_ordering", category="dispatch", policy=policy.name, backend=self.name
        ):
            policy.prepare(dag)
        order_index = {task.task_id: index for index, task in enumerate(tasks)}
        dependents = dag.dependents()
        remaining_deps = {task.task_id: set(task.dependencies) for task in tasks}

        def ready_entry(task_id: str) -> Tuple[Tuple, int, str]:
            return (policy.priority(dag.get(task_id)), order_index[task_id], task_id)

        ready: List[Tuple[Tuple, int, str]] = [
            ready_entry(task.task_id) for task in tasks if not task.dependencies
        ]
        heapq.heapify(ready)
        free_slots = list(range(n_slots))
        heapq.heapify(free_slots)
        # In-flight future -> (task ID, slot, start offset).
        running: Dict[Future, Tuple[str, int, float]] = {}
        assignments: List[TaskAssignment] = []
        peak = 0
        deadline_notified = False
        processes = ProcessPoolExecutor(max_workers=n_slots)
        started_at = time.monotonic()
        try:
            while len(assignments) < len(tasks):
                while ready and free_slots:
                    task_id = heapq.heappop(ready)[2]
                    build = request.payloads.get(task_id)
                    if build is None:
                        future: Future = Future()
                        future.set_result(None)
                    else:
                        future = processes.submit(_execute_build_task, build)
                    running[future] = (
                        task_id,
                        heapq.heappop(free_slots),
                        time.monotonic() - started_at,
                    )
                peak = max(peak, len(running))
                if not running:
                    raise SchedulingError(
                        "scheduler stalled with "
                        f"{len(tasks) - len(assignments)} unfinished task(s)"
                    )
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                end = time.monotonic() - started_at
                for future in sorted(done, key=lambda f: order_index[running[f][0]]):
                    task_id, slot, start = running.pop(future)
                    try:
                        self._check_build(
                            task_id, request.payloads.get(task_id), future, telemetry
                        )
                    except Exception as error:
                        # Stop submitting: a 1000-cell campaign must not keep
                        # building after the first failure.  Already-running
                        # builds finish (they cannot be interrupted), queued
                        # ones are cancelled by the shutdown below.
                        raise SchedulingError(
                            f"campaign task {task_id!r} failed on the "
                            f"{self.name} backend: "
                            f"{type(error).__name__}: {error} "
                            "(still-queued tasks were cancelled)"
                        ) from error
                    heapq.heappush(free_slots, slot)
                    assignments.append(
                        TaskAssignment(
                            task_id=task_id,
                            worker_index=slot // slots_per_worker,
                            start_seconds=start,
                            end_seconds=end,
                            attempt=1,
                        )
                    )
                    for dependent in dependents[task_id]:
                        remaining = remaining_deps[dependent]
                        remaining.discard(task_id)
                        if not remaining:
                            heapq.heappush(ready, ready_entry(dependent))
                # One deadline notification per dispatch, checked between
                # completion batches (builds cannot be interrupted mid-run).
                # A deadline-abort policy on the bus raises EarlyStopRequested.
                elapsed = time.monotonic() - started_at
                if (
                    request.deadline_seconds is not None
                    and request.lifecycle is not None
                    and not deadline_notified
                    and elapsed > request.deadline_seconds
                ):
                    deadline_notified = True
                    try:
                        request.lifecycle.emit(
                            EVENT_DEADLINE_EXCEEDED,
                            campaign_id=request.campaign_id,
                            payload={
                                "backend": self.name,
                                "deadline_seconds": request.deadline_seconds,
                                "elapsed_seconds": round(elapsed, 6),
                            },
                        )
                    except EarlyStopRequested as stop:
                        raise SchedulingError(
                            f"campaign aborted on the {self.name} backend: "
                            f"{stop} ({len(tasks) - len(assignments)} unfinished "
                            "task(s) cancelled)"
                        ) from stop
            makespan = time.monotonic() - started_at if tasks else 0.0
        finally:
            processes.shutdown(wait=True, cancel_futures=True)
        telemetry.metrics.increment(
            "tasks_executed_total", amount=len(tasks), backend=self.name
        )
        telemetry.metrics.observe(
            "dispatch_makespan_seconds", makespan, backend=self.name
        )
        # Stable report order: the wall clock decides completion order, the
        # DAG order breaks ties so repeated prints stay readable.
        assignments.sort(key=lambda a: (a.end_seconds, order_index[a.task_id]))
        measured = {a.task_id: a.end_seconds - a.start_seconds for a in assignments}
        busy: Dict[int, float] = {index: 0.0 for index in range(request.workers)}
        cell_end_seconds: Dict[int, float] = {}
        for assignment in assignments:
            busy[assignment.worker_index] += measured[assignment.task_id]
            cell_index = dag.get(assignment.task_id).cell_index
            cell_end_seconds[cell_index] = max(
                cell_end_seconds.get(cell_index, 0.0), assignment.end_seconds
            )
        return PoolSchedule(
            n_workers=request.workers,
            slots_per_worker=slots_per_worker,
            makespan_seconds=makespan,
            sequential_seconds=sum(measured.values()),
            critical_path_seconds=dag.critical_path_seconds(durations=measured),
            assignments=assignments,
            n_retries=0,
            failed_workers=(),
            busy_seconds_per_worker=busy,
            peak_concurrent_tasks=peak,
            available_slot_seconds=makespan * n_slots,
            policy=policy.name,
            deadline_seconds=request.deadline_seconds,
            cell_end_seconds=cell_end_seconds,
            backend=self.name,
        )

    @staticmethod
    def _check_build(
        task_id: str,
        build: Optional[BuildTask],
        future: Future,
        telemetry: Telemetry,
    ) -> None:
        """Accept a finished task: re-raise its error, digest-check its build."""
        result = future.result()
        if build is None:
            return
        # The child already enforced the task's own digest check; the
        # parent re-derives the digest from the unpickled result so the
        # cross-process round trip is covered too.
        if build.expected_digest is not None:
            with telemetry.tracer.span(
                "digest_check", category="dispatch", task=task_id
            ):
                digest = build_result_digest(result)
            if digest != build.expected_digest:
                raise BuildError(
                    f"child-process build of {build.package.key} on "
                    f"{build.configuration.key} diverged from the "
                    f"recorded result ({digest} != {build.expected_digest})"
                )
        build.runs += 1


#: The execution backends selectable by name (CLI ``--backend``).
EXECUTION_BACKENDS = {
    backend.name: backend for backend in (SimulatedBackend, ProcessPoolBackend)
}


def execution_backend(
    backend: Union[str, ExecutionBackend, None]
) -> ExecutionBackend:
    """Resolve a backend instance from a name, an instance, or None."""
    if backend is None:
        return SimulatedBackend()
    if isinstance(backend, ExecutionBackend):
        return backend
    try:
        return EXECUTION_BACKENDS[backend]()
    except KeyError:
        known = ", ".join(sorted(EXECUTION_BACKENDS))
        raise SchedulingError(
            f"unknown execution backend {backend!r} (known: {known})"
        ) from None


__all__ = [
    "ExecutionRequest",
    "ExecutionBackend",
    "SimulatedBackend",
    "ProcessPoolBackend",
    "EXECUTION_BACKENDS",
    "execution_backend",
]
