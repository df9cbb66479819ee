"""Pluggable execution backends for campaign DAGs.

The campaign scheduler separates *what* a campaign produces from *how* its
DAG is executed.  The scientific output — run documents and catalogue
records — always comes from the deterministic cell pass, committed in the
sequential path's exact order; that is the invariant that keeps every
backend bit-identical.  What a backend decides is the campaign's wall-clock
story: how the derived task DAG is dispatched over the worker pool and what
timeline (:class:`~repro.scheduler.pool.PoolSchedule`) comes back.

Four backends ship with the registry:

* :class:`SimulatedBackend` wraps the deterministic event-driven
  :class:`~repro.scheduler.pool.SimulatedWorkerPool` — simulated
  timestamps, injectable worker failures, reproducible timelines.
* :class:`ThreadPoolBackend` really executes the DAG's tasks concurrently
  on a :class:`concurrent.futures.ThreadPoolExecutor`: build tasks run a
  genuine :class:`~repro.buildsys.builder.BuildTask` re-compilation (a pure
  function of the package content digest, digest-checked against the
  recorded result), test and chain tasks run a read-only verification
  replay of the cell's recorded jobs — all on real OS threads, with
  dependencies gating submission, the selected scheduling policy ordering
  the ready queue, and measured wall-clock seconds folded into the
  returned ``PoolSchedule``.
* :class:`ProcessPoolBackend` shares the thread backend's dispatch loop but
  bridges every picklable :class:`~repro.buildsys.builder.BuildTask` to a
  :class:`concurrent.futures.ProcessPoolExecutor`, so re-compilations run
  in child processes outside the GIL.  The parent digest-checks each
  child's result against the recorded one, exactly as the thread backend
  does.  Verification payloads are closures over live system state — not
  picklable by design — and run inline on the dispatch threads.
* :class:`ShardedBackend` partitions the campaign's *cells* across N worker
  processes.  Each shard executes its cells' build tasks sequentially in a
  child process, persists its results as build-cache journal segments into
  a private storage directory, and the parent merges the shards on
  completion by replaying their journals into the parent cache
  (:meth:`~repro.scheduler.cache.BuildCache.merge_from`) — the append-only
  journal and content-addressed keys make the merge an idempotent replay,
  not new bookkeeping.  Verification payloads replay in the parent after
  the shards complete (they are causally downstream of the builds).

Backends are selected by name through :func:`execution_backend`, mirroring
:func:`~repro.scheduler.pool.scheduling_policy`.

All wall-clock backends share one failure contract: the first failing
payload aborts the campaign with a :class:`~repro._common.SchedulingError`
that names the failing task, and still-queued work is cancelled
(``cancel_futures=True``), so a 1000-cell campaign does not keep building
after the first failure.
"""

from __future__ import annotations

import heapq
import os
import shutil
import tempfile
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

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

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.scheduler.cache import BuildCache

#: Payload a backend may run for one task (real work; return value ignored).
TaskPayload = Callable[[], object]


@dataclass
class ExecutionRequest:
    """Everything a backend needs to execute one campaign DAG."""

    dag: CampaignDAG
    workers: int = 1
    worker_profile: ResourceProfile = VALIDATION_VM_PROFILE
    failures: Tuple[WorkerFailure, ...] = ()
    policy: Union[str, SchedulingPolicy, None] = None
    deadline_seconds: Optional[float] = None
    #: Task ID -> real work to perform when the task executes (backends that
    #: simulate time ignore the payloads; backends that really execute run
    #: them on their worker threads).
    payloads: Mapping[str, TaskPayload] = field(default_factory=dict)
    #: Shard count for the sharded backend (None lets the backend default to
    #: the worker count); ignored by every other backend.
    shards: Optional[int] = None
    #: Cache the sharded backend replays its shards' journals into on
    #: completion; None skips the merge.  Ignored by every other backend.
    merge_cache: Optional["BuildCache"] = None
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
    """The deterministic event-driven pool simulation (today's default)."""

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


def _check_real_request(backend: "ExecutionBackend", request: ExecutionRequest) -> None:
    """Shared validation of a request against a wall-clock backend."""
    if request.failures:
        raise SchedulingError(
            "worker failure injection requires the simulated backend; "
            f"the {backend.name} backend executes for real"
        )
    if request.workers < 1:
        raise SchedulingError("a worker pool needs at least one worker")
    if request.deadline_seconds is not None and request.deadline_seconds <= 0:
        raise SchedulingError("a campaign deadline must be positive")


def _emit_deadline(
    backend: "ExecutionBackend", request: ExecutionRequest, elapsed_seconds: float
) -> None:
    """Emit ``deadline_exceeded`` for a dispatch loop that crossed its deadline.

    Raises :class:`~repro.scheduler.lifecycle.EarlyStopRequested` when a
    deadline-abort policy is registered on the request's lifecycle bus;
    the calling loop cancels its queued work and converts the request into
    the established :class:`~repro._common.SchedulingError` contract.
    """
    if request.lifecycle is None:
        return
    request.lifecycle.emit(
        EVENT_DEADLINE_EXCEEDED,
        campaign_id=request.campaign_id,
        payload={
            "backend": backend.name,
            "deadline_seconds": request.deadline_seconds,
            "elapsed_seconds": round(elapsed_seconds, 6),
        },
    )


def _dispatch_wall_clock(
    backend: "ExecutionBackend", request: ExecutionRequest
) -> PoolSchedule:
    """The shared wall-clock dispatch loop of the thread/process backends.

    Dependencies gate submission, the scheduling policy orders the ready
    queue exactly as in the simulation, and one dispatch thread per slot
    carries a task's payload — directly (thread backend) or bridged to a
    process pool (process backend) via ``backend._run_payload``.  The first
    payload failure raises a :class:`~repro._common.SchedulingError` naming
    the failing task, after cancelling the still-queued futures.
    """
    _check_real_request(backend, request)
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
        "policy_ordering", category="dispatch", policy=policy.name, backend=backend.name
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
    started_at = time.monotonic()

    def run_task(task_id: str, slot: int) -> Tuple[str, int, float, float]:
        start = time.monotonic() - started_at
        # Runs on a dispatch thread; the tracer keeps per-thread span
        # stacks, so concurrent task spans never nest into each other.
        with telemetry.tracer.span(
            "task_execute", category="dispatch", task=task_id, backend=backend.name
        ):
            backend._run_payload(
                task_id, request.payloads.get(task_id), telemetry=telemetry
            )
        return task_id, slot, start, time.monotonic() - started_at

    assignments: List[TaskAssignment] = []
    completed = 0
    peak = 0
    pending = set()
    future_tasks: Dict[Future, str] = {}
    deadline_notified = False
    with ThreadPoolExecutor(
        max_workers=max(n_slots, 1), thread_name_prefix="sp-campaign"
    ) as executor:
        while completed < len(tasks):
            while ready and free_slots:
                task_id = heapq.heappop(ready)[2]
                slot = heapq.heappop(free_slots)
                future = executor.submit(run_task, task_id, slot)
                future_tasks[future] = task_id
                pending.add(future)
            peak = max(peak, len(pending))
            if not pending:
                raise SchedulingError(
                    "scheduler stalled with "
                    f"{len(tasks) - completed} unfinished task(s)"
                )
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                try:
                    task_id, slot, start, end = future.result()
                except Exception as error:
                    failed_task = future_tasks.get(future, "<unknown task>")
                    # Stop submitting: a 1000-cell campaign must not keep
                    # building after the first failure.  Already-running
                    # tasks finish (they cannot be interrupted), queued
                    # ones are cancelled.
                    executor.shutdown(wait=False, cancel_futures=True)
                    raise SchedulingError(
                        f"campaign task {failed_task!r} failed on the "
                        f"{backend.name} backend: "
                        f"{type(error).__name__}: {error} "
                        "(still-queued tasks were cancelled)"
                    ) from error
                heapq.heappush(free_slots, slot)
                del future_tasks[future]
                assignments.append(
                    TaskAssignment(
                        task_id=task_id,
                        worker_index=slot // slots_per_worker,
                        start_seconds=start,
                        end_seconds=end,
                        attempt=1,
                    )
                )
                completed += 1
                for dependent in dependents[task_id]:
                    remaining = remaining_deps[dependent]
                    remaining.discard(task_id)
                    if not remaining:
                        heapq.heappush(ready, ready_entry(dependent))
            # One deadline notification per dispatch, checked between
            # completion batches (tasks cannot be interrupted mid-run).
            if (
                request.deadline_seconds is not None
                and not deadline_notified
                and time.monotonic() - started_at > request.deadline_seconds
            ):
                deadline_notified = True
                try:
                    _emit_deadline(
                        backend, request, time.monotonic() - started_at
                    )
                except EarlyStopRequested as stop:
                    executor.shutdown(wait=False, cancel_futures=True)
                    raise SchedulingError(
                        f"campaign aborted on the {backend.name} backend: "
                        f"{stop} ({len(tasks) - completed} unfinished "
                        "task(s) cancelled)"
                    ) from stop
    makespan = time.monotonic() - started_at if tasks else 0.0
    telemetry.metrics.increment(
        "tasks_executed_total", amount=len(tasks), backend=backend.name
    )
    telemetry.metrics.observe(
        "dispatch_makespan_seconds", makespan, backend=backend.name
    )
    # Stable report order: the wall clock decides completion order, the
    # DAG order breaks ties so repeated prints stay readable.
    assignments.sort(key=lambda a: (a.end_seconds, order_index[a.task_id]))
    measured = {a.task_id: a.end_seconds - a.start_seconds for a in assignments}
    busy: Dict[int, float] = {index: 0.0 for index in range(request.workers)}
    for assignment in assignments:
        busy[assignment.worker_index] += measured[assignment.task_id]
    cell_end_seconds: Dict[int, float] = {}
    for assignment in assignments:
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
        backend=backend.name,
    )


class ThreadPoolBackend(ExecutionBackend):
    """Really executes the campaign DAG on a wall-clock thread pool.

    Concurrency capacity is ``workers x slots_per_worker`` OS threads (the
    same slot arithmetic as the simulated pool); a task is submitted the
    moment its dependencies have finished and a slot is free, with the
    scheduling policy ordering the ready queue exactly as in the
    simulation.  Task payloads are the real work: build tasks re-execute
    their package compilation through a
    :class:`~repro.buildsys.builder.BuildTask` (pure functions of the
    content digest — concurrency cannot change their outcome, which the
    task's digest check enforces), while test and chain tasks replay their
    recorded jobs read-only over genuinely shared (immutable) campaign
    data.

    The returned schedule carries *measured* seconds: per-task start/end
    offsets from the campaign's start, the real makespan, and a critical
    path recomputed from the measured durations.  Those numbers differ
    from run to run — which is precisely why the determinism suite
    excludes timing fields when comparing backends.

    Worker failure injection is a feature of the simulation; requesting it
    here raises :class:`~repro._common.SchedulingError`.
    """

    name = "threads"

    executes_payloads = True

    def execute(self, request: ExecutionRequest) -> PoolSchedule:
        return _dispatch_wall_clock(self, request)

    def _run_payload(
        self,
        task_id: str,
        payload: Optional[TaskPayload],
        telemetry: Telemetry = NULL_TELEMETRY,
    ) -> None:
        if payload is not None:
            payload()


def _execute_build_task(task: BuildTask) -> BuildResult:
    """Child-process entry point of the process backend (module level so a
    spawned interpreter can import it; the task travels by pickle)."""
    return task.run()


class ProcessPoolBackend(ExecutionBackend):
    """Executes build payloads in child processes, outside the GIL.

    The dispatch loop is the thread backend's: one dispatch thread per
    worker slot, dependencies gating submission, the policy ordering the
    ready queue.  What differs is where a payload runs — every
    :class:`~repro.buildsys.builder.BuildTask` (picklable by design: plain
    dataclasses over plain value types) is submitted to a shared
    :class:`concurrent.futures.ProcessPoolExecutor` and its result is
    pickled back, digest-checked by the parent against the recorded result
    exactly as the thread backend checks its in-process builds.  The
    child's ``runs`` counter increments on the child's *copy*; the parent
    increments its own task on result receipt, so the parity suite's
    ``runs == 1`` contract holds identically across backends.

    Verification payloads are closures over the live system storage — not
    picklable, by design — and run inline on the dispatch threads, exactly
    as on the thread backend.
    """

    name = "processes"

    executes_payloads = True

    def __init__(self) -> None:
        self._processes: Optional[ProcessPoolExecutor] = None

    def execute(self, request: ExecutionRequest) -> PoolSchedule:
        _check_real_request(self, request)
        n_slots = request.workers * max(
            effective_slots_per_worker(request.worker_profile), 1
        )
        self._processes = ProcessPoolExecutor(max_workers=n_slots)
        try:
            return _dispatch_wall_clock(self, request)
        finally:
            processes, self._processes = self._processes, None
            processes.shutdown(wait=True, cancel_futures=True)

    def _run_payload(
        self,
        task_id: str,
        payload: Optional[TaskPayload],
        telemetry: Telemetry = NULL_TELEMETRY,
    ) -> None:
        if isinstance(payload, BuildTask):
            result = self._processes.submit(_execute_build_task, payload).result()
            # The child already enforced the task's own digest check; the
            # parent re-derives the digest from the unpickled result so the
            # cross-process round trip is covered too.
            if payload.expected_digest is not None:
                with telemetry.tracer.span(
                    "digest_check", category="dispatch", task=task_id
                ):
                    digest = build_result_digest(result)
                if digest != payload.expected_digest:
                    raise BuildError(
                        f"child-process build of {payload.package.key} on "
                        f"{payload.configuration.key} diverged from the "
                        f"recorded result ({digest} != "
                        f"{payload.expected_digest})"
                    )
            payload.runs += 1
        elif payload is not None:
            payload()


def _execute_shard(
    shard_index: int,
    build_tasks: List[Tuple[str, BuildTask]],
    directory: str,
) -> Dict[str, object]:
    """Child-process entry point of the sharded backend.

    Runs the shard's build tasks sequentially (the list arrives in DAG
    order, so intra-cell dependencies are respected), stores every result
    in a private :class:`~repro.scheduler.cache.BuildCache`, and persists
    that cache's journal segments into the shard's private storage
    directory.  Returns per-task timings and result digests for the
    parent's schedule and digest bookkeeping.
    """
    from repro.scheduler.cache import BuildCache
    from repro.storage.artifacts import ArtifactStore
    from repro.storage.common_storage import CommonStorage

    storage = CommonStorage(namespaces=())
    cache = BuildCache(ArtifactStore())
    started_at = time.monotonic()
    builds: List[Tuple[str, float, float, str]] = []
    for task_id, task in build_tasks:
        begin = time.monotonic() - started_at
        try:
            result = task.run()
        except Exception as error:
            raise SchedulingError(
                f"campaign task {task_id!r} failed on shard {shard_index}: "
                f"{type(error).__name__}: {error}"
            ) from None
        cache.store(task.package, task.configuration, result)
        builds.append(
            (
                task_id,
                begin,
                time.monotonic() - started_at,
                build_result_digest(result),
            )
        )
    cache.persist_to(storage)
    storage.persist(directory)
    return {"builds": builds}


class ShardedBackend(ExecutionBackend):
    """Partitions a campaign's cells across N worker processes.

    Cells are round-robined over the shards in cell order (cells are
    independent: campaign DAG dependencies never cross a cell), and each
    shard's build tasks run sequentially in one child process — the
    coarse-grained sibling of :class:`ProcessPoolBackend`'s per-task
    dispatch, with per-shard IPC instead of per-task IPC.  Each child
    persists its results as build-cache journal segments into a private
    storage directory; on completion the parent loads every shard's
    journal and replays it into the campaign's cache
    (:meth:`~repro.scheduler.cache.BuildCache.merge_from`) — an idempotent
    merge by content-addressed key, so re-merging work the parent cell
    pass already stored changes nothing (which is what keeps the cache
    statistics bit-identical to the simulated backend).

    Verification payloads (unpicklable closures over live state) replay in
    the parent *after* the shards complete — causally correct, since test
    and chain tasks depend on the builds.  The scheduling policy does not
    reorder across shards (the partition is by cell); its name is recorded
    on the schedule for the report.

    The returned schedule has one worker per shard (``slots_per_worker``
    is 1) and carries the shard count in ``PoolSchedule.shards``.
    """

    name = "sharded"

    executes_payloads = True

    def __init__(self, shards: Optional[int] = None) -> None:
        self.shards = shards

    def execute(self, request: ExecutionRequest) -> PoolSchedule:
        _check_real_request(self, request)
        telemetry = request.telemetry or NULL_TELEMETRY
        n_shards = self.shards if self.shards is not None else request.shards
        if n_shards is None:
            n_shards = request.workers
        if n_shards < 1:
            raise SchedulingError("a sharded campaign needs at least one shard")
        dag = request.dag
        tasks = dag.tasks()
        order_index = {task.task_id: index for index, task in enumerate(tasks)}
        cell_indices = sorted({task.cell_index for task in tasks})
        shard_of_cell = {
            cell: position % n_shards for position, cell in enumerate(cell_indices)
        }
        shard_builds: Dict[int, List[Tuple[str, BuildTask]]] = {
            index: [] for index in range(n_shards)
        }
        for task in tasks:
            payload = request.payloads.get(task.task_id)
            if isinstance(payload, BuildTask):
                shard_builds[shard_of_cell[task.cell_index]].append(
                    (task.task_id, payload)
                )
        started_at = time.monotonic()
        assignments: List[TaskAssignment] = []
        deadline_notified = False

        def check_deadline() -> None:
            # Checked at every coarse-grained decision point (before each
            # shard submission, after each shard result, before each
            # verification replay): shards are all-or-nothing, so these are
            # the only moments an abort policy can act.
            nonlocal deadline_notified
            if request.deadline_seconds is None or deadline_notified:
                return
            elapsed = time.monotonic() - started_at
            if elapsed <= request.deadline_seconds:
                return
            deadline_notified = True
            _emit_deadline(self, request, elapsed)

        root = tempfile.mkdtemp(prefix="sp-shards-")
        try:
            directories = {
                index: os.path.join(root, f"shard_{index:02d}")
                for index in range(n_shards)
            }
            # Only shards with build work get a child process; an all-cached
            # (or build-free) shard has nothing to execute or journal.
            working = [index for index in range(n_shards) if shard_builds[index]]
            reports: Dict[int, Dict[str, object]] = {}
            if working:
                with ProcessPoolExecutor(max_workers=len(working)) as processes:
                    try:
                        futures = {}
                        for index in working:
                            check_deadline()
                            futures[index] = processes.submit(
                                _execute_shard,
                                index,
                                shard_builds[index],
                                directories[index],
                            )
                        for index, future in futures.items():
                            reports[index] = future.result()
                            check_deadline()
                    except EarlyStopRequested:
                        processes.shutdown(wait=False, cancel_futures=True)
                        raise
                    except Exception as error:
                        processes.shutdown(wait=False, cancel_futures=True)
                        raise SchedulingError(
                            f"{type(error).__name__}: {error} on the "
                            f"{self.name} backend "
                            "(still-queued shards were cancelled)"
                        ) from error
            for index in working:
                for task_id, begin, end, digest in reports[index]["builds"]:
                    payload = request.payloads[task_id]
                    if (
                        payload.expected_digest is not None
                        and digest != payload.expected_digest
                    ):
                        raise SchedulingError(
                            f"campaign task {task_id!r} failed on the "
                            f"{self.name} backend: shard {index} returned "
                            f"digest {digest} instead of the recorded "
                            f"{payload.expected_digest}"
                        )
                    # The child ran its pickled copy; mirror the execution
                    # count on the parent's task, as the process backend does.
                    payload.runs += 1
                    assignments.append(
                        TaskAssignment(
                            task_id=task_id,
                            worker_index=index,
                            start_seconds=begin,
                            end_seconds=end,
                            attempt=1,
                        )
                    )
            # Verification replays run after the shards: tests and chain
            # steps are causally downstream of their cell's builds.
            for task in tasks:
                payload = request.payloads.get(task.task_id)
                if isinstance(payload, BuildTask):
                    continue
                check_deadline()
                begin = time.monotonic() - started_at
                try:
                    if payload is not None:
                        payload()
                except Exception as error:
                    raise SchedulingError(
                        f"campaign task {task.task_id!r} failed on the "
                        f"{self.name} backend: {type(error).__name__}: {error}"
                    ) from error
                assignments.append(
                    TaskAssignment(
                        task_id=task.task_id,
                        worker_index=shard_of_cell[task.cell_index],
                        start_seconds=begin,
                        end_seconds=time.monotonic() - started_at,
                        attempt=1,
                    )
                )
            # Merge: replay every shard's persisted journal into the parent
            # cache.  The journal segments on disk are the shard's real
            # output; loading them back exercises the same path a separate
            # merge process would use.  A parent cache synced to a mounted
            # journal appends the merged entries straight into it (a daemon
            # restart between merge and the next persist loses nothing);
            # an unsynced cache defers to the next persist as before.
            if request.merge_cache is not None:
                from repro.scheduler.cache import BuildCache
                from repro.storage.artifacts import ArtifactStore
                from repro.storage.common_storage import CommonStorage

                for index in working:
                    if not os.path.isdir(directories[index]):
                        continue
                    # The merge is journal replay, not cell science: the
                    # span lands in the "journal" category, outside the
                    # cell-pass parity sequence (sharded-only spans would
                    # otherwise break cross-backend comparison).
                    with telemetry.tracer.span(
                        "shard_merge", category="journal", shard=index
                    ):
                        shard_storage = CommonStorage.load(
                            directories[index], namespaces=[BuildCache.NAMESPACE]
                        )
                        shard_cache = BuildCache.restore_from(
                            shard_storage, ArtifactStore()
                        )
                        request.merge_cache.merge_from(shard_cache)
                    telemetry.metrics.increment("shard_merges_total")
        except EarlyStopRequested as stop:
            unfinished = len(working) - len(reports)
            raise SchedulingError(
                f"campaign aborted on the {self.name} backend: {stop} "
                f"({unfinished} shard(s) cancelled, remaining verification "
                "replays skipped)"
            ) from stop
        finally:
            shutil.rmtree(root, ignore_errors=True)
        makespan = time.monotonic() - started_at if tasks else 0.0
        telemetry.metrics.increment(
            "tasks_executed_total", amount=len(tasks), backend=self.name
        )
        telemetry.metrics.observe(
            "dispatch_makespan_seconds", makespan, backend=self.name
        )
        assignments.sort(key=lambda a: (a.end_seconds, order_index[a.task_id]))
        measured = {a.task_id: a.end_seconds - a.start_seconds for a in assignments}
        busy: Dict[int, float] = {index: 0.0 for index in range(n_shards)}
        for assignment in assignments:
            busy[assignment.worker_index] += measured[assignment.task_id]
        cell_end_seconds: Dict[int, float] = {}
        for assignment in assignments:
            cell_index = dag.get(assignment.task_id).cell_index
            cell_end_seconds[cell_index] = max(
                cell_end_seconds.get(cell_index, 0.0), assignment.end_seconds
            )
        return PoolSchedule(
            n_workers=n_shards,
            slots_per_worker=1,
            makespan_seconds=makespan,
            sequential_seconds=sum(measured.values()),
            critical_path_seconds=dag.critical_path_seconds(durations=measured),
            assignments=assignments,
            n_retries=0,
            failed_workers=(),
            busy_seconds_per_worker=busy,
            peak_concurrent_tasks=max(len(working), 1 if tasks else 0),
            available_slot_seconds=makespan * n_shards,
            policy=scheduling_policy(request.policy).name,
            deadline_seconds=request.deadline_seconds,
            cell_end_seconds=cell_end_seconds,
            backend=self.name,
            shards=n_shards,
        )


#: The execution backends selectable by name (CLI ``--backend``).
EXECUTION_BACKENDS = {
    backend.name: backend
    for backend in (
        SimulatedBackend,
        ThreadPoolBackend,
        ProcessPoolBackend,
        ShardedBackend,
    )
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
    "TaskPayload",
    "ExecutionRequest",
    "ExecutionBackend",
    "SimulatedBackend",
    "ThreadPoolBackend",
    "ProcessPoolBackend",
    "ShardedBackend",
    "EXECUTION_BACKENDS",
    "execution_backend",
]
