"""The campaign scheduler: a validation matrix run as one planned campaign.

:class:`CampaignScheduler` expands (experiments x configurations x rounds)
— or an explicit list of :class:`~repro.scheduler.spec.ValidationRequest`
cells — into the ordered list of matrix cells, executes every cell through
the owning :class:`~repro.core.spsystem.SPSystem` with the content-hash
build cache layered over the package builder, then derives the campaign job
DAG from the executed runs and hands it to the selected
:class:`~repro.scheduler.backends.ExecutionBackend` for dispatch over the
worker pool.

Each round of cells runs in three steps (the same steps
:meth:`SPSystem.validate` performs inline for one cell):

1. *compile* — in this process, in matrix order (rounds outermost, then
   experiments, then configurations): every cell's inventory is built
   through the caching builder and its job IDs are reserved;
2. *execute* — the cells' test phases run in the children of a ``fork``
   process pool when the campaign has two or more worker slots, CPUs and
   cells in the round, and inline otherwise;
3. *commit* — in this process, in matrix order: each outcome is rebased
   onto the system clock, recorded, compared, diagnosed and announced
   (``on_cell_complete``, the ``cell_validate`` span, ``cell_completed``).

So job IDs, simulated timestamps and therefore the produced
:class:`~repro.core.jobs.ValidationRun` documents and
:class:`~repro.storage.catalog.RunCatalog` records are bit-identical to
calling :meth:`SPSystem.validate` cell by cell — whatever the worker count
and whichever backend — and so are the cache statistics, lifecycle events
and cell-category spans.  A failing cell is named in a
:class:`~repro._common.SchedulingError`; the cells before it stay recorded
and the cells compiled after it are undone.  The backend changes the
campaign's wall-clock story (makespan, utilisation, retries after worker
failures — simulated, or measured while the ``processes`` backend
re-compiles the campaign's builds in child processes), never its
scientific output.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro._common import SchedulingError, chunked
from repro.buildsys.builder import BuildTask, PackageBuilder, build_result_digest
from repro.buildsys.graph import DependencyGraph
from repro.core.cellpass import (
    PreparedCell,
    adopt_system,
    execute_cell,
    execute_forked_cell,
)
from repro.core.jobs import JobStatus, ValidationRun
from repro.core.runner import CellOutcome
from repro.core.testspec import ExperimentDefinition
from repro.reporting.summary import render_campaign_report
from repro.scheduler.backends import (
    ExecutionBackend,
    ExecutionRequest,
    execution_backend,
)
from repro.scheduler.cache import (
    BuildCache,
    CacheCheckpoint,
    CacheStatistics,
    CachingPackageBuilder,
)
from repro.scheduler.dag import CampaignDAG, CampaignTask, TaskKind
from repro.scheduler.lifecycle import (
    EVENT_BUDGET_EXCEEDED,
    EVENT_CELL_COMPLETED,
    PluginRegistry,
)
from repro.scheduler.pool import (
    PoolSchedule,
    SchedulingPolicy,
    WorkerFailure,
    effective_slots_per_worker,
    scheduling_policy,
)
from repro.scheduler.spec import DEFAULT_BATCH_SIZE, CampaignSpec, ValidationRequest
from repro.telemetry import NULL_TELEMETRY
from repro.virtualization.resources import VALIDATION_VM_PROFILE, ResourceProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.spsystem import SPSystem, ValidationCycleResult

#: Callback fired after each executed matrix cell (progress reporting).
CellCallback = Callable[["CampaignCell"], None]


@dataclass
class CampaignCell:
    """One executed (experiment, configuration) cell of the matrix."""

    index: int
    experiment: str
    configuration_key: str
    result: "ValidationCycleResult"

    @property
    def run(self) -> ValidationRun:
        """The validation run the cell produced."""
        return self.result.run


@dataclass
class CampaignResult:
    """Everything one scheduled validation campaign produced."""

    cells: List[CampaignCell]
    dag: CampaignDAG
    schedule: PoolSchedule
    cache_statistics: CacheStatistics
    workers: int
    batch_size: int
    rounds: int
    description: Optional[str] = None
    policy: str = "fifo"
    backend: str = "simulated"
    #: The spec the campaign was submitted with (None for direct scheduler use).
    spec: Optional[CampaignSpec] = None
    #: Task ID -> the re-executable :class:`~repro.buildsys.builder.BuildTask`
    #: the backend was handed for that build task (the parity tests inspect
    #: their ``runs`` counters).
    payloads: Dict[str, BuildTask] = field(default_factory=dict, repr=False)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def runs(self) -> List[ValidationRun]:
        """All validation runs, in execution order."""
        return [cell.run for cell in self.cells]

    def cycles_for(self, experiment_name: str) -> List["ValidationCycleResult"]:
        """The cycle results of one experiment, in execution order."""
        return [
            cell.result for cell in self.cells if cell.experiment == experiment_name
        ]

    def by_experiment(self) -> Dict[str, List["ValidationCycleResult"]]:
        """Cycle results grouped by experiment, in first-execution order."""
        grouped: Dict[str, List["ValidationCycleResult"]] = {}
        for cell in self.cells:
            grouped.setdefault(cell.experiment, []).append(cell.result)
        return grouped

    @property
    def all_passed(self) -> bool:
        """True when every cell of the campaign passed completely.

        Like :attr:`ValidationRun.all_passed`, an empty campaign does not
        count as successful — nothing was validated.
        """
        return bool(self.cells) and all(cell.result.successful for cell in self.cells)

    def render_text(self) -> str:
        """Human-readable campaign report (pool timeline plus cache numbers)."""
        return render_campaign_report(self)


class CampaignScheduler:
    """Plans and executes validation campaigns for one sp-system."""

    def __init__(
        self,
        system: "SPSystem",
        workers: int = 1,
        batch_size: int = DEFAULT_BATCH_SIZE,
        worker_profile: ResourceProfile = VALIDATION_VM_PROFILE,
        failures: Sequence[WorkerFailure] = (),
        cache: Optional[BuildCache] = None,
        policy: Union[str, SchedulingPolicy, None] = None,
        deadline_seconds: Optional[float] = None,
        backend: Union[str, ExecutionBackend, None] = None,
        cache_budget_bytes: Optional[int] = None,
        use_cache: bool = True,
        lifecycle: Optional[PluginRegistry] = None,
        campaign_id: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise SchedulingError("a campaign needs at least one worker")
        if batch_size < 1:
            raise SchedulingError("standalone test batches need at least one slot")
        if cache_budget_bytes is not None and cache_budget_bytes < 0:
            raise SchedulingError("a cache size budget cannot be negative")
        if cache_budget_bytes is not None and not use_cache:
            raise SchedulingError(
                "a cache size budget needs the cache (use_cache is False)"
            )
        self.system = system
        self.workers = workers
        self.batch_size = batch_size
        self.worker_profile = worker_profile
        self.failures = tuple(failures)
        self.cache = cache if cache is not None else BuildCache(system.artifact_store)
        self.policy = scheduling_policy(policy)
        self.deadline_seconds = deadline_seconds
        self.backend = execution_backend(backend)
        #: Live in-memory budget, enforced after every campaign round (the
        #: same budget the persisted journal is compacted under).
        self.cache_budget_bytes = cache_budget_bytes
        #: ``False`` runs the cold path: no cache layered over the builder.
        self.use_cache = use_cache
        #: Lifecycle event bus (None = no events emitted, the direct
        #: scheduler-use path) and the campaign ID events are tagged with.
        self.lifecycle = lifecycle
        self.campaign_id = campaign_id
        #: The system's telemetry bundle (the no-op bundle when the system
        #: predates it or was built without one).  Spans recorded from the
        #: deterministic cell pass carry category "cell" — their sequence
        #: is part of the cross-backend parity contract; wall-clock
        #: dispatch spans carry "dispatch" and are excluded.
        self.telemetry = getattr(system, "telemetry", None) or NULL_TELEMETRY

    # -- campaign execution ----------------------------------------------------
    def expand_matrix(
        self,
        experiment_names: Optional[Iterable[str]] = None,
        configuration_keys: Optional[Iterable[str]] = None,
    ) -> List[ValidationRequest]:
        """One round of cross-product requests, in sequential-path order.

        Either side being None means "all registered" — this is the single
        home of that rule; the :meth:`SPSystem.submit` facade expands specs
        through it too.
        """
        names = (
            list(experiment_names)
            if experiment_names is not None
            else [experiment.name for experiment in self.system.experiments()]
        )
        keys = (
            list(configuration_keys)
            if configuration_keys is not None
            else [configuration.key for configuration in self.system.configurations()]
        )
        return [
            ValidationRequest(experiment=name, configuration_key=key)
            for name in names
            for key in keys
        ]

    def run_requests(
        self,
        requests: Sequence[ValidationRequest],
        description: Optional[str] = None,
        rounds: int = 1,
        on_cell_complete: Optional[CellCallback] = None,
    ) -> CampaignResult:
        """Execute an explicit list of validation requests, *rounds* times.

        With a ``cache_budget_bytes``, the live cache is brought back under
        the budget after every round — not just at persist time — so a
        long-running multi-round campaign's memory footprint is bounded by
        the same knob as its persisted journal.
        """
        if rounds < 1:
            raise SchedulingError("a campaign needs at least one round")
        # Account against the cache that will actually serve the campaign: a
        # caching builder already installed on the runner keeps its own cache.
        if self.use_cache:
            cell_builder: Optional[PackageBuilder] = self._caching_builder()
            effective_cache = cell_builder.cache  # type: ignore[union-attr]
        else:
            # The cold path must bypass a caching builder even when one is
            # installed directly on the runner — otherwise "no cache" would
            # silently serve warm replays.
            cell_builder = self._cold_builder()
            effective_cache = self.cache
        statistics_before = effective_cache.statistics.snapshot()
        cells: List[CampaignCell] = []
        pool = self._cell_pool(len(requests))
        try:
            for _round in range(rounds):
                cells.extend(
                    self._execute_cells(
                        requests,
                        description,
                        cell_builder,
                        effective_cache if self.use_cache else None,
                        pool,
                        on_cell_complete,
                        index_offset=len(cells),
                    )
                )
                if self.use_cache and self.cache_budget_bytes is not None:
                    evicted = effective_cache.enforce_budget(self.cache_budget_bytes)
                    if evicted and self.lifecycle is not None:
                        self.lifecycle.emit(
                            EVENT_BUDGET_EXCEEDED,
                            campaign_id=self.campaign_id,
                            payload={
                                "budget_bytes": self.cache_budget_bytes,
                                "evicted_entries": evicted,
                                "round": _round + 1,
                            },
                        )
        finally:
            if pool is not None:
                pool.shutdown()
        with self.telemetry.tracer.span("dag_construction", category="cell"):
            dag, payloads = self._build_dag(cells, effective_cache)
        try:
            schedule = self.backend.execute(
                ExecutionRequest(
                    dag=dag,
                    workers=self.workers,
                    worker_profile=self.worker_profile,
                    failures=self.failures,
                    policy=self.policy,
                    deadline_seconds=self.deadline_seconds,
                    payloads=payloads,
                    lifecycle=self.lifecycle,
                    campaign_id=self.campaign_id,
                    telemetry=self.telemetry,
                )
            )
        except SchedulingError as error:
            # The deterministic validation pass has already recorded its runs;
            # only the pool execution failed.  Say so instead of implying the
            # campaign produced nothing.
            raise SchedulingError(
                f"{error} (the {len(cells)} validation run(s) of the campaign "
                "remain recorded in the catalogue)"
            ) from error
        return CampaignResult(
            cells=cells,
            dag=dag,
            schedule=schedule,
            cache_statistics=effective_cache.statistics - statistics_before,
            workers=self.workers,
            batch_size=self.batch_size,
            rounds=rounds,
            description=description,
            policy=self.policy.name,
            backend=self.backend.name,
            payloads=payloads,
        )

    def _caching_builder(self) -> CachingPackageBuilder:
        """The caching builder the campaign will execute with."""
        original = self.system.runner.builder
        if isinstance(original, CachingPackageBuilder):
            original.telemetry = self.telemetry
            return original
        return CachingPackageBuilder(self.cache, base=original, telemetry=self.telemetry)

    @staticmethod
    def _unwrap_builder(builder: PackageBuilder) -> PackageBuilder:
        """Peel a caching wrapper off a builder, keeping its checker."""
        if not isinstance(builder, CachingPackageBuilder):
            return builder
        if builder.base is not None:
            return builder.base
        return PackageBuilder(checker=builder.checker)

    def _cold_builder(self) -> Optional[PackageBuilder]:
        """The builder for a cache-free campaign, or None to leave the runner.

        An installed :class:`CachingPackageBuilder` is unwrapped to its base
        so the cold path genuinely compiles instead of replaying its cache.
        """
        original = self.system.runner.builder
        unwrapped = self._unwrap_builder(original)
        return None if unwrapped is original else unwrapped

    def _cell_pool(self, cells_per_round: int) -> Optional[_CellPool]:
        """A ``fork`` pool for the cells' test phases, or None to run them inline.

        The pool has one process per usable slot: the campaign's worker
        slots, capped by the CPUs this process may run on and by the cells
        of one round.  Fewer than two slots (or no ``fork``) runs inline.
        """
        slots = self.workers * effective_slots_per_worker(self.worker_profile)
        cpus = (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1
        )
        size = min(slots, cpus, cells_per_round)
        if size < 2 or "fork" not in multiprocessing.get_all_start_methods():
            return None
        return _CellPool(self.system, size)

    def _execute_cells(
        self,
        requests: Sequence[ValidationRequest],
        description: Optional[str],
        cell_builder: Optional[PackageBuilder],
        cache: Optional[BuildCache],
        pool: Optional[_CellPool],
        on_cell_complete: Optional[CellCallback] = None,
        index_offset: int = 0,
    ) -> List[CampaignCell]:
        """Run one round of cells: compile all, execute, commit in order.

        Every cell is compiled in the parent, in matrix order, through the
        round's builder (*cell_builder* replaces the runner's builder for
        the round — the caching wrapper on the warm path, the unwrapped
        base on the cold path; ``None`` leaves the runner untouched).  Each
        compiled cell's test phases run on *pool* — or inline without one —
        and the outcomes are committed in matrix order, so job IDs, the
        simulated clock, documents, events and cell spans come out exactly
        as in the serial pass.

        If the round stops early, the cells compiled but never committed
        are undone: the job-ID allocator and *cache* return to the first
        uncommitted cell's state.
        """
        original_builder = self.system.runner.builder
        prepared: List[Tuple[int, ValidationRequest, PreparedCell]] = []
        checkpoints: List[Optional[CacheCheckpoint]] = []
        pending: List[Optional[Future]] = []
        cells: List[CampaignCell] = []
        # Cells whose commit has begun; a commit that raises still counts,
        # as its run stays recorded just like in the serial pass.
        committed = 0
        prepare_error: Optional[Exception] = None
        try:
            if cell_builder is not None:
                self.system.runner.builder = cell_builder
            for index, request in enumerate(requests, start=index_offset):
                checkpoint = cache.checkpoint() if cache is not None else None
                try:
                    cell = self.system.prepare_cell(
                        request.experiment,
                        request.configuration_key,
                        description=request.description or description,
                        reference_configuration_key=request.reference_configuration_key,
                    )
                except Exception as error:
                    # Surfaces after the cells before it are committed, as
                    # in the serial pass.
                    prepare_error = error
                    break
                prepared.append((index, request, cell))
                checkpoints.append(checkpoint)
                pending.append(pool.submit(cell) if pool is not None else None)
            for position, (index, request, cell) in enumerate(prepared):
                # The span attributes are pure matrix coordinates, so the
                # cell-pass span sequence is identical on every backend.
                with self.telemetry.tracer.span(
                    "cell_validate",
                    category="cell",
                    experiment=request.experiment,
                    configuration=request.configuration_key,
                ):
                    outcome = self._outcome(position, prepared, pending, pool)
                    pending[position] = None
                    committed += 1
                    result = self.system.commit_cell(cell, outcome)
                cell_record = CampaignCell(
                    index=index,
                    experiment=request.experiment,
                    configuration_key=request.configuration_key,
                    result=result,
                )
                cells.append(cell_record)
                self._complete(cell_record, on_cell_complete)
        finally:
            self.system.runner.builder = original_builder
            if committed < len(prepared):
                for future in pending[committed:]:
                    if future is not None:
                        future.cancel()
                self.system.runner.id_allocator.rewind(prepared[committed][2].first_job)
                checkpoint = checkpoints[committed]
                if checkpoint is not None:
                    cache.rollback(checkpoint)  # type: ignore[union-attr]
        if prepare_error is not None:
            raise prepare_error
        return cells

    def _outcome(
        self,
        position: int,
        prepared: Sequence[Tuple[int, ValidationRequest, PreparedCell]],
        pending: List[Optional[Future]],
        pool: Optional[_CellPool],
    ) -> CellOutcome:
        """The executed cell at *position*, or a :class:`SchedulingError` naming it.

        Cells are committed in index order, so the cells before this one
        are recorded whatever happens to it.
        """
        index, _request, cell = prepared[position]
        try:
            if pool is None:
                return execute_cell(self.system, cell)
            try:
                return pending[position].result()  # type: ignore[union-attr]
            except BrokenProcessPool:
                if pool.isolated:
                    raise
                # A dead worker breaks every cell in flight, and which one
                # killed it is unknown: rerun them one at a time, so that
                # the cells before the culprit still commit and a second
                # death names it.
                pool.isolate()
                for later in range(position, len(prepared)):
                    pending[later] = pool.submit(prepared[later][2])
                return pending[position].result()  # type: ignore[union-attr]
        except Exception as error:
            if isinstance(error, BrokenProcessPool):
                what = "its worker process died"
            else:
                what = (
                    "it failed outside its test executors: "
                    f"{type(error).__name__}: {error}"
                )
            raise SchedulingError(
                f"cell {index} ({cell.experiment} on {cell.configuration_key}): "
                f"{what} (the {index} validation run(s) before it remain "
                "recorded in the catalogue)"
            ) from error

    def _complete(
        self, cell: CampaignCell, on_cell_complete: Optional[CellCallback]
    ) -> None:
        """Announce a committed cell: metric, callback, ``cell_completed``."""
        self.telemetry.metrics.increment(
            "scheduler_cells_total", backend=self.backend.name
        )
        if on_cell_complete is not None:
            on_cell_complete(cell)
        # Emitted from the deterministic cell pass — not from the
        # wall-clock dispatch — so the per-cell event order is identical
        # on every backend (the parity-tested contract).
        if self.lifecycle is not None:
            self.lifecycle.emit(
                EVENT_CELL_COMPLETED,
                campaign_id=self.campaign_id,
                payload={
                    "cell_index": cell.index,
                    "experiment": cell.experiment,
                    "configuration_key": cell.configuration_key,
                    "run_id": cell.run.run_id,
                    "passed": cell.result.successful,
                },
                subjects={"cell": cell},
            )

    # -- DAG derivation --------------------------------------------------------
    def _build_dag(
        self, cells: Sequence[CampaignCell], cache: Optional[BuildCache] = None
    ) -> Tuple[CampaignDAG, Dict[str, BuildTask]]:
        """Derive the campaign DAG, with task durations from the executed runs.

        Alongside the DAG, every build task whose compile job ran gets a
        payload — a re-executable :class:`~repro.buildsys.builder.BuildTask`
        the real executor runs in a child process (builds are pure functions
        of the package content digest, so the concurrent re-execution is
        race-free and digest-checked against the recorded result).  Test and
        chain tasks carry no payload.
        """
        dag = CampaignDAG()
        payloads: Dict[str, BuildTask] = {}
        build_builder = self._real_build_builder()
        # The build order depends on the experiment only; compute it once
        # instead of once per matrix cell.
        build_orders: Dict[str, List[str]] = {}
        for cell in cells:
            experiment = self.system.experiment(cell.experiment)
            if cell.experiment not in build_orders:
                build_orders[cell.experiment] = DependencyGraph(
                    experiment.inventory
                ).build_order()
            self._add_cell_tasks(
                dag,
                payloads,
                cell,
                experiment,
                build_orders[cell.experiment],
                cache,
                build_builder,
            )
        return dag, payloads

    def _real_build_builder(self) -> Optional[PackageBuilder]:
        """A builder safe to re-execute builds with in child processes.

        Only a plain :class:`PackageBuilder` (possibly hiding under the
        caching wrapper) is known to be a stateless pure function; a custom
        builder subclass (e.g. a stateful fault injector) returns None and
        its build tasks carry no payload.
        """
        builder = self._unwrap_builder(self.system.runner.builder)
        if type(builder) is PackageBuilder:
            return PackageBuilder(checker=builder.checker)
        return None

    def _add_cell_tasks(
        self,
        dag: CampaignDAG,
        payloads: Dict[str, BuildTask],
        cell: CampaignCell,
        experiment: ExperimentDefinition,
        build_order: Sequence[str],
        cache: Optional[BuildCache],
        build_builder: Optional[PackageBuilder],
    ) -> None:
        run = cell.run
        prefix = f"c{cell.index:04d}"
        build_ids: Dict[str, str] = {}
        configuration = self.system.configuration(cell.configuration_key)
        for name in build_order:
            package = experiment.inventory.get(name)
            job = run.job_for(f"compile-{name}")
            task_id = f"{prefix}:build:{name}"
            dag.add(
                CampaignTask(
                    task_id=task_id,
                    kind=TaskKind.BUILD,
                    cell_index=cell.index,
                    experiment=cell.experiment,
                    configuration_key=cell.configuration_key,
                    duration_seconds=job.duration_seconds,
                    dependencies=tuple(
                        build_ids[dependency] for dependency in package.dependencies
                    ),
                )
            )
            # A skipped compile job never ran build_package during the cell
            # pass, so there is nothing to re-execute for it.
            if build_builder is not None and job.status is not JobStatus.SKIPPED:
                expected = None
                # The digest only matters to a backend that really runs the
                # payload; skip the replay-and-hash work for simulators.
                if cache is not None and self.backend.executes_payloads:
                    recorded = cache.peek(package, configuration)
                    if recorded is not None:
                        expected = build_result_digest(recorded)
                payloads[task_id] = BuildTask(
                    package=package,
                    configuration=configuration,
                    builder=build_builder,
                    expected_digest=expected,
                )
            build_ids[name] = task_id
        # Tests start once the cell's compilation phase is complete, exactly
        # as the validation runner sequences its phases.
        all_builds = tuple(build_ids.values())
        for batch_index, batch in enumerate(
            chunked(experiment.standalone_tests, self.batch_size)
        ):
            task_id = f"{prefix}:standalone-batch:{batch_index:03d}"
            dag.add(
                CampaignTask(
                    task_id=task_id,
                    kind=TaskKind.TEST_BATCH,
                    cell_index=cell.index,
                    experiment=cell.experiment,
                    configuration_key=cell.configuration_key,
                    duration_seconds=sum(
                        run.job_for(test.name).duration_seconds for test in batch
                    ),
                    dependencies=all_builds,
                    n_tests=len(batch),
                )
            )
        for chain in experiment.chains:
            previous: Optional[str] = None
            for step in chain.steps:
                task_id = f"{prefix}:chain:{step.name}"
                dag.add(
                    CampaignTask(
                        task_id=task_id,
                        kind=TaskKind.CHAIN_STEP,
                        cell_index=cell.index,
                        experiment=cell.experiment,
                        configuration_key=cell.configuration_key,
                        duration_seconds=run.job_for(step.name).duration_seconds,
                        dependencies=(previous,) if previous is not None else all_builds,
                    )
                )
                previous = task_id


class _CellPool:
    """The ``fork`` process pool that runs cells' test phases.

    Its children are forked from the campaign's process and execute cells
    against their copy of the system (see :mod:`repro.core.cellpass`).
    """

    def __init__(self, system: "SPSystem", size: int) -> None:
        self.system = system
        #: True once a worker died and the pool was reduced to one worker.
        self.isolated = False
        self._executor = self._start(size)

    def _start(self, size: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=size,
            mp_context=multiprocessing.get_context("fork"),
            initializer=adopt_system,
            initargs=(self.system,),
        )

    def submit(self, cell: PreparedCell) -> Future:
        return self._executor.submit(execute_forked_cell, cell)

    def isolate(self) -> None:
        """Replace the broken pool by a one-worker pool (cells run one at a time)."""
        self._executor.shutdown(wait=True, cancel_futures=True)
        self._executor = self._start(1)
        self.isolated = True

    def shutdown(self) -> None:
        self._executor.shutdown(wait=True, cancel_futures=True)


__all__ = [
    "DEFAULT_BATCH_SIZE",
    "CellCallback",
    "CampaignCell",
    "CampaignResult",
    "CampaignScheduler",
]
