"""The dispatch contract shared by the timeline model and the real executor.

``simulated`` (the event-driven timeline model) and ``processes`` (the
wall-clock process pool) are the two execution backends.  They differ in
what their timestamps mean, never in what they dispatch: every task runs
exactly once and only after its dependencies, the scheduling policy orders
the ready queue, capacity is ``workers x effective slots``, and a deadline
overrun reaches the lifecycle bus once.  Each test here runs against both
backends so the two cannot drift apart; the process backend's payload
accounting (one digest-checked run per build task) is pinned at the end.
"""

import pytest

from repro._common import SchedulingError
from repro.buildsys.builder import BuildTask, PackageBuilder, build_result_digest
from repro.scheduler.backends import (
    EXECUTION_BACKENDS,
    ExecutionRequest,
    ProcessPoolBackend,
    SimulatedBackend,
    execution_backend,
)
from repro.scheduler.dag import CampaignDAG, CampaignTask, TaskKind
from repro.scheduler.lifecycle import (
    EVENT_DEADLINE_EXCEEDED,
    DeadlineAbortPolicy,
    PluginRegistry,
)
from repro.scheduler.pool import SCHEDULING_POLICIES, effective_slots_per_worker
from repro.telemetry import Telemetry
from repro.virtualization.resources import VALIDATION_VM_PROFILE, ResourceProfile

BACKENDS = sorted(EXECUTION_BACKENDS)

KEY = "SL5_64bit_gcc4.4"

#: One core per worker: a single worker then runs one task at a time, so
#: the dispatch order is directly visible in the timeline.
SINGLE_SLOT_PROFILE = ResourceProfile(cpu_cores=1, memory_gb=4.0, disk_gb=100.0)


def _task(task_id, duration=5.0, deps=(), cell=0, kind=TaskKind.BUILD):
    return CampaignTask(
        task_id=task_id,
        kind=kind,
        cell_index=cell,
        experiment="HERMES",
        configuration_key=KEY,
        duration_seconds=duration,
        dependencies=tuple(deps),
    )


def _dag(*tasks):
    dag = CampaignDAG()
    for task in tasks:
        dag.add(task)
    return dag


def _chain():
    return _dag(_task("a"), _task("b", deps=["a"]), _task("c", deps=["b"]))


def _diamond():
    return _dag(
        _task("top"),
        _task("left", duration=3.0, deps=["top"]),
        _task("right", duration=7.0, deps=["top"]),
        _task("bottom", deps=["left", "right"]),
    )


def _fan_out():
    return _dag(
        _task("build"),
        *(
            _task(f"batch-{index}", deps=["build"], kind=TaskKind.TEST_BATCH)
            for index in range(5)
        ),
    )


def _independent():
    return _dag(*(_task(f"t{index}", duration=1.0 + index) for index in range(6)))


def _multi_cell():
    tasks = []
    for cell in range(3):
        build = f"c{cell:04d}:build"
        tasks.append(_task(build, cell=cell))
        tasks.append(
            _task(
                f"c{cell:04d}:batch",
                deps=[build],
                cell=cell,
                kind=TaskKind.TEST_BATCH,
            )
        )
    return _dag(*tasks)


DAG_SHAPES = {
    "chain": _chain,
    "diamond": _diamond,
    "fan-out": _fan_out,
    "independent": _independent,
    "multi-cell": _multi_cell,
}


def _policy_dag():
    """Three ready tasks whose dispatch order differs under every policy.

    ``a`` is short but heads a long chain (``a -> d``), ``b`` is the
    longest ready task and ``c`` sits in between.
    """
    return _dag(
        _task("a", duration=5.0),
        _task("b", duration=20.0),
        _task("c", duration=10.0),
        _task("d", duration=100.0, deps=["a"]),
    )


#: Dispatch order of :func:`_policy_dag` on a single slot, per policy.
POLICY_ORDER = {
    "fifo": ["a", "b", "c", "d"],
    "longest-first": ["b", "c", "a", "d"],
    "critical-path": ["a", "d", "b", "c"],
}


class TestRegistry:
    def test_policy_table_covers_every_registered_policy(self):
        assert set(POLICY_ORDER) == set(SCHEDULING_POLICIES)

    @pytest.mark.parametrize(
        "backend, executes", [("simulated", False), ("processes", True)]
    )
    def test_only_the_real_executor_runs_payloads(self, backend, executes):
        assert execution_backend(backend).executes_payloads is executes

    def test_default_backend_is_the_timeline_model(self):
        assert isinstance(execution_backend(None), SimulatedBackend)


class TestDispatchContract:
    @pytest.mark.parametrize("shape", sorted(DAG_SHAPES))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_task_runs_once_after_its_dependencies(self, backend, shape):
        dag = DAG_SHAPES[shape]()
        schedule = execution_backend(backend).execute(
            ExecutionRequest(dag=dag, workers=2)
        )
        assert schedule.backend == backend
        by_id = {a.task_id: a for a in schedule.assignments}
        assert len(by_id) == len(schedule.assignments)
        assert sorted(by_id) == sorted(task.task_id for task in dag.tasks())
        for task in dag.tasks():
            for dependency in task.dependencies:
                assert by_id[task.task_id].start_seconds >= by_id[dependency].end_seconds
        assert all(0 <= a.worker_index < 2 for a in schedule.assignments)
        assert all(a.attempt == 1 for a in schedule.assignments)
        assert set(schedule.cell_end_seconds) == {task.cell_index for task in dag.tasks()}
        assert schedule.makespan_seconds >= max(a.end_seconds for a in schedule.assignments)
        assert schedule.n_retries == 0
        assert schedule.failed_workers == ()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_wide_dag_fills_every_slot_and_no_more(self, backend, workers):
        slots = effective_slots_per_worker(VALIDATION_VM_PROFILE)
        dag = _dag(*(_task(f"t{index:02d}") for index in range(3 * workers * slots)))
        schedule = execution_backend(backend).execute(
            ExecutionRequest(dag=dag, workers=workers)
        )
        assert schedule.n_workers == workers
        assert schedule.slots_per_worker == slots
        assert schedule.peak_concurrent_tasks == workers * slots
        assert sorted(schedule.busy_seconds_per_worker) == list(range(workers))

    @pytest.mark.parametrize("policy", sorted(POLICY_ORDER))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_slot_dispatch_follows_the_policy(self, backend, policy):
        schedule = execution_backend(backend).execute(
            ExecutionRequest(
                dag=_policy_dag(),
                workers=1,
                worker_profile=SINGLE_SLOT_PROFILE,
                policy=policy,
            )
        )
        assert schedule.policy == policy
        assert schedule.peak_concurrent_tasks == 1
        started = sorted(
            schedule.assignments, key=lambda a: (a.start_seconds, a.end_seconds)
        )
        assert [a.task_id for a in started] == POLICY_ORDER[policy]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_dag_yields_an_empty_timeline(self, backend):
        schedule = execution_backend(backend).execute(
            ExecutionRequest(dag=CampaignDAG(), workers=2)
        )
        assert schedule.assignments == []
        assert schedule.makespan_seconds == 0.0
        assert schedule.cell_end_seconds == {}


class TestRequestValidation:
    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"workers": 0}, "at least one worker"),
            ({"deadline_seconds": 0.0}, "deadline must be positive"),
            ({"deadline_seconds": -5.0}, "deadline must be positive"),
        ],
        ids=["no-workers", "zero-deadline", "negative-deadline"],
    )
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_invalid_requests_are_rejected(self, backend, overrides, message):
        request = ExecutionRequest(dag=_chain(), **overrides)
        with pytest.raises(SchedulingError, match=message):
            execution_backend(backend).execute(request)

    def test_process_backend_rejects_a_profile_without_a_task_slot(self):
        # Half a gigabyte cannot hold a single 1 GB campaign task.
        starved = ResourceProfile(cpu_cores=2, memory_gb=0.5, disk_gb=100.0)
        assert effective_slots_per_worker(starved) == 0
        with pytest.raises(SchedulingError, match="cannot accommodate"):
            ProcessPoolBackend().execute(
                ExecutionRequest(dag=_chain(), worker_profile=starved)
            )


class TestDeadlineNotification:
    @staticmethod
    def _overrun_request(backend, registry):
        # The simulated chain takes 15 simulated seconds; no wall-clock
        # dispatch finishes within a nanosecond.
        deadline = 1.0 if backend == "simulated" else 1e-9
        return ExecutionRequest(
            dag=_chain(),
            deadline_seconds=deadline,
            lifecycle=registry,
            campaign_id="campaign-0042",
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_an_overrun_emits_one_event_naming_the_backend(self, backend):
        registry = PluginRegistry()
        schedule = execution_backend(backend).execute(
            self._overrun_request(backend, registry)
        )
        assert len(schedule.assignments) == 3
        [event] = [e for e in registry.events if e.name == EVENT_DEADLINE_EXCEEDED]
        assert event.campaign_id == "campaign-0042"
        assert event.payload["backend"] == backend
        assert event.payload["elapsed_seconds"] > event.payload["deadline_seconds"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_an_abort_policy_stops_the_dispatch(self, backend):
        registry = PluginRegistry()
        registry.add_policy(DeadlineAbortPolicy())
        with pytest.raises(
            SchedulingError, match=f"campaign aborted on the {backend} backend"
        ):
            execution_backend(backend).execute(self._overrun_request(backend, registry))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_no_event_without_a_deadline(self, backend):
        registry = PluginRegistry()
        execution_backend(backend).execute(
            ExecutionRequest(dag=_chain(), lifecycle=registry)
        )
        assert registry.events == []


class TestDispatchTelemetry:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dispatch_counts_its_tasks_under_the_backend_label(self, backend):
        telemetry = Telemetry.create()
        dag = _fan_out()
        execution_backend(backend).execute(
            ExecutionRequest(dag=dag, workers=2, telemetry=telemetry)
        )
        assert telemetry.metrics.counter_value(
            "tasks_executed_total", backend=backend
        ) == len(dag.tasks())
        categories = {span.category for span in telemetry.tracer.spans}
        assert categories == {"dispatch"}


class TestProcessPayloads:
    @staticmethod
    def _builds(sp_system, tiny_hermes, expected=True, count=2):
        sp_system.register_experiment(tiny_hermes)
        configuration = sp_system.configuration(KEY)
        builder = PackageBuilder()
        builds = {}
        for index, package in enumerate(tiny_hermes.inventory.all()[:count]):
            digest = None
            if expected:
                digest = build_result_digest(
                    builder.build_package(package, configuration)
                )
            builds[f"c0000:build:{index}"] = BuildTask(
                package=package,
                configuration=configuration,
                builder=builder,
                expected_digest=digest,
            )
        return builds

    @staticmethod
    def _request(builds):
        tasks = [_task(task_id) for task_id in builds]
        tasks.append(
            _task("c0000:batch", deps=list(builds), kind=TaskKind.TEST_BATCH)
        )
        return ExecutionRequest(dag=_dag(*tasks), workers=2, payloads=builds)

    def test_every_digest_checked_build_runs_exactly_once(
        self, sp_system, tiny_hermes
    ):
        builds = self._builds(sp_system, tiny_hermes)
        schedule = ProcessPoolBackend().execute(self._request(builds))
        assert len(schedule.assignments) == len(builds) + 1
        assert all(build.expected_digest for build in builds.values())
        assert [build.runs for build in builds.values()] == [1] * len(builds)

    def test_a_build_without_expected_digest_still_counts_its_run(
        self, sp_system, tiny_hermes
    ):
        builds = self._builds(sp_system, tiny_hermes, expected=False, count=1)
        ProcessPoolBackend().execute(self._request(builds))
        assert [build.runs for build in builds.values()] == [1]

    def test_the_timeline_model_never_runs_a_payload(self, sp_system, tiny_hermes):
        builds = self._builds(sp_system, tiny_hermes)
        schedule = SimulatedBackend().execute(self._request(builds))
        assert len(schedule.assignments) == len(builds) + 1
        assert [build.runs for build in builds.values()] == [0] * len(builds)
