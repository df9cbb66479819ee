"""Backend-level regression tests: slot reporting and the failure contract.

Two bugs are pinned here.  First, ``PoolSchedule.slots_per_worker`` used to
report the worker profile's raw ``cpu_cores`` even when memory or disk was
the binding constraint — inflating ``total_slots`` and
``available_slot_seconds`` and so deflating ``utilisation`` for any
memory-bound profile.  Every backend must now report the *effective* slot
count, ``min(cpu, memory, disk)`` in task units.  Second, a failing payload
used to abort the campaign with an anonymous :class:`SchedulingError`; the
process backend must name the failing task and cancel still-queued work.
"""

import pytest

from repro._common import SchedulingError
from repro.buildsys.builder import BuildTask, PackageBuilder
from repro.core.runner import RunnerSettings
from repro.core.spsystem import SPSystem
from repro.experiments import build_hermes_experiment
from repro.scheduler.backends import (
    EXECUTION_BACKENDS,
    ExecutionRequest,
    ProcessPoolBackend,
    execution_backend,
)
from repro.scheduler.campaign import CampaignScheduler
from repro.scheduler.dag import CampaignDAG, CampaignTask, TaskKind
from repro.scheduler.pool import (
    SimulatedWorkerPool,
    effective_slots_per_worker,
)
from repro.virtualization.resources import VALIDATION_VM_PROFILE, ResourceProfile

KEYS = ["SL5_64bit_gcc4.4", "SL6_64bit_gcc4.4"]

#: Four cores but only 2 GB of memory: with one core and 1 GB per task,
#: memory binds the worker to two concurrent tasks, not four.
MEMORY_BOUND_PROFILE = ResourceProfile(cpu_cores=4, memory_gb=2.0, disk_gb=100.0)


def _fresh_system(seed=20131029):
    system = SPSystem(
        runner_settings=RunnerSettings(simulated_seconds_per_test=30.0, seed=seed)
    )
    system.provision_standard_images()
    system.register_experiment(build_hermes_experiment(scale=0.2))
    return system


def _tiny_dag():
    """One cell: a build task feeding a test batch."""
    dag = CampaignDAG()
    dag.add(
        CampaignTask(
            task_id="c0000:build:alpha",
            kind=TaskKind.BUILD,
            cell_index=0,
            experiment="HERMES",
            configuration_key=KEYS[0],
            duration_seconds=10.0,
        )
    )
    dag.add(
        CampaignTask(
            task_id="c0000:standalone-batch:000",
            kind=TaskKind.TEST_BATCH,
            cell_index=0,
            experiment="HERMES",
            configuration_key=KEYS[0],
            duration_seconds=5.0,
            dependencies=("c0000:build:alpha",),
        )
    )
    return dag


class TestEffectiveSlotArithmetic:
    def test_cpu_bound_profile(self):
        # The standard VM: 2 cores, 4 GB, 100 GB -> the cores bind.
        assert effective_slots_per_worker(VALIDATION_VM_PROFILE) == 2

    def test_memory_bound_profile(self):
        assert effective_slots_per_worker(MEMORY_BOUND_PROFILE) == 2

    def test_disk_bound_profile(self):
        # 10 GB of disk holds two 5 GB task sandboxes, regardless of cores.
        profile = ResourceProfile(cpu_cores=8, memory_gb=16.0, disk_gb=10.0)
        assert effective_slots_per_worker(profile) == 2


class TestSlotReportingRegression:
    """slots_per_worker must be the effective count, not raw cpu_cores."""

    def _memory_bound_campaign(self, backend):
        system = _fresh_system()
        scheduler = CampaignScheduler(
            system,
            workers=2,
            worker_profile=MEMORY_BOUND_PROFILE,
            backend=backend,
        )
        return scheduler.run(["HERMES"], KEYS)

    @pytest.mark.parametrize("backend", ["simulated", "processes"])
    def test_memory_bound_profile_reports_effective_slots(self, backend):
        schedule = self._memory_bound_campaign(backend).schedule
        # min(4 cores, 2 GB / 1 GB, 100 GB / 5 GB) = 2, not cpu_cores = 4.
        assert schedule.slots_per_worker == 2
        assert schedule.total_slots == 4
        assert schedule.backend == backend

    @pytest.mark.parametrize("backend", ["simulated", "processes"])
    def test_memory_bound_utilisation_is_a_fraction(self, backend):
        """The inflated denominator used to push utilisation far below 1."""
        schedule = self._memory_bound_campaign(backend).schedule
        assert 0.0 < schedule.utilisation <= 1.0
        assert schedule.available_slot_seconds == pytest.approx(
            schedule.makespan_seconds * schedule.total_slots
        )

    def test_simulated_pool_reports_effective_slots_directly(self):
        pool = SimulatedWorkerPool(2, profile=MEMORY_BOUND_PROFILE)
        schedule = pool.execute(_tiny_dag())
        assert schedule.slots_per_worker == 2
        assert schedule.total_slots == 4

    def test_oversubscribed_spec_slots_are_capped_by_memory(self):
        """A spec asking for 8 slots gets the memory-capped effective count.

        ``CampaignSpec.slots_per_worker`` only raises the profile's core
        count; the 4 GB of memory still caps the worker at 4 tasks, and the
        schedule must say so instead of echoing the requested 8.
        """
        from repro.scheduler.spec import CampaignSpec

        system = _fresh_system()
        campaign = system.submit(
            CampaignSpec(
                configuration_keys=tuple(KEYS),
                workers=2,
                slots_per_worker=8,
                persist_spec=False,
            )
        ).result()
        assert campaign.schedule.slots_per_worker == 4


class TestFailureContract:
    """A diverging build names its task and cancels still-queued work."""

    @staticmethod
    def _diverging_request(sp_system, tiny_hermes, workers=1):
        """The tiny DAG whose build task reproduces the wrong digest."""
        sp_system.register_experiment(tiny_hermes)
        bad = BuildTask(
            package=tiny_hermes.inventory.all()[0],
            configuration=sp_system.configuration(KEYS[0]),
            builder=PackageBuilder(),
            expected_digest="not-the-digest",
        )
        return ExecutionRequest(
            dag=_tiny_dag(),
            workers=workers,
            payloads={"c0000:build:alpha": bad},
        )

    @pytest.mark.parametrize("backend_name", ["processes"])
    def test_pool_backend_failure_names_the_task(
        self, backend_name, sp_system, tiny_hermes
    ):
        backend = execution_backend(backend_name)
        with pytest.raises(SchedulingError) as error:
            backend.execute(self._diverging_request(sp_system, tiny_hermes))
        message = str(error.value)
        assert "c0000:build:alpha" in message
        assert backend_name in message
        assert "still-queued tasks were cancelled" in message
        assert "diverged from the recorded result" in message

    def test_process_backend_names_task_of_diverging_child_build(
        self, sp_system, tiny_hermes
    ):
        """A child-process digest mismatch surfaces with the task's name."""
        with pytest.raises(SchedulingError) as error:
            ProcessPoolBackend().execute(
                self._diverging_request(sp_system, tiny_hermes)
            )
        message = str(error.value)
        assert "c0000:build:alpha" in message
        assert "BuildError" in message

    def test_failed_build_is_not_counted_as_run(self, sp_system, tiny_hermes):
        """The parent counts a build as run only once its digest checked out."""
        request = self._diverging_request(sp_system, tiny_hermes, workers=2)
        with pytest.raises(SchedulingError):
            ProcessPoolBackend().execute(request)
        assert request.payloads["c0000:build:alpha"].runs == 0

    @pytest.mark.parametrize("backend_name", ["processes"])
    def test_wall_clock_backends_reject_failure_injection(self, backend_name):
        from repro.scheduler.pool import WorkerFailure

        request = ExecutionRequest(
            dag=_tiny_dag(),
            workers=1,
            failures=(WorkerFailure(worker_index=0, at_seconds=1.0),),
        )
        with pytest.raises(SchedulingError, match="simulated backend"):
            execution_backend(backend_name).execute(request)

    def test_registry_knows_both_backends(self):
        assert set(EXECUTION_BACKENDS) == {"simulated", "processes"}
        assert isinstance(execution_backend("processes"), ProcessPoolBackend)
        for removed in ("threads", "sharded"):
            with pytest.raises(SchedulingError, match="known: processes, simulated"):
                execution_backend(removed)
