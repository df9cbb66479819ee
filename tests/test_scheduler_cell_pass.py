"""The campaign cell pass: compile, execute (inline or pooled), commit.

A campaign compiles every cell of a round in the parent, runs the cells'
test phases in forked pool workers when it has two or more worker slots
and CPUs, and commits the outcomes in matrix order.  These tests pin what
happens when that goes wrong: a failing cell is named, the cells committed
before it stay recorded, the pool is shut down, and a campaign stopped
part-way leaves exactly the state of a campaign that only ever ran the
committed cells.
"""

import multiprocessing
import os

import pytest

from repro._common import SchedulingError
from repro.core.cellpass import execute_cell
from repro.core.runner import RunnerSettings, cell_job_count, default_numeric_context
from repro.core.spsystem import SPSystem
from repro.experiments import build_hermes_experiment
from repro.scheduler.lifecycle import EVENT_CELL_COMPLETED, EarlyStopPolicy
from repro.scheduler.spec import CampaignSpec, ValidationRequest
from repro.storage.bookkeeping import JobIdAllocator

KEYS = ("SL5_64bit_gcc4.4", "SL6_64bit_gcc4.4", "SL5_32bit_gcc4.4")

#: Whether campaigns with two workers run their cells in a process pool here.
POOLED = (
    "fork" in multiprocessing.get_all_start_methods()
    and (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1
    )
    >= 2
)


def _system(numeric_context_factory=default_numeric_context):
    system = SPSystem(
        runner_settings=RunnerSettings(simulated_seconds_per_test=30.0),
        numeric_context_factory=numeric_context_factory,
    )
    system.provision_standard_images()
    system.register_experiment(build_hermes_experiment(scale=0.2))
    return system


def _results(system):
    return {key: system.storage.get("results", key) for key in system.storage.keys("results")}


class TestCellSteps:
    def test_allocator_reserves_and_rewinds(self):
        allocator = JobIdAllocator()
        first = allocator.reserve(3)
        assert first == 1 and allocator.allocate() == "sp-000004"
        allocator.rewind(first)
        assert allocator.allocate() == "sp-000001"

    def test_execute_leaves_the_system_untouched(self):
        system = _system()
        cell = system.prepare_cell("HERMES", KEYS[0])
        experiment = system.experiment("HERMES")
        next_id, now = system.id_allocator.allocated_count, system.clock.now
        documents = system.storage.total_documents()
        outcome = execute_cell(system, cell)
        assert system.id_allocator.allocated_count == next_id
        assert system.clock.now == now
        assert system.storage.total_documents() == documents
        # The outcome uses exactly the reserved IDs, on a clock from 0.
        assert next_id == cell.first_job + cell_job_count(experiment) - 1
        assert outcome.run.run_id == f"sp-{cell.first_job:06d}"
        assert outcome.run.started_at == 0
        assert len(outcome.puts) == len(outcome.run.jobs) - outcome.run.n_skipped
        # Committing it is what validate() would have produced.
        result = system.commit_cell(cell, outcome)
        reference = _system().validate("HERMES", KEYS[0])
        assert result.run.to_document() == reference.run.to_document()


@pytest.mark.parametrize("workers", [1, 2])
def test_a_cell_failing_outside_its_executors_is_named(workers):
    """An error outside the runner's executor try names the cell."""

    def numerics(configuration):
        if configuration.key == KEYS[1]:
            raise ValueError(f"no numerics for {configuration.key}")
        return default_numeric_context(configuration)

    system = _system(numerics)
    with pytest.raises(SchedulingError) as caught:
        system.submit(
            CampaignSpec(configuration_keys=KEYS, workers=workers, persist_spec=False)
        )
    message = str(caught.value)
    assert "cell 1 (HERMES on SL6_64bit_gcc4.4)" in message
    assert "ValueError: no numerics for SL6_64bit_gcc4.4" in message
    assert "the 1 validation run(s) before it remain recorded" in message
    # The cell before it is committed; nothing after it is.
    assert [record.configuration_key for record in system.catalog.all()] == [KEYS[0]]
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not POOLED, reason="needs fork and two CPUs for a pooled cell pass")
def test_a_dead_worker_is_named_and_the_pool_shut_down():
    """A test executor killing its worker process fails only its own cell."""
    system = _system()
    test = system.experiment("HERMES").standalone_tests[0]
    executor = test.executor

    def crash_on_sl6(context):
        if context.configuration.key == KEYS[1]:
            os._exit(1)
        return executor(context)

    test.executor = crash_on_sl6
    with pytest.raises(SchedulingError) as caught:
        system.submit(
            CampaignSpec(configuration_keys=KEYS, workers=2, persist_spec=False)
        )
    message = str(caught.value)
    assert "cell 1 (HERMES on SL6_64bit_gcc4.4): its worker process died" in message
    assert [record.configuration_key for record in system.catalog.all()] == [KEYS[0]]
    assert multiprocessing.active_children() == []
    # The uncommitted cells' job IDs are free again.
    first_uncommitted = 1 + cell_job_count(system.experiment("HERMES"))
    assert system.id_allocator.allocated_count == first_uncommitted - 1


class _StopAfter(EarlyStopPolicy):
    """Stops the campaign on the k-th ``cell_completed``."""

    name = "stop-after"

    def __init__(self, cells):
        self.cells = cells
        self.seen = 0

    def should_stop(self, event, context):
        if event.name != EVENT_CELL_COMPLETED:
            return None
        self.seen += 1
        return f"stopped after {self.cells} cells" if self.seen == self.cells else None


class _CallbackFailure(Exception):
    pass


@pytest.mark.parametrize("interrupt", ["policy", "callback"])
@pytest.mark.parametrize("workers", [1, 2])
def test_interrupted_campaign_equals_the_campaign_of_its_committed_cells(
    workers, interrupt
):
    """Stopping at a commit undoes the cells compiled ahead of it.

    Three cells per round over two rounds; the campaign stops when cell 4
    (the second cell of round two) completes, so cell 5 was compiled — a
    build-cache hit — but never committed.  Afterwards the allocator, the
    clock, the catalogue, the results documents and the whole build cache
    equal those of a campaign that only ever ran the first four cells.
    """
    committed = 4
    spec = CampaignSpec(
        configuration_keys=KEYS, workers=workers, rounds=2, persist_spec=False
    )
    stopped = _system()
    callback = None
    if interrupt == "policy":
        stopped.lifecycle.add_policy(_StopAfter(committed))
        expected = SchedulingError
    else:
        def callback(cell):
            if cell.index == committed - 1:
                raise _CallbackFailure(cell.index)

        expected = _CallbackFailure
    with pytest.raises(expected):
        stopped.submit(spec, on_cell_complete=callback)

    requests = [ValidationRequest("HERMES", key) for key in KEYS] * 2
    reference = _system()
    reference.submit(
        CampaignSpec(requests=tuple(requests[:committed]), workers=workers, persist_spec=False)
    ).result()

    assert stopped.id_allocator.allocated_count == reference.id_allocator.allocated_count
    assert stopped.clock.now == reference.clock.now
    assert [record.to_dict() for record in stopped.catalog.all()] == [
        record.to_dict() for record in reference.catalog.all()
    ]
    assert _results(stopped) == _results(reference)
    stopped_cache = stopped.effective_build_cache()
    reference_cache = reference.effective_build_cache()
    assert stopped_cache.statistics == reference_cache.statistics
    assert stopped_cache.checkpoint() == reference_cache.checkpoint()
    assert multiprocessing.active_children() == []
