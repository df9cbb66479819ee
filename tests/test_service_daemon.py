"""Tests for the validation-as-a-service daemon.

The contract under test is the ISSUE's acceptance story: many tenants
submitting concurrently through the queue must get exactly the validation
results a serial operator would have produced — fair-share scheduling and
rate limiting decide *order and admission*, never *content*.  The stress
test at the bottom drives a three-tenant, 100+-campaign interleaved run
from real threads and pins the run documents byte-for-byte against a
serial replay; the smaller tests cover usage accounting, donated-build
attribution, cancellation, rate-limit rejection with retry-after,
restart resume from the persisted queue, the supervised heartbeat worker
and the live dashboard page.
"""

import threading
import time

import pytest

from repro._common import SchedulingError
from repro.core.runner import RunnerSettings
from repro.core.spsystem import SPSystem
from repro.experiments import build_hermes_experiment, build_zeus_experiment
from repro.scheduler.lifecycle import (
    EVENT_HEARTBEAT,
    EVENT_SUBMISSION_CANCELLED,
    EVENT_SUBMISSION_QUEUED,
    EVENT_SUBMISSION_STARTED,
    EVENT_TENANT_THROTTLED,
)
from repro.scheduler.spec import CampaignSpec
from repro.service import (
    SERVICE_NAMESPACE,
    ServiceRateLimited,
    HeartbeatWorker,
    TenantPolicy,
    ValidationService,
    cancel_persisted,
    load_submissions,
)
from repro.storage.common_storage import CommonStorage


KEY = "SL6_64bit_gcc4.4"


def _fresh_system(storage=None):
    system = SPSystem(
        runner_settings=RunnerSettings(simulated_seconds_per_test=30.0),
        storage=storage,
    )
    system.provision_standard_images()
    system.register_experiment(
        build_zeus_experiment(scale=0.15, shared_externals=True)
    )
    system.register_experiment(
        build_hermes_experiment(scale=0.2, shared_externals=True)
    )
    return system


def _cell_spec(experiment, key=KEY):
    return CampaignSpec(
        experiments=(experiment,),
        configuration_keys=(key,),
        workers=1,
        persist_spec=False,
    )


def _quiet_service(system, **overrides):
    options = dict(dashboard=False, heartbeat_every=0)
    options.update(overrides)
    return ValidationService(system, **options)


def _events(system, name):
    return [event for event in system.lifecycle.events if event.name == name]


class TestServiceDispatch:
    def test_drain_completes_submissions_and_bills_usage(self):
        system = _fresh_system()
        service = ValidationService(
            system,
            tenants=[TenantPolicy("alice", weight=2), TenantPolicy("bob")],
        )
        for _ in range(2):
            service.submit("alice", _cell_spec("ZEUS"))
        service.submit("bob", _cell_spec("HERMES"))
        processed = service.run_pending()

        assert [item.status for item in processed] == ["completed"] * 3
        assert all(item.campaign_id for item in processed)
        # Every cell executed is billed to exactly one tenant.
        assert service.ledger.total_cells() == sum(
            item.cells for item in processed
        ) == 3
        assert service.ledger.usage("alice").completed == 2
        assert service.ledger.usage("bob").completed == 1
        assert service.ledger.usage("alice").build_seconds > 0
        # Lifecycle telemetry: queued/started per submission, heartbeats on.
        assert len(_events(system, EVENT_SUBMISSION_QUEUED)) == 3
        assert len(_events(system, EVENT_SUBMISSION_STARTED)) == 3
        assert len(_events(system, EVENT_HEARTBEAT)) == 3
        # Final records persisted, queue documents retired.
        assert len(system.storage.keys(
            SERVICE_NAMESPACE, prefix=ValidationService.RECORD_PREFIX
        )) == 3
        assert not system.storage.keys(
            SERVICE_NAMESPACE, prefix=ValidationService.QUEUED_PREFIX
        )
        # The live dashboard rendered on every heartbeat.
        page = system.storage.get("reports", "service")["html"]
        assert "Validation service" in page
        assert "alice" in page and "bob" in page

    def test_fair_share_order_and_priority_lane(self):
        system = _fresh_system()
        service = _quiet_service(system)
        service.register_tenant(TenantPolicy("alice", weight=2))
        service.register_tenant(TenantPolicy("bob"))
        for _ in range(4):
            service.submit("alice", _cell_spec("ZEUS"))
        for _ in range(2):
            service.submit("bob", _cell_spec("HERMES"))
        urgent = service.submit("bob", _cell_spec("HERMES"), priority="high")

        processed = service.run_pending()
        order = [item.tenant for item in processed]
        # The high-priority submission dispatches first, then the weighted
        # rotation over the normal lane: alice twice per bob.
        assert processed[0].submission_id == urgent.submission_id
        assert order == ["bob", "alice", "alice", "bob", "alice", "alice", "bob"]

    def test_failed_submission_is_recorded_and_queue_continues(self):
        system = _fresh_system()
        service = _quiet_service(system)
        bad = service.submit("alice", _cell_spec("H1"))  # not registered
        good = service.submit("alice", _cell_spec("ZEUS"))
        processed = service.run_pending()

        assert [item.submission_id for item in processed] == [
            bad.submission_id, good.submission_id
        ]
        assert processed[0].status == "failed"
        assert "H1" in (processed[0].error or "")
        assert processed[1].status == "completed"
        assert service.ledger.usage("alice").failed == 1
        assert service.ledger.usage("alice").completed == 1

    def test_cancel_on_the_handle_emits_and_persists(self):
        system = _fresh_system()
        service = _quiet_service(system)
        first = service.submit("alice", _cell_spec("ZEUS"))
        second = service.submit("alice", _cell_spec("ZEUS"))
        cancelled = second.cancel()

        assert cancelled.status == "cancelled"
        assert len(_events(system, EVENT_SUBMISSION_CANCELLED)) == 1
        assert service.ledger.usage("alice").cancelled == 1
        record = system.storage.get(
            SERVICE_NAMESPACE,
            f"{ValidationService.RECORD_PREFIX}{second.submission_id}",
        )
        assert record["status"] == "cancelled"
        processed = service.run_pending()
        assert [item.submission_id for item in processed] == [
            first.submission_id
        ]
        with pytest.raises(SchedulingError):
            service.cancel(first.submission_id)  # already dispatched

    def test_rate_limited_submission_rejected_with_retry_after(self):
        system = _fresh_system()
        clock = {"now": 0.0}
        service = _quiet_service(system, clock=lambda: clock["now"])
        service.register_tenant(
            TenantPolicy("alice", rate_per_second=0.5, burst=1)
        )
        service.submit("alice", _cell_spec("ZEUS"))
        with pytest.raises(ServiceRateLimited) as excinfo:
            service.submit("alice", _cell_spec("ZEUS"))
        assert excinfo.value.retry_after == pytest.approx(2.0)
        assert excinfo.value.tenant == "alice"
        throttled = _events(system, EVENT_TENANT_THROTTLED)
        assert len(throttled) == 1
        assert throttled[0].payload["retry_after_seconds"] == pytest.approx(2.0)
        assert service.ledger.usage("alice").rejected == 1
        # The rejection never queued anything...
        assert service.queue.depth() == 1
        # ...and waiting out the retry-after admits the tenant again.
        clock["now"] += 2.0
        service.submit("alice", _cell_spec("ZEUS"))
        assert service.queue.depth() == 2

    def test_cross_tenant_warm_start_attributes_donated_builds(self):
        system = _fresh_system()
        service = _quiet_service(system)
        service.submit("alice", _cell_spec("ZEUS"))
        service.submit("bob", _cell_spec("HERMES"))
        service.run_pending()

        alice, bob = service.ledger.usage("alice"), service.ledger.usage("bob")
        # bob's HERMES campaign warm-started from the shared externals
        # alice's ZEUS campaign built...
        assert bob.shared_hits > 0
        # ...and the donated builds are credited to alice, the first
        # submitter of the donor experiment.
        assert alice.donated_builds == bob.shared_hits
        assert bob.donated_builds == 0


class TestServiceDurability:
    def test_restart_resumes_the_persisted_queue(self, tmp_path):
        directory = str(tmp_path)
        system = _fresh_system()
        service = _quiet_service(system)
        service.register_tenant(TenantPolicy("alice", weight=2))
        submitted = [
            service.submit("alice", _cell_spec("ZEUS")),
            service.submit("bob", _cell_spec("HERMES")),
            service.submit("alice", _cell_spec("ZEUS")),
        ]
        # The daemon dies before dispatching anything; only the storage
        # survives.
        system.storage.persist(directory)

        reloaded = CommonStorage.load(directory)
        resumed_system = _fresh_system(storage=reloaded)
        resumed = _quiet_service(resumed_system)
        assert resumed.queue.depth() == 3
        # Tenant policies (alice's weight) came back from the ledger.
        assert resumed.ledger.policy("alice").weight == 2
        processed = resumed.run_pending()
        # Fair share over the resumed backlog: alice (weight 2) twice,
        # then bob — per-tenant FIFO preserved from the original arrivals.
        assert [item.submission_id for item in processed] == [
            submitted[0].submission_id,
            submitted[2].submission_id,
            submitted[1].submission_id,
        ]
        assert all(item.status == "completed" for item in processed)
        # New submissions never collide with replayed IDs.
        fresh = resumed.submit("alice", _cell_spec("ZEUS"))
        assert fresh.sequence == 4

    def test_restart_runs_a_submission_persisted_with_a_null_shards_key(
        self, tmp_path
    ):
        """Queued documents written while specs still had ``shards`` load."""
        directory = str(tmp_path)
        system = _fresh_system()
        namespace = system.storage.create_namespace(SERVICE_NAMESPACE)
        namespace.put(
            f"{ValidationService.QUEUED_PREFIX}sub-000001",
            {
                "submission_id": "sub-000001",
                "tenant": "alice",
                "spec": {
                    "experiments": ["ZEUS"],
                    "configuration_keys": [KEY],
                    "requests": None,
                    "description": None,
                    "workers": 1,
                    "slots_per_worker": None,
                    "rounds": 1,
                    "batch_size": 4,
                    "policy": "fifo",
                    "deadline_seconds": None,
                    "backend": "simulated",
                    "shards": None,
                    "failures": [],
                    "warm_start": True,
                    "use_cache": True,
                    "cache_budget_bytes": None,
                    "persist_spec": False,
                    "record_history": None,
                    "plugins": [],
                    "on_deadline": "report",
                    "event_log": None,
                },
                "priority": "normal",
                "sequence": 1,
                "status": "queued",
                "campaign_id": None,
                "error": None,
                "cells": 0,
            },
        )
        system.storage.persist(directory)

        resumed = _quiet_service(_fresh_system(storage=CommonStorage.load(directory)))
        assert resumed.queue.depth() == 1
        [processed] = resumed.run_pending()
        assert processed.submission_id == "sub-000001"
        assert processed.status == "completed"
        assert processed.cells == 1
        assert "shards" not in processed.spec.to_dict()

    def test_storage_level_queue_inspection_and_cancel(self, tmp_path):
        directory = str(tmp_path)
        system = _fresh_system()
        service = _quiet_service(system)
        target = service.submit("alice", _cell_spec("ZEUS"))
        service.submit("alice", _cell_spec("ZEUS"))
        system.storage.persist(directory)

        storage = CommonStorage.load(directory, namespaces=[SERVICE_NAMESPACE])
        queued = load_submissions(storage)
        assert [item.status for item in queued] == ["queued", "queued"]
        cancelled = cancel_persisted(storage, target.submission_id)
        assert cancelled.status == "cancelled"
        storage.persist(directory)

        # The next daemon over this storage never dispatches it.
        resumed = _quiet_service(_fresh_system(storage=CommonStorage.load(directory)))
        assert resumed.queue.depth() == 1
        with pytest.raises(SchedulingError):
            cancel_persisted(storage, target.submission_id)

    def test_empty_storage_has_no_service_state(self):
        assert load_submissions(CommonStorage()) == []
        with pytest.raises(SchedulingError):
            cancel_persisted(CommonStorage(), "sub-000001")


class TestHeartbeatTelemetry:
    def test_manual_beat_publishes_snapshot_and_dashboard(self):
        system = _fresh_system()
        service = ValidationService(system, heartbeat_every=0)
        service.submit("alice", _cell_spec("ZEUS"))
        snapshot = service.beat(source="test")
        assert snapshot["queue_depth"] == 1
        assert snapshot["backlog"] == {"alice": 1}
        assert snapshot["source"] == "test"
        beats = _events(system, EVENT_HEARTBEAT)
        assert len(beats) == 1
        assert beats[0].payload["queue_depth"] == 1
        page = system.storage.get("reports", "service")["html"]
        assert "queue_depth" in page

    def test_worker_beats_in_the_background(self):
        system = _fresh_system()
        service = _quiet_service(system, heartbeat_interval=0.01)
        service.heartbeat.start()
        deadline = time.monotonic() + 5.0
        while service.heartbeat.beats == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        service.heartbeat.stop()
        assert service.heartbeat.beats > 0
        assert not service.heartbeat.alive
        assert _events(system, EVENT_HEARTBEAT)

    def test_worker_self_reports_failures_and_supervise_restarts(self):
        system = _fresh_system()
        service = _quiet_service(system)
        worker = HeartbeatWorker(
            service, interval=0.005, max_consecutive_failures=2
        )
        blown = {"count": 0}

        def poisoned_beat(source="manual"):
            blown["count"] += 1
            raise RuntimeError("poisoned snapshot")

        service.beat = poisoned_beat
        worker.start()
        deadline = time.monotonic() + 5.0
        while worker.alive and time.monotonic() < deadline:
            time.sleep(0.01)
        # The worker died visibly after the failure budget...
        assert not worker.alive
        assert worker.failures >= 2
        assert "poisoned" in (worker.last_error or "")
        status = worker.status()
        assert status["failures"] == worker.failures

        # ...and supervise() brings a healthy worker back.
        del service.beat  # restore the real bound method
        assert worker.supervise()
        assert worker.restarts == 1
        deadline = time.monotonic() + 5.0
        while worker.beats == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        worker.stop()
        assert worker.beats > 0
        # A stopped worker is not restarted.
        assert not worker.supervise()

    def test_serve_forever_supervises_and_stops(self):
        system = _fresh_system()
        service = _quiet_service(system)
        service.submit("alice", _cell_spec("ZEUS"))
        thread = threading.Thread(
            target=service.serve_forever, kwargs={"poll_seconds": 0.01}
        )
        thread.start()
        deadline = time.monotonic() + 10.0
        while (
            service.submission("sub-000001").status != "completed"
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        service.stop()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert service.submission("sub-000001").status == "completed"


class TestServiceStress:
    TENANT_PLANS = {
        "alice": ("ZEUS", 35),
        "bob": ("HERMES", 35),
        "carol": ("ZEUS", 35),
    }

    def test_three_tenant_interleaved_run_matches_serial_replay(self):
        """3 tenants x 35 single-cell campaigns from real threads.

        Concurrent submission through the daemon queue, fair-share drain,
        then a serial replay of the recorded dispatch order on a fresh
        system: run documents and catalog records must be byte-identical,
        the ledger must sum to the cells actually executed, and every
        tenant's own submissions must have dispatched FIFO.
        """
        system = _fresh_system()
        service = _quiet_service(system)
        service.register_tenant(TenantPolicy("alice", weight=2))

        barrier = threading.Barrier(len(self.TENANT_PLANS))
        errors = []

        def submitter(tenant, experiment, count):
            try:
                barrier.wait(timeout=10.0)
                for _ in range(count):
                    service.submit(tenant, _cell_spec(experiment))
            except Exception as error:  # pragma: no cover - diagnostics
                errors.append((tenant, error))

        threads = [
            threading.Thread(target=submitter, args=(tenant, experiment, count))
            for tenant, (experiment, count) in self.TENANT_PLANS.items()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        total = sum(count for _, count in self.TENANT_PLANS.values())
        assert service.queue.depth() == total

        processed = service.run_pending()
        assert len(processed) == total
        assert all(item.status == "completed" for item in processed)

        # Per-tenant FIFO: each tenant's submissions dispatched in their
        # own arrival order, regardless of the global interleaving.
        for tenant in self.TENANT_PLANS:
            sequences = [
                item.sequence for item in processed if item.tenant == tenant
            ]
            assert sequences == sorted(sequences)
            assert len(sequences) == self.TENANT_PLANS[tenant][1]

        # Fair share: while every tenant has backlog, the rotation gives
        # alice (weight 2) two dispatches per bob/carol dispatch.
        assert [item.tenant for item in processed[:8]] == [
            "alice", "alice", "bob", "carol",
            "alice", "alice", "bob", "carol",
        ]

        # The ledger sums to the cells actually executed.
        assert service.ledger.total_cells() == total
        for tenant, (_, count) in self.TENANT_PLANS.items():
            assert service.ledger.usage(tenant).cells == count

        # Byte-identity: replay the recorded dispatch order serially on a
        # fresh system, without any queue, and compare everything.
        serial_system = _fresh_system()
        by_id = {item.submission_id: item for item in processed}
        serial_campaign_ids = []
        for submission_id in service.dispatch_order:
            handle = serial_system.submit(by_id[submission_id].spec)
            handle.result()
            serial_campaign_ids.append(handle.campaign_id)
        # Catalog records agree byte-for-byte...
        assert [
            record.to_dict() for record in system.catalog.all()
        ] == [
            record.to_dict() for record in serial_system.catalog.all()
        ]
        # ...and so do the raw persisted run documents.
        assert {
            key: system.storage.get("results", key)
            for key in system.storage.keys("results")
        } == {
            key: serial_system.storage.get("results", key)
            for key in serial_system.storage.keys("results")
        }
        # Campaign IDs were allocated in dispatch order, so the two
        # installations agree on them too.
        assert [
            by_id[submission_id].campaign_id
            for submission_id in service.dispatch_order
        ] == serial_campaign_ids
