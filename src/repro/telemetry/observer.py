"""``MetricsObserver``: the lifecycle plugin that turns events into metrics.

The lifecycle bus already carries everything worth counting — cells
completing, campaigns finishing, submissions queueing, tenants being
throttled, heartbeat snapshots of the whole daemon.  This observer is the
bridge: it subscribes to all of it and folds each event into the shared
:class:`~repro.telemetry.metrics.MetricsRegistry`, so ``repro campaign
--telemetry`` and the service dashboard see live numbers without any
subsystem pushing metrics itself.

Like every :class:`~repro.scheduler.lifecycle.LifecycleObserver` it is
strictly read-only with respect to science: it never touches run
documents, catalog records or cache statistics, and ``TestBackendParity``
pins that attaching it leaves all of them byte-identical.
"""

from __future__ import annotations

from repro.scheduler.lifecycle import (
    EVENT_BUDGET_EXCEEDED,
    EVENT_CAMPAIGN_FINISHED,
    EVENT_CELL_COMPLETED,
    EVENT_DEADLINE_EXCEEDED,
    EVENT_EVOLUTION_RECORDED,
    EVENT_HEARTBEAT,
    EVENT_REGRESSION_DETECTED,
    EVENT_SUBMISSION_CANCELLED,
    EVENT_SUBMISSION_QUEUED,
    EVENT_SUBMISSION_STARTED,
    EVENT_TENANT_THROTTLED,
    LIFECYCLE_EVENTS,
    EventContext,
    LifecycleEvent,
    LifecycleObserver,
)
from repro.telemetry.metrics import MetricsRegistry

#: Heartbeat snapshot entries mirrored into gauges, payload key -> gauge.
_HEARTBEAT_GAUGES = {
    "queue_depth": "service_queue_depth",
    "running": "service_running",
    "dispatched": "service_dispatched",
    "completed": "service_completed",
    "failed": "service_failed",
    "cancelled": "service_cancelled",
    "worker_utilisation": "service_worker_utilisation",
    "cache_entries": "cache_entries",
    "cache_hit_rate": "cache_hit_rate",
    "cache_bytes": "cache_bytes",
}


class MetricsObserver(LifecycleObserver):
    """Fold every lifecycle event into a metrics registry."""

    events = LIFECYCLE_EVENTS

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry

    def handle(self, event: LifecycleEvent, context: EventContext) -> None:
        payload = event.payload or {}
        self.registry.increment("lifecycle_events_total", event=event.name)
        if event.name == EVENT_CELL_COMPLETED:
            outcome = "passed" if payload.get("passed") else "failed"
            self.registry.increment("cells_total", outcome=outcome)
        elif event.name == EVENT_CAMPAIGN_FINISHED:
            self.registry.increment("campaigns_total")
        elif event.name == EVENT_REGRESSION_DETECTED:
            self.registry.increment("regressions_total")
        elif event.name in (EVENT_DEADLINE_EXCEEDED, EVENT_BUDGET_EXCEEDED):
            self.registry.increment("campaign_limit_events_total", kind=event.name)
        elif event.name == EVENT_EVOLUTION_RECORDED:
            self.registry.increment("evolutions_total")
        elif event.name in (
            EVENT_SUBMISSION_QUEUED,
            EVENT_SUBMISSION_STARTED,
            EVENT_SUBMISSION_CANCELLED,
        ):
            tenant = payload.get("tenant", "unknown")
            self.registry.increment(
                "service_submissions_total", state=event.name, tenant=tenant
            )
        elif event.name == EVENT_TENANT_THROTTLED:
            self.registry.increment(
                "service_throttled_total", tenant=payload.get("tenant", "unknown")
            )
        elif event.name == EVENT_HEARTBEAT:
            self.registry.increment("service_heartbeats_total")
            for key, gauge in _HEARTBEAT_GAUGES.items():
                value = payload.get(key)
                if isinstance(value, (int, float)):
                    self.registry.set_gauge(gauge, float(value))


__all__ = ["MetricsObserver"]
