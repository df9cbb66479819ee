"""Exporters: Prometheus text exposition for the metrics registry.

The Prometheus text format is the lingua franca of scrape-based
monitoring; ``repro campaign --telemetry --output DIR`` writes it to
``DIR/reports/metrics.prom`` so a node_exporter-style textfile collector
(or a curl in a cron job) can ship the numbers without any new
dependency.  Counters gain a ``_total``-preserving name, histograms emit
the conventional ``_bucket``/``_sum``/``_count`` triplet with an
explicit ``+Inf`` bucket, and every name is prefixed ``repro_`` and
sanitised to the ``[a-zA-Z_:][a-zA-Z0-9_:]*`` metric charset.
"""

from __future__ import annotations

import re
from typing import List

from repro.telemetry.metrics import MetricsRegistry

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_RE = re.compile(r"[^a-zA-Z0-9_]")

#: Prefix applied to every exported metric name.
PREFIX = "repro_"


def _metric_name(name: str) -> str:
    sanitised = _NAME_RE.sub("_", name)
    if sanitised and sanitised[0].isdigit():
        sanitised = "_" + sanitised
    return PREFIX + sanitised


def _label_pairs(labels) -> str:
    if not labels:
        return ""
    rendered = ",".join(
        f'{_LABEL_RE.sub("_", key)}="{_escape(value)}"' for key, value in labels
    )
    return "{" + rendered + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render *registry* in the Prometheus text exposition format."""
    lines: List[str] = []
    # One TYPE line per metric family: the registry iterators are sorted,
    # so series of one family are adjacent and the family header can be
    # emitted exactly once (repeating it is a text-format violation).
    typed = set()
    for name, labels, value in registry.counters():
        metric = _metric_name(name)
        if metric not in typed:
            typed.add(metric)
            lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}{_label_pairs(labels)} {_format_value(value)}")
    for name, labels, value in registry.gauges():
        metric = _metric_name(name)
        if metric not in typed:
            typed.add(metric)
            lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric}{_label_pairs(labels)} {_format_value(value)}")
    for name, labels, series in registry.histograms():
        metric = _metric_name(name)
        if metric not in typed:
            typed.add(metric)
            lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(series.buckets, series.counts):
            cumulative += count
            bucket_labels = tuple(labels) + (("le", _format_value(bound)),)
            lines.append(f"{metric}_bucket{_label_pairs(bucket_labels)} {cumulative}")
        bucket_labels = tuple(labels) + (("le", "+Inf"),)
        lines.append(f"{metric}_bucket{_label_pairs(bucket_labels)} {series.count}")
        lines.append(f"{metric}_sum{_label_pairs(labels)} {_format_value(series.total)}")
        lines.append(f"{metric}_count{_label_pairs(labels)} {series.count}")
    return "\n".join(lines) + ("\n" if lines else "")


__all__ = ["PREFIX", "prometheus_text"]
