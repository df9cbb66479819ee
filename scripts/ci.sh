#!/usr/bin/env bash
# CI entry point for the sp-system reproduction.
#
# Mirrors the staged check layout of the pyhc-actions compliance tooling:
# cheap structural audits first, then the tier-1 suite, then the targeted
# backend-parity stage, then the bench-trend gate and the headless example
# smoke runs.  Stages:
#
#   1. bench marker audit — every test below benchmarks/ must carry the
#      `bench` marker, or the tier-1 deselection (-m "not bench") would
#      silently start running paper-reproduction benchmarks in CI.
#   2. history-ledger write audit — the `history` storage namespace is
#      owned by the ValidationHistoryLedger: a raw put() into it would
#      bypass the journal's idempotence and index bookkeeping, so no
#      module outside src/repro/history/ may write the namespace literal.
#   3. scheduler monotonic-clock audit — the process backend times its
#      dispatch with time.monotonic(); a time.time() call in
#      src/repro/scheduler/ would make schedules jump with NTP
#      adjustments, so the wall clock is banned there outright.
#   4. lifecycle-purity audit — automated intervention tickets and history
#      ingestion are plugin-layer concerns: no module outside
#      src/repro/plugins (and the owning core/history modules) may
#      construct an InterventionTracker or call ingest_cycle directly.
#   5. service-purity audit — the validation service is a pure queueing
#      layer: no module under src/repro/service/ may construct an
#      execution backend or a CampaignScheduler (all execution flows
#      through SPSystem.submit) or call wall-clock time.time() (rate
#      limiting runs on an injectable monotonic clock).
#   6. telemetry-purity audit — the telemetry subsystem observes, never
#      participates: no time.time() under src/repro/telemetry/ (the
#      registry and tracer run on injectable monotonic clocks), and the
#      science layers (src/repro/hepdata/, src/repro/environment/) must
#      not import repro.telemetry at all.  The modules whose code runs in
#      the campaign's forked cell-pass workers (src/repro/core/cellpass.py,
#      src/repro/core/runner.py) import none of threading, repro.telemetry
#      or repro.service: a forked child must never touch a lock a parent
#      thread (e.g. the service heartbeat) held at fork time.
#   7. tier-1 — the documented fast suite (ROADMAP.md):
#      pytest -x -q -m "not bench"
#   8. backend parity — the determinism suite re-run with an explicit
#      backend list (REPRO_PARITY_BACKENDS=simulated,processes): pins that
#      the env knob itself works and that the process-pool backend, whose
#      builds cross a pickle boundary, stays bit-identical to the
#      simulated timeline model.
#   9. bench-trends gate — `repro bench-trends check` compares the latest
#      recorded benchmark trend point of every series against the
#      trailing median and fails on a regression past the threshold
#      (a fresh checkout with no recorded series passes trivially).
#  10. examples — headless smoke run of every examples/*.py script:
#      pytest -m examples
#
# Usage: scripts/ci.sh [--skip-examples]

set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== stage 1/10: bench marker audit =="
# Selecting "not bench" below benchmarks/ must collect nothing; any test id
# in the output is a benchmark that escaped the marker.
unmarked=$(python -m pytest benchmarks/ -m "not bench" --collect-only -q 2>/dev/null | grep -c "::" || true)
if [ "${unmarked}" -ne 0 ]; then
    echo "error: ${unmarked} test(s) under benchmarks/ lack the 'bench' marker:" >&2
    python -m pytest benchmarks/ -m "not bench" --collect-only -q 2>/dev/null | grep "::" >&2 || true
    exit 1
fi
echo "ok: every benchmarks/ test carries the bench marker"

echo "== stage 2/10: history-ledger write audit =="
# Writers must go through the ledger API: no raw put into the 'history'
# namespace (and no string-literal namespace handle to put through) outside
# the owning package.  The same rule is enforced by tests/test_tooling_ci.py.
violations=$(grep -rnE "(put|create_namespace|namespace)\(\s*[\"']history[\"']" src --include='*.py' | grep -v "^src/repro/history/" || true)
if [ -n "${violations}" ]; then
    echo "error: raw 'history' namespace access outside src/repro/history/:" >&2
    echo "${violations}" >&2
    echo "write through ValidationHistoryLedger (repro.history.ledger) instead" >&2
    exit 1
fi
echo "ok: every history-namespace writer goes through the ledger API"

echo "== stage 3/10: scheduler monotonic-clock audit =="
# Backend timelines are offsets from a campaign-local origin; time.time()
# would tie them to a clock that NTP can step.  Only time.monotonic() is
# allowed anywhere under src/repro/scheduler/.  The same rule is enforced
# by tests/test_tooling_ci.py.
clock_violations=$(grep -rn "time\.time(" src/repro/scheduler --include='*.py' || true)
if [ -n "${clock_violations}" ]; then
    echo "error: wall-clock time.time() call in src/repro/scheduler/:" >&2
    echo "${clock_violations}" >&2
    echo "use time.monotonic() for scheduler timing" >&2
    exit 1
fi
echo "ok: the scheduler times itself with time.monotonic() only"

echo "== stage 4/10: lifecycle-purity audit =="
# Automated tickets and history ingestion flow through the plugin layer:
# no module outside src/repro/plugins (and the owning core/history modules)
# may construct an InterventionTracker or call ingest_cycle directly, or
# the lifecycle bus would stop being the single reporting path.  The same
# rule is enforced by tests/test_tooling_ci.py.
lifecycle_violations=$(grep -rnE "InterventionTracker\(|ingest_cycle\(" src --include='*.py' | grep -vE "^src/repro/(plugins/|history/|core/intervention\.py)" || true)
if [ -n "${lifecycle_violations}" ]; then
    echo "error: direct tracker construction or history ingestion outside the plugin layer:" >&2
    echo "${lifecycle_violations}" >&2
    echo "route it through repro.plugins (new_intervention_tracker / HistoryRecorderPlugin) instead" >&2
    exit 1
fi
echo "ok: tickets and history ingestion flow through the plugin layer"

echo "== stage 5/10: service-purity audit =="
# The daemon layer queues, schedules and bills -- it never executes. A
# backend or scheduler construction under src/repro/service/ would open a
# second execution path around SPSystem.submit; a time.time() call would
# tie rate limiting to a steppable wall clock.  The same rule is enforced
# by tests/test_tooling_ci.py.
service_violations=$(grep -rnE "[A-Za-z_]*Backend\(|CampaignScheduler\(|execution_backend\(|time\.time\(" src/repro/service --include='*.py' || true)
if [ -n "${service_violations}" ]; then
    echo "error: execution or wall-clock call under src/repro/service/:" >&2
    echo "${service_violations}" >&2
    echo "dispatch through SPSystem.submit and time with a monotonic clock" >&2
    exit 1
fi
echo "ok: the service layer queues and bills; only SPSystem.submit executes"

echo "== stage 6/10: telemetry-purity audit =="
# Telemetry observes, it never participates.  The registry and tracer run
# on injectable monotonic clocks — a time.time() call under
# src/repro/telemetry/ would tie metric timestamps to a steppable wall
# clock.  And the science layers stay instrumentation-free: nothing under
# src/repro/hepdata/ or src/repro/environment/ may import repro.telemetry,
# or instrumentation could start influencing the numbers it reports.  The
# same rules are enforced by tests/test_tooling_ci.py.
telemetry_clock_violations=$(grep -rn "time\.time(" src/repro/telemetry --include='*.py' || true)
if [ -n "${telemetry_clock_violations}" ]; then
    echo "error: wall-clock time.time() call in src/repro/telemetry/:" >&2
    echo "${telemetry_clock_violations}" >&2
    echo "use time.monotonic() (or the injected clock) for telemetry timing" >&2
    exit 1
fi
telemetry_import_violations=$(grep -rnE "(from|import)[[:space:]]+repro\.telemetry" src/repro/hepdata src/repro/environment --include='*.py' || true)
if [ -n "${telemetry_import_violations}" ]; then
    echo "error: repro.telemetry imported from a science layer:" >&2
    echo "${telemetry_import_violations}" >&2
    echo "hepdata/ and environment/ must stay instrumentation-free" >&2
    exit 1
fi
fork_violations=$(grep -nE "^[[:space:]]*(from|import)[[:space:]]+(threading|repro\.telemetry|repro\.service)([[:space:].]|$)" src/repro/core/cellpass.py src/repro/core/runner.py || true)
if [ -n "${fork_violations}" ]; then
    echo "error: a cell-pass worker module imports a lock-holding layer:" >&2
    echo "${fork_violations}" >&2
    echo "code run in forked pool workers must not import threading, repro.telemetry or repro.service" >&2
    exit 1
fi
echo "ok: telemetry runs on monotonic clocks, the science layers stay instrumentation-free and the cell-pass workers are fork-safe"

echo "== stage 7/10: tier-1 test suite =="
python -m pytest -x -q -m "not bench"

echo "== stage 8/10: backend parity (explicit backend list) =="
# The tier-1 run above already covers the default all-backend matrix; this
# stage pins that the env knob itself works and that the pickle-crossing
# process backend matches the simulated one when named explicitly.
REPRO_PARITY_BACKENDS=simulated,processes \
    python -m pytest -q tests/test_scheduler_determinism.py \
    -k "BackendParity or HistoryRecordingBitIdentity"

echo "== stage 9/10: bench-trends gate =="
# Gate on the recorded benchmark trend series: the latest point of every
# series must stay within the threshold of the trailing median.  A fresh
# checkout with no recorded series passes trivially.
python -m repro.cli bench-trends check

if [ "${1:-}" = "--skip-examples" ]; then
    echo "== stage 10/10: examples smoke run skipped =="
    exit 0
fi

echo "== stage 10/10: examples smoke run =="
python -m pytest -q -m examples

echo "CI checks passed."
