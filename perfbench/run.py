"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload hera-matrix --seed 1 --seconds 30 --trace 0

The metric names and units come from ``BENCHMARK.json``: ``--trace 0``
reports every ``end_to_end`` metric from an untraced run, ``--trace 1``
every ``per_layer`` metric from a run whose iterations alternate between
untraced and traced.  End-to-end timings are normalised to a reference
host speed with a calibration loop run around every iteration (see
``perfbench/workloads.py``); the values as timed are printed beside them.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
lines before it give the provenance of the result (source revision, host,
core count, Python and numpy versions, seed and a calibration-loop score
before and after the run), the sample counts and, with tracing, the
self-time table by layer.

Exit status: 0 when the run's science checks pass, 1 when they fail (the
result is still printed, with ``"correct": false``), 2 when the benchmark
cannot run at all (no ``src/repro`` next to it, or bad arguments).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("hera-matrix", "new-release", "service-sessions")


def source_revision() -> Dict[str, object]:
    """The git commit when there is one, and a digest of the source tree."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        completed = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
            check=False,
        )
        commit = completed.stdout.strip() or None
    digest = hashlib.sha256()
    source = os.path.join(ROOT, "src")
    for directory, dirs, files in sorted(os.walk(source)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, source).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {"git_sha": commit, "source_sha256": digest.hexdigest()[:16]}


def provenance(seed: int) -> Dict[str, object]:
    import numpy

    record = source_revision()
    record.update(
        host=hashlib.sha256(platform.node().encode("utf-8")).hexdigest()[:12],
        machine=platform.machine(),
        nproc=len(os.sched_getaffinity(0)),
        python=platform.python_version(),
        numpy=numpy.__version__,
        seed=seed,
    )
    return record


def declared_metrics(trace: bool) -> List[Dict[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    return benchmark["per_layer" if trace else "end_to_end"]


def select_metrics(computed: Dict[str, float], declared: List[Dict[str, str]]) -> Dict[str, Dict]:
    """The declared metrics, by name with their unit, from *computed*."""
    return {
        entry["name"]: {"value": computed[entry["name"]], "unit": entry["unit"]}
        for entry in declared
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.workloads import calibration_ms, run_workload

    trace = bool(arguments.trace)
    declared = declared_metrics(trace)
    origin = provenance(arguments.seed)
    origin["calibration_ms_before"] = calibration_ms()
    out_dir = os.path.join(ROOT, ".perfbench_work")
    work_dir = os.path.join(out_dir, f"{arguments.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        outcome = run_workload(
            arguments.workload, arguments.seed, arguments.seconds, trace, work_dir
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    origin["calibration_ms_after"] = calibration_ms()

    computed = outcome.tracer.metrics() if trace else outcome.metrics
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": select_metrics(computed, declared),
    }
    print(f"# workload {arguments.workload}, seed {arguments.seed}, trace {int(trace)}")
    print("# provenance " + json.dumps(origin, sort_keys=True))
    for note in outcome.notes:
        print(f"# {note}")
    print("# as timed, before normalisation: " + json.dumps(outcome.raw_metrics))
    print(
        f"# op_failure_ratio {outcome.failed / outcome.attempted:.4f} "
        f"({outcome.failed} of {outcome.attempted} operations)"
    )
    if trace:
        print(outcome.tracer.layer_table())
        outcome.tracer.write_spans(
            os.path.join(out_dir, f"{arguments.workload}-seed{arguments.seed}.spans.jsonl")
        )
    with open(os.path.join(out_dir, "results.jsonl"), "a", encoding="utf-8") as handle:
        handle.write(
            json.dumps({"workload": arguments.workload, "provenance": origin, **result}) + "\n"
        )
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
