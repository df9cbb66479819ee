"""Self-tests of the benchmark at tiny sizes.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from perfbench.run import ROOT, select_metrics
from perfbench.workloads import TINY_SIZES, generate_inputs, run_workload

WORKLOADS = sorted(TINY_SIZES)


def _declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)[section]


def _tiny_run(workload, tmp_path, trace=False, tamper=None):
    return run_workload(
        workload,
        seed=3,
        seconds=0.0,
        trace=trace,
        work_dir=str(tmp_path),
        size=TINY_SIZES[workload],
        tamper=tamper,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload, tmp_path):
    outcome = _tiny_run(workload, tmp_path)
    assert outcome.correct, outcome.notes
    assert outcome.failed == 0 and outcome.attempted >= 1
    declared = _declared("end_to_end")
    metrics = select_metrics(outcome.metrics, declared)
    assert [entry["name"] for entry in declared] == list(metrics)
    for entry in declared:
        assert metrics[entry["name"]]["unit"] == entry["unit"]
        assert metrics[entry["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload, tmp_path):
    outcome = _tiny_run(workload, tmp_path, trace=True)
    # The run alternates untraced and traced iterations and checks that
    # both produce the same science digest.
    assert outcome.correct, outcome.notes
    declared = _declared("per_layer")
    metrics = select_metrics(outcome.tracer.metrics(), declared)
    assert [entry["name"] for entry in declared] == list(metrics)
    for entry in declared:
        value = metrics[entry["name"]]["value"]
        assert metrics[entry["name"]]["unit"] == entry["unit"]
        assert math.isfinite(value) and value >= 0
    assert metrics["trace.attributed_ratio"]["value"] >= 0.95
    assert metrics["trace.overhead_ratio"]["value"] > 0
    assert metrics["core.runner.self_ms"]["value"] > 0
    assert "attributed" in outcome.tracer.layer_table()


def test_tracer_leaves_no_wrapper_installed(tmp_path):
    from repro.storage.common_storage import StorageNamespace

    put = StorageNamespace.__dict__["put"]
    _tiny_run("hera-matrix", tmp_path, trace=True)
    assert StorageNamespace.__dict__["put"] is put


def test_tampered_run_document_fails_the_check(tmp_path):
    def tamper(iteration):
        iteration.science.run_documents[0]["jobs"][0]["status"] = "tampered"

    outcome = _tiny_run("hera-matrix", tmp_path, tamper=tamper)
    assert not outcome.correct
    assert any("run document of cell 0" in note for note in outcome.notes)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_the_seed_drives_the_inputs(workload):
    size = TINY_SIZES[workload]
    first = generate_inputs(workload, 7, size)
    assert first == generate_inputs(workload, 7, size)
    assert first != generate_inputs(workload, 8, size)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hera-matrix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
