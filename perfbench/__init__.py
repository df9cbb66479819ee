"""The repository benchmark: workloads, a traced per-layer breakdown and a runner.

Run it from the repository root::

    python3 perfbench/run.py --workload hera-matrix --seed 1 --seconds 30 --trace 0

See ``perfbench/workloads.py`` for why each workload exists and
``BENCHMARK.json`` for the metrics and their bounds.
"""
