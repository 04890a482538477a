"""End-to-end and per-layer benchmark for the weighted-voting stack.

Run it from the repository root::

    python3 perfbench/run.py --workload read-hot --seed 1 --seconds 10 --trace 0

``run.py`` explains the workloads and metrics; ``hostspeed`` holds the
calibration that reports every time in nominal-host units; ``layers``
is the generator-aware per-layer tracer used by ``--trace 1``.
"""
