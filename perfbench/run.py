"""Benchmark entry point: one workload, one seed, one JSON result.

Usage, from the repository root::

    python3 perfbench/run.py --workload read-hot --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` splits ``--seconds`` between an untraced window and a
traced one whose layer wrappers (see ``perfbench/stack.py``) yield the
per-layer cost vector; end-to-end figures never come from a traced
window.  Every
metric is printed with its unit, and the last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

All times are in nominal-host units (``perfbench/hostspeed.py``),
except ``p50_ms``/``p99_ms`` on sim-outage, which are virtual time and
exact for a seed.  A live window measures for ``--seconds`` and, on a
slow host, on until its p99 has enough samples beyond it.  A failed
output check, a tail percentile with fewer than ten samples beyond it,
a failed determinism self-check or a traced window whose layers do not
add up to its CPU fails the run (exit status 1).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import logging
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: End-to-end metrics (``--trace 0``), with units.
END_TO_END = [
    ("ops_per_s", "1/s"), ("cpu_ms_per_op", "ms"), ("p50_ms", "ms"),
    ("p99_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
]

#: Per-layer metrics (``--trace 1``), with units.
PER_LAYER = [
    ("live.codec.self_us_per_op", "us"), ("live.codec.bytes_per_op", "B"),
    ("live.transport.self_us_per_op", "us"),
    ("live.transport.frames_per_op", "count"),
    ("live.transport.msgs_per_frame", "count"),
    ("rpc.self_us_per_op", "us"), ("rpc.calls_per_op", "count"),
    ("rpc.retries_per_op", "count"),
    ("kernel.self_us_per_op", "us"), ("kernel.events_per_op", "count"),
    ("core.suite.self_us_per_op", "us"),
    ("core.suite.attempts_per_op", "count"),
    ("core.refresh.self_us_per_op", "us"),
    ("core.refresh.refreshes_per_op", "count"),
    ("txn.self_us_per_op", "us"), ("txn.prepares_per_op", "count"),
    ("txn.aborts_per_op", "count"), ("txn.locks.wait_ms_per_op", "ms"),
    ("storage.self_us_per_op", "us"),
    ("storage.page_writes_per_op", "count"), ("storage.write_amp", "ratio"),
    ("obs.self_us_per_op", "us"), ("obs.spans_per_op", "count"),
    ("sim.network.self_us_per_op", "us"),
    ("sim.network.msgs_per_op", "count"), ("sim.network.bytes_per_op", "B"),
    ("other.self_us_per_op", "us"),
    ("host.speed", "ratio"), ("host.raw_ops_per_s", "1/s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unattributed_frac", "fraction"),
    ("failed_frac", "fraction"),
]


def _import_program() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    import repro  # noqa: F401  (the program under test, built from src/)
    source = os.path.join(ROOT, "src", "repro")
    if os.path.dirname(os.path.abspath(repro.__file__)) != source:
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {source}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Shared
# ---------------------------------------------------------------------------

def _end_to_end(rounds, latencies_ms: List[float], setup_s: List[float],
                strict: bool = True) -> Dict[str, float]:
    """End-to-end figures; unless ``strict``, an unsupported p99 is NaN
    instead of failing the run (the traced mode only prints them)."""
    from perfbench.measure import TooFewSamples, latency, percentile, \
        throughput
    work = throughput(rounds)
    try:
        tail = latency(latencies_ms)
    except TooFewSamples:
        if strict:
            raise
        tail = {"p50_ms": percentile(latencies_ms, 0.5),
                "p99_ms": float("nan"), "samples": len(latencies_ms)}
    print(f"latency: {tail['samples']} samples, "
          f"{tail['samples'] - math.ceil(0.99 * tail['samples'])} beyond p99")
    return {
        "ops_per_s": work["ops_per_s"],
        "cpu_ms_per_op": work["cpu_ms_per_op"],
        "p50_ms": tail["p50_ms"],
        "p99_ms": tail["p99_ms"],
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": _peak_rss_mb(),
    }


def _print_raw(rounds, raw_latencies_ms: Optional[List[float]],
               raw_setup_s: List[float]) -> None:
    """The same figures without host-speed normalisation."""
    from perfbench.measure import percentile, throughput
    work = throughput(rounds)
    raw = {"ops_per_s": work["raw_ops_per_s"],
           "cpu_ms_per_op": work["raw_cpu_ms_per_op"],
           "setup_s": statistics.median(raw_setup_s)}
    if raw_latencies_ms is not None:
        raw["p50_ms"] = percentile(raw_latencies_ms, 0.5)
        raw["p99_ms"] = percentile(raw_latencies_ms, 0.99)
    print("raw: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))


def _cost_vector(account, traced_rounds, untraced_rounds, readings,
                 nominal: float, attempted: int, failed: int
                 ) -> Dict[str, float]:
    """The traced window's per-layer vector plus the diagnostics."""
    from perfbench.measure import throughput
    traced = throughput(traced_rounds)
    untraced = throughput(untraced_rounds)
    vector = account.vector(traced["ops"])
    vector.update({
        "host.speed": nominal / statistics.median(readings),
        "host.raw_ops_per_s": untraced["raw_ops_per_s"],
        "trace.overhead_frac": 1.0 - traced["ops_per_s"]
        / untraced["ops_per_s"],
        "failed_frac": failed / attempted,
    })
    return vector


def _traced(speed, measure):
    """Run ``measure(account)`` with every layer probed."""
    from perfbench import layers, stack
    from perfbench.workloads import LayerAccount
    tracer = layers.LayerTracer()
    with layers.Probes() as probes:
        handles = stack.install(tracer, probes)
        account = LayerAccount(tracer, handles["lock_wait"])
        first = len(speed.readings)
        result = measure(account)
    return account, result, speed.readings[first:]


# ---------------------------------------------------------------------------
# Live workloads
# ---------------------------------------------------------------------------

def _run_live(workload, speed, seconds: int, trace: bool, orphans
              ) -> Tuple[Dict[str, float], int, int]:
    window = seconds / 2 if trace else seconds
    untraced = asyncio.run(workload.window(speed, window, orphans,
                                           percentiles=not trace))
    end_to_end = _end_to_end(untraced.rounds, untraced.latencies_ms,
                             untraced.setup_s, strict=not trace)
    _print_raw(untraced.rounds, untraced.raw_latencies_ms,
               untraced.raw_setup_s)
    if not trace:
        return end_to_end, untraced.attempted, untraced.failed
    _print_table("end-to-end (untraced window)", end_to_end,
                 dict(END_TO_END))
    account, traced, readings = _traced(speed, lambda account: asyncio.run(
        workload.window(speed, window, orphans, account=account,
                        percentiles=False)))
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    return (_cost_vector(account, traced.rounds, untraced.rounds, readings,
                         speed.nominal, attempted, failed),
            attempted, failed)


# ---------------------------------------------------------------------------
# sim-outage
# ---------------------------------------------------------------------------

#: Distinct sub-seeds simulated per run.  Their latencies are pooled
#: for p50/p99: one simulated outage has too few operations for a
#: steady 99th percentile (over ten seeds, pooling eight 12 s outages
#: put the p99's quartile spread at 2.4%; four 21 s ones, at 10%).
SIM_SUBSEEDS = 8


def _sim_cycle(seed: int, speed, seconds: float, minimum: int,
               account=None) -> List:
    """Simulate sub-seeds in turn until ``seconds`` and ``minimum`` runs."""
    from perfbench.workloads import run_outage
    runs = []
    deadline = time.perf_counter() + seconds
    while len(runs) < minimum or time.perf_counter() < deadline:
        subseed = seed * SIM_SUBSEEDS + len(runs) % SIM_SUBSEEDS
        runs.append(run_outage(subseed, speed, account))
    return runs


def _check_determinism(runs) -> None:
    """Runs at one sub-seed agree exactly; different sub-seeds differ."""
    from perfbench.workloads import CheckFailed
    prints = [run.fingerprint() for run in runs]
    for index, fingerprint in enumerate(prints):
        reference = prints[index % SIM_SUBSEEDS]
        if fingerprint != reference:
            raise CheckFailed(f"sim-outage not deterministic: {reference} "
                            f"then {fingerprint} at one seed")
    distinct = prints[:SIM_SUBSEEDS]
    if len(set(distinct)) != len(distinct):
        raise CheckFailed("different seeds gave identical figures: "
                          f"{distinct}")
    print(f"determinism: {len(runs)} runs over {SIM_SUBSEEDS} seeds; each "
          "seed repeats its (p50, p99, failed_frac, msgs/op, events/op) "
          f"exactly; first seed {prints[0]}, second {prints[1]}")


def _run_sim(seed: int, speed, seconds: int, trace: bool
             ) -> Tuple[Dict[str, float], int, int]:
    window = seconds / 2 if trace else seconds
    runs = _sim_cycle(seed, speed, window, minimum=SIM_SUBSEEDS + 1)
    _check_determinism(runs)
    latencies = [x for run in runs[:SIM_SUBSEEDS] for x in run.latencies_ms]
    end_to_end = _end_to_end([r for run in runs for r in run.rounds],
                             latencies, [run.setup_s for run in runs],
                             strict=not trace)
    _print_raw([r for run in runs for r in run.rounds], None,
               [run.raw_setup_s for run in runs])
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    if not trace:
        return end_to_end, attempted, failed
    _print_table("end-to-end (untraced window)", end_to_end,
                 dict(END_TO_END))
    from perfbench.workloads import CheckFailed
    account, traced, readings = _traced(
        speed, lambda account: _sim_cycle(seed, speed, window, minimum=1,
                                          account=account))
    if traced[0].fingerprint() != runs[0].fingerprint():
        raise CheckFailed("tracing changed the simulation: "
                        f"{traced[0].fingerprint()} vs "
                        f"{runs[0].fingerprint()}")
    attempted += sum(run.attempted for run in traced)
    failed += sum(run.failed for run in traced)
    return (_cost_vector(account, [r for run in traced for r in run.rounds],
                         [r for run in runs for r in run.rounds], readings,
                         speed.nominal, attempted, failed),
            attempted, failed)


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _print_table(title: str, metrics: Dict[str, float],
                 units: Dict[str, str]) -> None:
    print(f"== {title}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {units[name]}")


def _result(correct: bool, attempted: int, failed: int,
            metrics: Dict[str, float], units: List[Tuple[str, str]]) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    })


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["read-hot", "write-2pc", "sim-outage"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr,
                        format="%(name)s: %(message)s")

    from perfbench import hostspeed, workloads
    from perfbench.measure import TooFewSamples

    speed = hostspeed.HostSpeed(hostspeed.nominal_seconds())
    orphans = workloads.OrphanLog()
    logging.getLogger("repro.live.runtime").addHandler(orphans)
    work_root = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    trace = bool(args.trace)
    units = PER_LAYER if trace else END_TO_END
    errors: List[str] = []
    try:
        if args.workload == workloads.SIM_OUTAGE:
            metrics, attempted, failed = _run_sim(args.seed, speed,
                                                  args.seconds, trace)
        else:
            kind = (workloads.ReadHot if args.workload == workloads.READ_HOT
                    else workloads.Write2PC)
            workload = kind(args.seed, work_root)
            metrics, attempted, failed = _run_live(
                workload, speed, args.seconds, trace, orphans)
            errors.extend(workload.errors)
        if trace:
            gap = metrics["trace.unattributed_frac"]
            print(f"closure: layers + other = window CPU within "
                  f"{abs(gap):.4%} (tolerance "
                  f"{workloads.CLOSURE_TOLERANCE:.0%})")
            if abs(gap) > workloads.CLOSURE_TOLERANCE:
                errors.append(f"traced layers leave {gap:.2%} of the "
                              "window's CPU unaccounted")
    except (workloads.CheckFailed, TooFewSamples) as exc:
        errors.append(str(exc))
        metrics, attempted, failed = {}, 1, 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    for error in errors[:20]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    correct = not errors
    if metrics:
        _print_table(f"{args.workload} seed {args.seed} "
                     f"({'per-layer' if trace else 'end-to-end'})",
                     metrics, dict(units))
    else:
        metrics = {name: 0.0 for name, _ in units}
    print(_result(correct, attempted, failed, metrics, units))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
