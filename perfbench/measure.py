"""Rounds of measured work and the statistics reported from them."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

#: The reported tail percentile must have at least this many samples
#: ranked above it, or the run fails: fewer would make it noise.
MIN_BEYOND = 10


class TooFewSamples(Exception):
    """A percentile was asked of a sample too small to support it."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of ``values``."""
    if not values:
        raise TooFewSamples("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples rank above the ``q`` percentile."""
    return count - max(1, math.ceil(q * count))


def tail_percentile(values: Sequence[float], q: float = 0.99,
                    min_beyond: int = MIN_BEYOND) -> float:
    """``percentile(values, q)``, refusing a sample too small for it."""
    beyond = samples_beyond(len(values), q)
    if beyond < min_beyond:
        raise TooFewSamples(
            f"p{q * 100:g} of {len(values)} samples has {beyond} beyond "
            f"it; at least {min_beyond} are required")
    return percentile(values, q)


@dataclass
class Round:
    """One drained round of operations, already normalised."""

    ops: int
    wall_s: float
    cpu_s: float
    raw_wall_s: float
    raw_cpu_s: float
    factor: float                       # nominal seconds per raw second
    latencies_ms: List[float] = field(default_factory=list)


def throughput(rounds: List[Round]) -> Dict[str, float]:
    """Operations per second and CPU per operation over some rounds."""
    ops = sum(r.ops for r in rounds)
    wall = sum(r.wall_s for r in rounds)
    if ops == 0 or wall <= 0.0:
        raise TooFewSamples("no operation completed")
    return {
        "ops": ops,
        "ops_per_s": ops / wall,
        "raw_ops_per_s": ops / sum(r.raw_wall_s for r in rounds),
        "cpu_ms_per_op": sum(r.cpu_s for r in rounds) * 1000.0 / ops,
        "raw_cpu_ms_per_op": sum(r.raw_cpu_s for r in rounds) * 1000.0 / ops,
    }


def latency(latencies_ms: Sequence[float]) -> Dict[str, float]:
    """Median and 99th percentile, with the sample count."""
    return {
        "p50_ms": percentile(latencies_ms, 0.50),
        "p99_ms": tail_percentile(latencies_ms, 0.99),
        "samples": len(latencies_ms),
    }
