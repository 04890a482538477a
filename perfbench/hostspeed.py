"""Host-speed calibration: report times in nominal-host units.

The shared hosts this benchmark runs on change speed in phases that
last seconds, so raw wall and CPU times of identical runs can differ by
a quarter.  The cure used here: time a fixed loop of interpreter and
standard-library work between rounds of work, and scale each round's
times by how fast the loop ran on either side of it.  A round that ran
while the host was slow is scaled down to what the nominal host would
have taken.

The loop imports nothing from the program under test, so no change to
the program can move it, and it only ever runs while no operation is in
flight (the whole system is one thread on one event loop).
"""

from __future__ import annotations

import gc
import json
import os
import struct
import time
import zlib
from typing import Callable, List

#: The constant and the readings that justify it live next to this file.
CALIBRATION_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "calibration.json")

#: Iterations of :func:`calibration_loop` per reading.
ITERATIONS = 600


def calibration_loop(iterations: int = ITERATIONS) -> int:
    """Fixed work shaped like a message round trip: build a small dict,
    JSON-encode it, frame it with a packed header, checksum, decode.

    A tight arithmetic loop tracked the host's slow phases less well:
    they slow dict- and allocation-heavy code more than cache-resident
    arithmetic.  Measured over 80 s of write-2pc rounds cut into 20 s
    blocks, the run-to-run spread after normalising was 1.4% with this
    loop against 3.9% with an integer-and-dict loop (raw: 6.8%).
    """
    total = 0
    for i in range(iterations):
        record = {"txn": i, "name": "file-%d" % (i % 64),
                  "version": i * 3, "ok": True}
        body = json.dumps(record).encode()
        frame = struct.pack("!BBBBQI", 0xB7, 1, 2, 0, i, len(body)) + body
        total ^= zlib.crc32(frame)
        total += len(json.loads(body)["name"])
    return total


def nominal_seconds() -> float:
    """The loop's time on the nominal host, from ``calibration.json``."""
    with open(CALIBRATION_FILE, encoding="utf-8") as handle:
        record = json.load(handle)
    if record["iterations"] != ITERATIONS:
        raise ValueError("calibration.json was taken with a different loop")
    return float(record["nominal_seconds"])


def scale(raw: float, before: float, after: float, nominal: float) -> float:
    """``raw`` seconds measured between two readings, in nominal units.

    The host's speed over the interval is taken as the mean of the
    readings on either side of it.
    """
    if before <= 0.0 or after <= 0.0:
        raise ValueError("calibration readings must be positive")
    return raw * nominal * 2.0 / (before + after)


class HostSpeed:
    """Takes calibration readings and converts raw times with them."""

    def __init__(self, nominal: float,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.nominal = nominal
        self.clock = clock
        self.readings: List[float] = []

    def calibrate(self) -> float:
        """Time one run of the loop; returns (and keeps) the reading.

        The collector is paused for the reading: a collection's cost
        depends on the program's heap, not on the host's speed.
        """
        gc.disable()
        try:
            start = self.clock()
            calibration_loop()
            reading = self.clock() - start
        finally:
            gc.enable()
        self.readings.append(reading)
        return reading

    def scale(self, raw: float, before: float, after: float) -> float:
        return scale(raw, before, after, self.nominal)


class Segments:
    """Times a stretch of work cut into calibrated segments.

    ``checkpoint()`` closes the current segment, calibrates, and opens
    the next one; ``total`` is the normalised sum, ``raw`` the plain
    wall-clock sum.  Calibration time itself is excluded from both.
    """

    def __init__(self, speed: HostSpeed) -> None:
        self.speed = speed
        self.total = 0.0
        self.raw = 0.0
        self._before = speed.calibrate()
        self._start = speed.clock()

    def checkpoint(self) -> None:
        raw = self.speed.clock() - self._start
        after = self.speed.calibrate()
        self.total += self.speed.scale(raw, self._before, after)
        self.raw += raw
        self._before = after
        self._start = self.speed.clock()
