"""The three workloads: read-hot, write-2pc and sim-outage.

Each workload loads different layers (see ``BENCHMARK.json`` for why
each was chosen).  All three are closed loops -- the suite's callers,
such as the Violet calendar, wait for each reply -- driven by one
thread in one process:

* ``read-hot``: a loopback cluster of three daemons plus the client on
  one asyncio loop, memory-backed pages, tracing on as shipped; 64
  files of 256 B, three single-vote representatives, r = w = 2; four
  reads in flight on files drawn from the seeded RNG.
* ``write-2pc``: the same cluster on file-backed stable storage in a
  fresh directory (flush per page write, no fsync: the repo default);
  two writers in flight, each owning half the files, 2 KiB payloads.
* ``sim-outage``: the paper's Example 2 on the simulation kernel (votes
  2/1/1, r = 2, w = 3, the paper's link latencies); three clients with
  an 80/20 read/write mix over a small shared working set with a hot
  file; the two-vote ``server-1`` crashes for a fixed virtual-time
  window and restarts.  Latencies are virtual and exact for a seed.

Live times are normalised by :mod:`perfbench.hostspeed`, calibrating
after every drained round; a round ends only after background
refreshes and in-flight RPCs have drained.
"""

from __future__ import annotations

import asyncio
import gc
import logging
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from . import stack
from .hostspeed import HostSpeed, Segments
from .layers import OTHER, LayerTracer, closure_gap
from .measure import Round, percentile

READ_HOT = "read-hot"
WRITE_2PC = "write-2pc"
SIM_OUTAGE = "sim-outage"

#: Clusters set up (and measured) per window; ``setup_s`` is the
#: median of their set-up times.
SETUPS = 5
#: Installs between two calibrations while setting up.
INSTALLS_PER_SEGMENT = 4
#: Largest share of a traced window's CPU the layers may leave
#: unattributed (or count twice) before the run fails.
CLOSURE_TOLERANCE = 0.02

SERVERS = ("s1", "s2", "s3")
#: Bound on draining one round; a round that cannot drain is a hang.
DRAIN_LIMIT_S = 30.0
#: A window measures for ``--seconds`` and, on a slow host, on until
#: it has this many latency samples (11 beyond the p99) or has run
#: ``MEASURE_LIMIT_S``: a p99 with fewer than ten samples beyond it
#: fails the run.  Each of the ``SETUPS`` clusters takes its share.
MIN_SAMPLES = 1100
MEASURE_LIMIT_S = 120.0


class CheckFailed(Exception):
    """A program output did not match what the workload expected."""


@dataclass
class Result:
    """What one measurement window produced."""

    rounds: List[Round]
    attempted: int
    failed: int
    setup_s: List[float] = field(default_factory=list)
    raw_setup_s: List[float] = field(default_factory=list)

    @property
    def latencies_ms(self) -> List[float]:
        return [x for r in self.rounds for x in r.latencies_ms]

    @property
    def raw_latencies_ms(self) -> List[float]:
        return [x / r.factor for r in self.rounds for x in r.latencies_ms]


class OrphanLog(logging.Handler):
    """Counts failures that escaped live processes.

    Every "unhandled failure in live process" (or unhandled callback
    exception) logged by the live kernel counts as a failed operation.
    """

    def __init__(self) -> None:
        super().__init__(logging.ERROR)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if record.getMessage().startswith("unhandled"):
            self.count += 1


# ---------------------------------------------------------------------------
# Program counters read around each round
# ---------------------------------------------------------------------------

def _live_counters(cluster: Any) -> Dict[str, float]:
    client = cluster.client
    nodes = [client.transport] + [s.transport for s in
                                  cluster.servers.values()]
    endpoints = [client.endpoint] + [s.endpoint for s in
                                     cluster.servers.values()]
    return {
        "frames": sum(n.frames_sent for n in nodes),
        "messages": sum(n.frames_received for n in nodes),
        "calls": sum(e.calls_sent for e in endpoints),
        "retransmissions": sum(e.retransmissions for e in endpoints),
        "refreshes": client.metrics.counter_value("refresh.scheduled"),
        "aborts": client.manager.aborts,
        "network.msgs": 0,
    }


def _sim_counters(bed: Any) -> Dict[str, float]:
    endpoints = ([n.endpoint for n in bed.clients.values()]
                 + [n.endpoint for n in bed.servers.values()])
    return {
        "frames": 0,
        "messages": 0,
        "calls": sum(e.calls_sent for e in endpoints),
        "retransmissions": sum(e.retransmissions for e in endpoints),
        "refreshes": bed.metrics.counter_value("refresh.scheduled"),
        "aborts": sum(n.manager.aborts for n in bed.clients.values()),
        "network.msgs": bed.network.messages_sent,
    }


def _delta(after: Dict[str, float], before: Dict[str, float]
           ) -> Dict[str, float]:
    return {key: after[key] - before[key] for key in after}


class LayerAccount:
    """Accumulates a traced window's per-layer totals, round by round."""

    def __init__(self, tracer: LayerTracer, lock_wait: Dict[str, float]
                 ) -> None:
        self.tracer = tracer
        self.lock_wait = lock_wait
        self.self_ns: Dict[str, float] = {}
        self.raw_self_ns = 0
        self.window_cpu_ns = 0
        self.counts: Dict[str, float] = {}

    def mark(self) -> Tuple[float, int]:
        """Lock-wait totals now; pass to :meth:`add_round` later."""
        return self.lock_wait["ms"], self.lock_wait["own_events"]

    def add_round(self, cpu_ns: int, factor: float,
                  program: Dict[str, float], mark: Tuple[float, int],
                  virtual_time: bool = False) -> None:
        """Fold in one round: tracer totals (scaled to nominal time),
        program counter deltas and the lock waits since ``mark``."""
        self_ns, counts = self.tracer.take()
        for layer, ns in self_ns.items():
            self.self_ns[layer] = self.self_ns.get(layer, 0.0) + ns * factor
            self.raw_self_ns += ns
        self.window_cpu_ns += cpu_ns
        lock_ms, own_events = (now - then for now, then
                               in zip(self.mark(), mark))
        counts["kernel.events"] = counts.get("kernel.events", 0) - own_events
        counts["lock_wait_ms"] = lock_ms * (1.0 if virtual_time else factor)
        for key, value in list(counts.items()) + list(program.items()):
            self.counts[key] = self.counts.get(key, 0.0) + value

    def vector(self, ops: int) -> Dict[str, float]:
        """The per-op cost vector, named as in ``BENCHMARK.json``."""
        c = self.counts.get

        def per_op(value: float) -> float:
            return value / ops

        out: Dict[str, float] = {}
        for layer in stack.LAYERS:
            out[f"{layer}.self_us_per_op"] = per_op(
                self.self_ns.get(layer, 0.0) / 1000.0)
        frames = c("frames", 0.0)
        out.update({
            "live.codec.bytes_per_op": per_op(c("codec.bytes", 0.0)),
            "live.transport.frames_per_op": per_op(frames),
            "live.transport.msgs_per_frame": (c("messages", 0.0) / frames
                                              if frames else 0.0),
            "rpc.calls_per_op": per_op(c("calls", 0.0)),
            "rpc.retries_per_op": per_op(c("retransmissions", 0.0)),
            "kernel.events_per_op": per_op(c("kernel.events", 0.0)),
            "core.suite.attempts_per_op": per_op(c("suite.attempts", 0.0)),
            "core.refresh.refreshes_per_op": per_op(c("refreshes", 0.0)),
            "txn.prepares_per_op": per_op(c("txn.prepares", 0.0)),
            "txn.aborts_per_op": per_op(c("aborts", 0.0)),
            "txn.locks.wait_ms_per_op": per_op(c("lock_wait_ms", 0.0)),
            "storage.page_writes_per_op": per_op(
                c("storage.page_writes", 0.0)),
            "storage.write_amp": (c("storage.page_bytes", 0.0)
                                  / c("user.bytes", 0.0)
                                  if c("user.bytes", 0.0) else 0.0),
            "obs.spans_per_op": per_op(c("obs.spans", 0.0)),
            "sim.network.msgs_per_op": per_op(c("network.msgs", 0.0)),
            "sim.network.bytes_per_op": per_op(c("network.bytes", 0.0)),
        })
        out["trace.unattributed_frac"] = closure_gap(self.raw_self_ns,
                                                      self.window_cpu_ns)
        return out


# ---------------------------------------------------------------------------
# Live workloads (read-hot, write-2pc)
# ---------------------------------------------------------------------------

def _quiescent(cluster: Any) -> bool:
    client = cluster.client
    if (client.refresher._in_flight or client.endpoint._pending
            or client.kernel._due):
        return False
    for server in cluster.servers.values():
        if (server.endpoint._handler_processes or server.endpoint._pending
                or server.kernel._due):
            return False
    return True


async def drain(cluster: Any) -> None:
    """Wait until refreshes, RPCs and kernel callbacks have all settled."""
    deadline = time.perf_counter() + DRAIN_LIMIT_S
    while not _quiescent(cluster):
        if time.perf_counter() > deadline:
            raise RuntimeError("cluster did not drain")
        await asyncio.sleep(0)


def _codec_latched(cluster: Any) -> bool:
    """Every connection dialled and speaking the binary codec."""
    client = cluster.client.transport
    for name in SERVERS:
        connection = client._connections.get(name)
        if connection is None or not connection.peer_binary:
            return False
    for server in cluster.servers.values():
        connection = server.transport._connections.get(cluster.client.name)
        if connection is None or not connection.peer_binary:
            return False
    return True


class LiveWorkload:
    """Shared harness of the two loopback-cluster workloads."""

    name = ""
    concurrency = 1
    round_ops = 1
    warmup_ops = 1
    files = 1
    file_bytes = 0
    disk = False

    def __init__(self, seed: int, work_root: str) -> None:
        from repro.core import make_configuration
        self.seed = seed
        self.work_root = work_root
        rng = random.Random(f"{self.name}:{seed}:files")
        self.configs = [
            make_configuration(f"{self.name}-{i}",
                               [(s, 1) for s in SERVERS], 2, 2,
                               latency_hints={"s1": 10.0, "s2": 20.0,
                                              "s3": 30.0})
            for i in range(self.files)]
        self.initial = [rng.randbytes(self.file_bytes)
                        for _ in range(self.files)]
        self.user_bytes = 0
        self.errors: List[str] = []
        self._data_dirs: List[str] = []

    # -- hooks ---------------------------------------------------------------

    def next_input(self, worker: int) -> Any:
        raise NotImplementedError

    async def operate(self, cluster: Any, suites: List[Any],
                      item: Any) -> None:
        raise NotImplementedError

    async def check_round(self, cluster: Any, suites: List[Any]) -> None:
        """Untimed output checks after a drained round."""

    # -- set-up --------------------------------------------------------------

    async def setup(self, speed: HostSpeed
                    ) -> Tuple[Any, List[Any], Segments]:
        """Boot the daemons, create the stores, install the working set.

        Returns the cluster, one suite handle per file, and the set-up
        time (calibrated every few installs).
        """
        from repro.live import LoopbackCluster
        segments = Segments(speed)
        data_root = None
        if self.disk:
            data_root = tempfile.mkdtemp(prefix="store-", dir=self.work_root)
            self._data_dirs.append(data_root)
        cluster = LoopbackCluster(list(SERVERS), data_root=data_root,
                                  seed=self.seed)
        await cluster.start()
        segments.checkpoint()
        suites = []
        for index, config in enumerate(self.configs):
            suites.append(await cluster.install(config,
                                                self.initial[index]))
            if (index + 1) % INSTALLS_PER_SEGMENT == 0:
                segments.checkpoint()
        await drain(cluster)
        segments.checkpoint()
        return cluster, suites, segments

    async def teardown(self, cluster: Any) -> None:
        # Drain first: closing while a refresh's prepare is in flight
        # lets it write to a page file that close() already shut.
        await drain(cluster)
        await cluster.close()
        for path in self._data_dirs:
            shutil.rmtree(path, ignore_errors=True)
        self._data_dirs.clear()

    # -- rounds --------------------------------------------------------------

    async def _run_ops(self, cluster: Any, suites: List[Any], count: int,
                     latencies: List[float]) -> int:
        """Run ``count`` operations, ``concurrency`` in flight; returns
        the number that failed."""
        from repro.errors import ReproError
        begun = 0
        failed = 0

        async def worker(index: int) -> None:
            nonlocal begun, failed
            while begun < count:
                begun += 1
                item = self.next_input(index)
                started = time.perf_counter()
                try:
                    await self.operate(cluster, suites, item)
                except ReproError as exc:
                    failed += 1
                    logging.getLogger("perfbench").warning(
                        "%s: operation failed: %s", self.name, exc)
                    continue
                latencies.append((time.perf_counter() - started) * 1000.0)

        await asyncio.gather(*(worker(i) for i in range(self.concurrency)))
        return failed

    async def warm(self, cluster: Any, suites: List[Any]) -> None:
        """Run until every connection has dialled and latched binary."""
        for _ in range(50):
            await self._run_ops(cluster, suites, self.warmup_ops, [])
            await drain(cluster)
            await self.check_round(cluster, suites)
            if _codec_latched(cluster):
                return
        raise RuntimeError("connections never latched the binary codec")

    async def measure(self, cluster: Any, suites: List[Any],
                      speed: HostSpeed, seconds: float, orphans: OrphanLog,
                      account: Optional[LayerAccount] = None,
                      min_samples: float = 0) -> Result:
        rounds: List[Round] = []
        attempted = failed = 0
        tracer = account.tracer if account is not None else None
        before = speed.calibrate()
        start = time.perf_counter()
        samples = 0
        limit = MEASURE_LIMIT_S / SETUPS
        while (time.perf_counter() - start < seconds
               or (samples < min_samples
                   and time.perf_counter() - start < limit)):
            latencies: List[float] = []
            orphans_before = orphans.count
            counters_before = _live_counters(cluster)
            user_before = self.user_bytes
            mark = account.mark() if account is not None else None
            wall0 = time.perf_counter()
            cpu0 = time.process_time_ns()
            if tracer is not None:
                if tracer.depth:
                    raise RuntimeError("layer stack not empty at round start")
                tracer.begin()
            round_failed = await self._run_ops(cluster, suites,
                                             self.round_ops, latencies)
            await drain(cluster)
            if tracer is not None:
                tracer.end()
            cpu_ns = time.process_time_ns() - cpu0
            raw_wall = time.perf_counter() - wall0
            program = _delta(_live_counters(cluster), counters_before)
            program["user.bytes"] = self.user_bytes - user_before
            await self.check_round(cluster, suites)
            await drain(cluster)
            after = speed.calibrate()
            factor = speed.scale(1.0, before, after)
            before = after
            round_failed += orphans.count - orphans_before
            samples += len(latencies)
            attempted += self.round_ops
            failed += round_failed
            rounds.append(Round(
                ops=self.round_ops - round_failed,
                wall_s=raw_wall * factor, cpu_s=cpu_ns / 1e9 * factor,
                raw_wall_s=raw_wall, raw_cpu_s=cpu_ns / 1e9, factor=factor,
                latencies_ms=[x * factor for x in latencies]))
            if account is not None:
                account.add_round(cpu_ns, factor, program, mark)
        return Result(rounds=rounds, attempted=attempted, failed=failed)

    async def window(self, speed: HostSpeed, seconds: float,
                     orphans: OrphanLog,
                     account: Optional[LayerAccount] = None,
                     percentiles: bool = True) -> Result:
        """Set up ``SETUPS`` clusters in turn; warm and measure each for
        an equal share of ``seconds`` (longer, if ``percentiles``, until
        the window has ``MIN_SAMPLES`` latencies).

        Each cluster instance runs at its own speed (object layout,
        id-keyed hashing): measured back to back in one process, 5 s on
        each of eight clusters spread 4.4% (sd).  Pooling rounds from
        several clusters averages that out.
        """
        result = Result(rounds=[], attempted=0, failed=0)
        for _ in range(SETUPS):
            cluster, suites, segments = await self.setup(speed)
            result.setup_s.append(segments.total)
            result.raw_setup_s.append(segments.raw)
            try:
                gc.collect()
                gc.freeze()
                await self.warm(cluster, suites)
                part = await self.measure(
                    cluster, suites, speed, seconds / SETUPS, orphans,
                    account, MIN_SAMPLES / SETUPS if percentiles else 0)
            finally:
                await self.teardown(cluster)
                gc.unfreeze()
            result.rounds.extend(part.rounds)
            result.attempted += part.attempted
            result.failed += part.failed
        return result


class ReadHot(LiveWorkload):
    name = READ_HOT
    concurrency = 4
    round_ops = 200
    warmup_ops = 200
    files = 64
    file_bytes = 256

    def __init__(self, seed: int, work_root: str) -> None:
        super().__init__(seed, work_root)
        self._picks = random.Random(f"{self.name}:{seed}:picks")

    def next_input(self, worker: int) -> int:
        return self._picks.randrange(self.files)

    async def operate(self, cluster: Any, suites: List[Any],
                      item: int) -> None:
        result = await cluster.read(suites[item])
        if result.data != self.initial[item]:
            self.errors.append(f"read of file {item} returned "
                               f"{len(result.data)} unexpected bytes")


class Write2PC(LiveWorkload):
    name = WRITE_2PC
    concurrency = 2
    round_ops = 30
    warmup_ops = 30
    #: Every commit rewrites a server's whole file directory, so a
    #: write's cost grows with the files a server holds: at 64 files a
    #: write costs ~1,400 page writes and runs ~30/s, too few for a
    #: supported p99 in one run.  16 files keep that cost visible.
    files = 16
    file_bytes = 2048
    disk = True

    def __init__(self, seed: int, work_root: str) -> None:
        super().__init__(seed, work_root)
        self._rngs = [random.Random(f"{self.name}:{seed}:writer{w}")
                      for w in range(self.concurrency)]
        self._sequence = [0] * self.concurrency
        #: The owner's last acknowledged write per file.
        self.last: Dict[int, bytes] = dict(enumerate(self.initial))
        self._written: set = set()

    def next_input(self, worker: int) -> Tuple[int, bytes]:
        rng = self._rngs[worker]
        # Writer w owns the files i with i % concurrency == w, so the
        # writers never contend for a lock.
        owned = self.files // self.concurrency
        index = rng.randrange(owned) * self.concurrency + worker
        self._sequence[worker] += 1
        header = f"w{worker}#{self._sequence[worker]}:".encode()
        payload = header + rng.randbytes(self.file_bytes - len(header))
        return index, payload

    async def operate(self, cluster: Any, suites: List[Any],
                      item: Tuple[int, bytes]) -> None:
        index, payload = item
        await cluster.write(suites[index], payload)
        self.user_bytes += len(payload)
        self.last[index] = payload
        self._written.add(index)

    async def check_round(self, cluster: Any, suites: List[Any]) -> None:
        from repro.errors import ReproError
        for index in sorted(self._written):
            try:
                result = await cluster.read(suites[index])
            except ReproError as exc:
                self.errors.append(f"read-back of file {index} failed: {exc}")
                continue
            if result.data != self.last[index]:
                self.errors.append(f"read-back of file {index} did not "
                                   "return its owner's last write")
        self._written.clear()


# ---------------------------------------------------------------------------
# sim-outage
# ---------------------------------------------------------------------------

SIM_CLIENTS = ("c1", "c2", "c3")
SIM_FILES = 24
HOT_SHARE = 0.25
READ_SHARE = 0.8
SIZE_RANGE = (7168, 8192)
SIM_PAGE_SIZE = 4096
#: Virtual time the clients send operations for, from the end of
#: set-up, and when in it the outage starts.  The outage is shorter
#: than a suite's retry budget (four attempts, 1 s inquiry timeout), so
#: writes it blocks complete late instead of failing.
LOAD_MS = 12_000.0
CRASH_AT_MS = 6_000.0
OUTAGE_MS = 2_000.0
#: Virtual time after the load window for blocked operations and
#: refreshes to finish.
SETTLE_MS = 30_000.0
#: Virtual time simulated between two calibrations.
CHUNK_MS = 2_000.0


@dataclass
class SimRun:
    """One simulated outage, with its exact figures."""

    setup_s: float
    raw_setup_s: float
    rounds: List[Round]
    attempted: int
    failed: int
    latencies_ms: List[float]
    messages: int
    events: int

    def fingerprint(self) -> Tuple[float, ...]:
        ops = self.attempted - self.failed
        return (percentile(self.latencies_ms, 0.5),
                percentile(self.latencies_ms, 0.99),
                self.failed / self.attempted, self.messages / ops,
                self.events / ops)


def _sim_payload(rng: random.Random, tag: str) -> bytes:
    size = rng.randint(*SIZE_RANGE)
    head = tag.encode()
    return head + rng.randbytes(size - len(head))


def run_outage(seed: int, speed: HostSpeed,
               account: Optional[LayerAccount] = None) -> SimRun:
    """Build Example 2, run three clients through the outage, check."""
    from repro.core.examples import example_configuration
    from repro.errors import ReproError
    from repro.testbed import example_testbed
    from repro.verification import Operation, check_history

    tracer = account.tracer if account is not None else None
    segments = Segments(speed)
    bed, _ = example_testbed(2, seed=seed, clients=SIM_CLIENTS,
                             page_size=SIM_PAGE_SIZE)
    rng = random.Random(f"{SIM_OUTAGE}:{seed}:files")
    configs = [example_configuration(2, suite_name=f"outage-{i}")
               for i in range(SIM_FILES)]
    initial = [_sim_payload(rng, f"init{i}:") for i in range(SIM_FILES)]
    for index, config in enumerate(configs):
        bed.install(config, initial[index], client=SIM_CLIENTS[0])
        if (index + 1) % INSTALLS_PER_SEGMENT == 0:
            segments.checkpoint()
    handles = {client: [bed.suite(config, client=client)
                        for config in configs]
               for client in SIM_CLIENTS}
    segments.checkpoint()

    histories: List[List[Any]] = [[] for _ in range(SIM_FILES)]
    latencies: List[float] = []
    tally = {"attempted": 0, "failed": 0, "user_bytes": 0}
    sim = bed.sim

    def client_loop(name: str):
        picks = random.Random(f"{SIM_OUTAGE}:{seed}:{name}")
        sequence = 0
        while sim.now < horizon:
            if picks.random() < HOT_SHARE:
                index = 0
            else:
                index = picks.randrange(1, SIM_FILES)
            suite = handles[name][index]
            started = sim.now
            tally["attempted"] += 1
            if picks.random() < READ_SHARE:
                try:
                    result = yield from suite.read()
                except ReproError:
                    tally["failed"] += 1
                    continue
                histories[index].append(Operation(
                    name, "read", started, sim.now, result.version,
                    result.data))
            else:
                sequence += 1
                data = _sim_payload(picks, f"{name}#{sequence}:")
                try:
                    result = yield from suite.write(data)
                except ReproError:
                    tally["failed"] += 1
                    continue
                tally["user_bytes"] += len(data)
                histories[index].append(Operation(
                    name, "write", started, sim.now, result.version, data))
            latencies.append(sim.now - started)

    horizon = sim.now + LOAD_MS
    loop = client_loop
    if tracer is not None:
        loop = tracer.wrap(OTHER, client_loop)
    processes = [sim.spawn(loop(name), name=f"client:{name}")
                 for name in SIM_CLIENTS]
    sim.schedule(CRASH_AT_MS, bed.crash, "server-1")
    sim.schedule(CRASH_AT_MS + OUTAGE_MS, bed.restart, "server-1")

    rounds: List[Round] = []
    messages0 = bed.network.messages_sent
    events0 = sim._sequence
    own0 = account.mark()[1] if account is not None else 0
    before = speed.readings[-1]
    until = sim.now
    while until < horizon + SETTLE_MS:
        until += CHUNK_MS
        counters_before = _sim_counters(bed)
        user_before = tally["user_bytes"]
        mark = account.mark() if account is not None else None
        done_before = len(latencies)
        wall0 = time.perf_counter()
        cpu0 = time.process_time_ns()
        if tracer is not None:
            tracer.begin()
        sim.run(until=until)
        if tracer is not None:
            tracer.end()
        cpu_ns = time.process_time_ns() - cpu0
        raw_wall = time.perf_counter() - wall0
        after = speed.calibrate()
        factor = speed.scale(1.0, before, after)
        before = after
        rounds.append(Round(
            ops=len(latencies) - done_before, wall_s=raw_wall * factor,
            cpu_s=cpu_ns / 1e9 * factor, raw_wall_s=raw_wall,
            raw_cpu_s=cpu_ns / 1e9, factor=factor))
        if account is not None:
            program = _delta(_sim_counters(bed), counters_before)
            program["user.bytes"] = tally["user_bytes"] - user_before
            account.add_round(cpu_ns, factor, program, mark,
                              virtual_time=True)

    if any(process.alive for process in processes):
        raise CheckFailed("a sim-outage client was still running "
                          f"{SETTLE_MS:.0f} ms past the load window")
    for index, history in enumerate(histories):
        violations = check_history(history, install_version=1,
                                   install_data=initial[index])
        if violations:
            raise CheckFailed(f"file {index}: {violations[0]}")
    own = account.mark()[1] - own0 if account is not None else 0
    return SimRun(
        setup_s=segments.total, raw_setup_s=segments.raw, rounds=rounds,
        attempted=tally["attempted"], failed=tally["failed"],
        latencies_ms=latencies,
        messages=bed.network.messages_sent - messages0,
        events=sim._sequence - events0 - own)
