"""Which entry points of the ``repro`` stack belong to which layer.

:func:`install` patches each layer's public entry points -- where their
callers look them up -- with :class:`~perfbench.layers.LayerTracer`
wrappers.  It must run before the system under test is built, because
constructors capture bound methods (RPC handler registration, transport
callbacks).  Layers are named after modules:

========================  =============================================
layer                     entry points
========================  =============================================
``live.codec``            the codec functions ``live.transport`` imports
``live.transport``        ``TransportNode`` / connection send, flush, receive
``rpc``                   ``RpcEndpoint`` call, dispatch, serve, expire
``kernel``                sim ``Simulator`` / ``Process`` / ``Event``,
                          ``LiveKernel`` pump
``core.suite``            ``FileSuiteClient`` operations, ``install_suite``
``core.refresh``          ``BackgroundRefresher``
``txn``                   coordinator, participant, ``LockManager``
``storage``               ``StorageServer``, stable store, page stores
``obs``                   trace collector, spans, metrics registry
``sim.network``           simulated ``Network`` send and delivery
========================  =============================================
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from .layers import OTHER, LayerTracer, Probes

LAYERS = ("live.codec", "live.transport", "rpc", "kernel", "core.suite",
          "core.refresh", "txn", "storage", "obs", "sim.network", OTHER)


def install(tracer: LayerTracer, probes: Probes) -> Dict[str, Any]:
    """Patch every layer; returns handles the workloads read counts from.

    The returned ``lock_wait`` dict accumulates ``ms`` of lock waiting
    and ``own_events``, the kernel callbacks this instrumentation itself
    scheduled (subtracted from the kernel's event count).
    """
    from repro.core import refresh, suite
    from repro.live import runtime, server, transport
    from repro.obs import collector, spans
    from repro.rpc import endpoint
    from repro.sim import events, metrics, network, process, simulator
    from repro.storage import pages, stable
    from repro.storage import server as storage_server
    from repro import testbed
    from repro.txn import coordinator, locks, participant

    def timed(layer: str, owner: Any, names: List[str],
              hook: Callable[..., None] = None) -> None:
        for name in names:
            original = owner.__dict__[name]
            probes.patch(owner, name, tracer.wrap(layer, original, hook))

    # live.codec: patched in the transport module, where they are called.
    def encoded(result: bytes, *args: Any, **kwargs: Any) -> None:
        tracer.count("codec.bytes", len(result))

    timed("live.codec", transport, ["encode_binary_body", "encode_json_body"],
          encoded)
    timed("live.codec", transport, ["encode_batch_body", "decode_wire_body"])

    timed("live.transport", transport.TransportNode,
          ["send", "_send_now", "_inbound"])
    timed("live.transport", transport._Connection,
          ["send", "_flush", "data_received"])

    timed("rpc", endpoint.RpcEndpoint,
          ["call", "call_with_retries", "dispatch_message", "_serve",
           "_dispatch_request", "_handle", "_dispatch_reply",
           "_retransmit_or_expire", "_expire"])

    timed("kernel", simulator.Simulator,
          ["run", "run_until", "step", "spawn"])
    timed("kernel", runtime.LiveKernel, ["_run_due", "wrap_awaitable"])
    timed("kernel", process.Process, ["_resume", "_throw"])
    timed("kernel", events.Event, ["trigger", "fail"])
    for kernel in (simulator.Simulator, runtime.LiveKernel):
        probes.patch(kernel, "schedule",
                     tracer.counter("kernel.events",
                                    kernel.__dict__["schedule"]))

    def attempt(result: Any, *args: Any, **kwargs: Any) -> None:
        tracer.count("suite.attempts")

    timed("core.suite", suite.FileSuiteClient,
          ["read", "write", "read_in", "write_in", "transact",
           "current_version"])
    timed("core.suite", suite.FileSuiteClient, ["_read_once", "_write_once"],
          attempt)
    for module in (runtime, testbed):
        probes.patch(module, "install_suite",
                     tracer.wrap("core.suite", suite.install_suite))

    timed("core.refresh", refresh.BackgroundRefresher,
          ["schedule", "_refresh", "_attempt"])

    lock_wait = {"ms": 0.0, "own_events": 0}

    def acquired(event: Any, manager: Any, *args: Any, **kwargs: Any
                 ) -> None:
        if not tracer.active or not event.pending:
            return
        started = manager.sim.now
        lock_wait["own_events"] += 1

        def granted(settled: Any) -> None:
            lock_wait["ms"] += manager.sim.now - started

        event.add_callback(granted)

    def prepared(result: Any, *args: Any, **kwargs: Any) -> None:
        tracer.count("txn.prepares")

    timed("txn", coordinator.TransactionManager, ["begin", "commit", "abort"])
    timed("txn", coordinator.Transaction, ["call"])
    timed("txn", participant.TransactionParticipant,
          ["read", "read_version", "stat", "stage_write", "stage_delete",
           "commit", "abort"])
    timed("txn", participant.TransactionParticipant, ["prepare"], prepared)
    timed("txn", locks.LockManager, ["acquire"], acquired)
    timed("txn", locks.LockManager, ["release_all"])

    def page_written(result: Any, store: Any, address: int, data: bytes
                     ) -> None:
        tracer.count("storage.page_writes")
        tracer.count("storage.page_bytes", len(data))

    timed("storage", storage_server.StorageServer,
          ["execute", "read_file", "read_file_limited", "write_file",
           "create_file", "delete_file", "stat"])
    timed("storage", stable.StableStore, ["write", "read"])
    timed("storage", pages.PageStore, ["read"])
    timed("storage", pages.PageStore, ["write"], page_written)
    timed("storage", server.FilePageStore, ["write"])

    def span_started(result: Any, *args: Any, **kwargs: Any) -> None:
        if result:
            tracer.count("obs.spans")

    timed("obs", collector.TraceCollector, ["start_trace", "start_span"],
          span_started)
    timed("obs", spans.Span, ["end", "event", "set_attr"])
    timed("obs", metrics.MetricsRegistry, ["counter", "gauge", "histogram"])
    timed("obs", metrics.Counter, ["increment"])
    timed("obs", metrics.Histogram, ["observe"])

    def sent(result: Any, net: Any, source: str, destination: str,
             payload: Any) -> None:
        tracer.count("network.bytes", network.estimate_size(payload))

    timed("sim.network", network.Network, ["send"], sent)
    timed("sim.network", network.Network, ["_deliver"])
    return {"lock_wait": lock_wait}
