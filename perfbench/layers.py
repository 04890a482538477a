"""Per-layer CPU attribution from the benchmark's own files.

:class:`LayerTracer` wraps a layer's entry points and charges process
CPU *exclusively* to the innermost active layer through a stack: time
is charged to whatever is on top of the stack whenever the stack
changes, and time with no layer active goes to ``other`` (event loop,
sockets, glue).  The protocol code is written as generators, so a
wrapped call that returns a generator gets a wrapped generator back,
and each *resume* of it is timed -- not the call that created it.

Charging only happens between :meth:`LayerTracer.begin` and
:meth:`LayerTracer.end`; outside a window wrappers still keep the stack
but record nothing.  Because every charge closes the interval opened by
the previous one, the layer totals plus ``other`` must add up to the
process CPU of the window; :func:`closure_gap` checks that.
"""

from __future__ import annotations

import functools
import time
import types
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

OTHER = "other"


class LayerTracer:
    """Exclusive-time accounting over a stack of named layers."""

    def __init__(self, clock: Callable[[], int] = time.process_time_ns
                 ) -> None:
        self.clock = clock
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.active = False
        self._stack: List[str] = [OTHER]
        self._last = 0

    # -- windows -------------------------------------------------------------

    def begin(self) -> None:
        """Start charging (the totals keep accumulating)."""
        self._last = self.clock()
        self.active = True

    def end(self) -> None:
        """Stop charging; the open interval goes to the top layer."""
        if self.active:
            self.self_ns[self._stack[-1]] += self.clock() - self._last
            self.active = False

    def take(self) -> Tuple[Dict[str, int], Dict[str, float]]:
        """Return and reset the totals gathered so far."""
        taken = dict(self.self_ns), dict(self.counts)
        self.self_ns.clear()
        self.counts.clear()
        return taken

    @property
    def depth(self) -> int:
        return len(self._stack) - 1

    # -- stack ---------------------------------------------------------------

    def enter(self, layer: str) -> None:
        if self.active:
            now = self.clock()
            self.self_ns[self._stack[-1]] += now - self._last
            self._last = now
        self._stack.append(layer)

    def exit(self) -> None:
        if self.active:
            now = self.clock()
            self.self_ns[self._stack[-1]] += now - self._last
            self._last = now
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        if self.active:
            self.counts[name] += amount

    # -- wrappers ------------------------------------------------------------

    def wrap(self, layer: str, function: Callable[..., Any],
             hook: Optional[Callable[..., None]] = None
             ) -> Callable[..., Any]:
        """``function`` charged to ``layer``; generators per resume.

        ``hook(result, *args, **kwargs)`` runs after each call (inside
        the layer) to record counts from the call's result.
        """
        tracer = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            tracer.enter(layer)
            try:
                result = function(*args, **kwargs)
                if hook is not None:
                    hook(result, *args, **kwargs)
            finally:
                tracer.exit()
            if type(result) is types.GeneratorType:
                return tracer.wrap_generator(layer, result)
            return result

        return traced

    def wrap_generator(self, layer: str, generator: Any) -> Iterator[Any]:
        """A transparent generator that times each resume of ``generator``.

        send/throw/close are forwarded exactly, so the wrapper can stand
        in for the original under ``yield from`` and kernel ``send``.
        """
        wrapped = self._drive(layer, generator)
        wrapped.__name__ = generator.__name__          # type: ignore
        wrapped.__qualname__ = generator.__qualname__  # type: ignore
        return wrapped

    def _drive(self, layer: str, generator: Any) -> Any:
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            self.enter(layer)
            try:
                if error is not None:
                    pending, error = error, None
                    item = generator.throw(pending)
                else:
                    item = generator.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                self.exit()
            try:
                value = yield item
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as exc:  # forwarded into the generator
                value, error = None, exc

    def counter(self, name: str, function: Callable[..., Any]
                ) -> Callable[..., Any]:
        """``function`` untimed, but counted under ``name`` per call."""
        tracer = self

        @functools.wraps(function)
        def counted(*args: Any, **kwargs: Any) -> Any:
            if tracer.active:
                tracer.counts[name] += 1
            return function(*args, **kwargs)

        return counted


class Probes:
    """Patches attributes for the life of a ``with`` block."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Probes":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()


def closure_gap(attributed_ns: int, window_cpu_ns: int) -> float:
    """Share of the window's CPU the layer totals fail to account for.

    Signed: positive means time went unattributed, negative means some
    was counted twice.
    """
    if window_cpu_ns <= 0:
        raise ValueError("empty traced window")
    return (window_cpu_ns - attributed_ns) / window_cpu_ns
