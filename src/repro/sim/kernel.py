"""Discrete-event simulation kernel and clock abstractions.

The UniFaaS client, data manager, endpoints and transfer fabric are all
time-driven.  On the paper's testbed time is supplied by the wall clock; in
this reproduction the same components are driven by a discrete-event
simulation (DES) kernel so that multi-hour federated workflows can be
replayed in seconds.

Two clock implementations are provided:

* :class:`SimClock` — virtual time advanced by the :class:`SimulationKernel`.
* :class:`WallClock` — real time, used by the local (thread-pool) execution
  mode exercised in the examples.

Components never call ``time.time()`` or ``sleep`` directly; they receive a
:class:`Clock` and, when they need timed callbacks, a
:class:`SimulationKernel`.  The time is an attribute, ``clock.now``, not a
call: it is read several times per task.  A kernel has no time of its own;
its holders read ``kernel.clock.now``.

Events may be marked as *daemon* events: recurring housekeeping (endpoint
idle checks, profiler refreshes, metrics sampling) that should run while the
simulation is alive but must not keep it alive on their own.  ``run()``
without an explicit ``until`` stops once only daemon events remain.
"""

from __future__ import annotations

import heapq
import itertools
import time as _time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = [
    "Clock",
    "EventHandle",
    "SimClock",
    "SimulationKernel",
    "WallClock",
    "PeriodicHandle",
]


class Clock:
    """Abstract time source.

    Sub-classes expose :attr:`now`, the current time in seconds as a float,
    read as an attribute (a plain field on :class:`SimClock`, a property on
    :class:`WallClock`).  The origin is arbitrary (simulation start or
    process start); only differences are meaningful.
    """

    now: float


class WallClock(Clock):
    """Real wall-clock time, measured from construction."""

    def __init__(self) -> None:
        self._t0 = _time.monotonic()

    @property
    def now(self) -> float:
        return _time.monotonic() - self._t0


class SimClock(Clock):
    """Virtual clock owned by a :class:`SimulationKernel`.

    ``now`` is a plain attribute: reading simulated time costs no call.  The
    kernel writes it as it fires events; nothing else should.
    """

    def __init__(self) -> None:
        self.now = 0.0

    def _advance_to(self, t: float) -> None:
        if t < self.now:
            raise ValueError(f"cannot move simulation time backwards ({t} < {self.now})")
        self.now = t


class EventHandle:
    """A scheduled ``callback(*args)``, returned by
    :meth:`SimulationKernel.schedule` for cancellation.

    The kernel's heap holds it as ``(time, seq, handle)``: the unique ``seq``
    settles ties in C, so handles themselves are never compared.  The class
    has no ``__init__``: :meth:`SimulationKernel.schedule` and
    :meth:`~SimulationKernel.schedule_at` allocate it with ``object.__new__``
    and store its slots in place, so a scheduled event costs no constructor
    frame.  Read ``time``, ``cancelled`` and ``fired``; only :meth:`cancel`
    and the kernel write them.
    """

    __slots__ = ("time", "callback", "args", "_kernel", "daemon", "cancelled", "fired")

    time: float
    callback: Callable[..., None]
    args: tuple
    _kernel: "SimulationKernel"
    daemon: bool
    cancelled: bool
    fired: bool

    def cancel(self) -> None:
        if not self.cancelled and not self.fired:
            self.cancelled = True
            if not self.daemon:
                self._kernel._non_daemon_pending -= 1


_new_handle = object.__new__


@dataclass
class PeriodicHandle:
    """Handle for a periodic callback registered with the kernel."""

    interval: float
    callback: Callable[[], None]
    active: bool = True
    _next_handle: Optional[EventHandle] = field(init=False, default=None)

    def cancel(self) -> None:
        self.active = False
        if self._next_handle is not None:
            self._next_handle.cancel()


class SimulationKernel:
    """Minimal but complete discrete-event simulation engine.

    Events are ``(time, seq, handle)`` tuples kept in a binary heap.  The
    insertion sequence number breaks ties so that the simulation is
    deterministic.

    The kernel is intentionally free of any UniFaaS-specific knowledge: the
    FaaS fabric, data manager and schedulers register callbacks on it, which
    keeps every higher layer testable against a bare kernel.
    """

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self._queue: list[tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._non_daemon_pending = 0

    # ---------------------------------------------------------------- counts
    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of pending *non-daemon* events (the ones that drive work)."""
        return self._non_daemon_pending

    @property
    def pending_events_total(self) -> int:
        """All pending events, including daemon housekeeping."""
        return sum(1 for _, _, event in self._queue if not event.cancelled)

    # -------------------------------------------------------------- schedule
    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        daemon: bool = False,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        # schedule_at's body, inlined (one Python call per scheduled event):
        # a non-negative delay is never in the past.
        when = self.clock.now + delay
        handle = _new_handle(EventHandle)
        handle.time = when
        handle.callback = callback
        handle.args = args
        handle._kernel = self
        handle.daemon = daemon
        handle.cancelled = handle.fired = False
        heapq.heappush(self._queue, (when, next(self._seq), handle))
        if not daemon:
            self._non_daemon_pending += 1
        return handle

    def schedule_at(
        self,
        when: float,
        callback: Callable[..., None],
        *args: Any,
        daemon: bool = False,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulation time ``when``."""
        now = self.clock.now
        if when < now:
            raise ValueError(f"cannot schedule in the past ({when} < {now})")
        handle = _new_handle(EventHandle)
        handle.time = when
        handle.callback = callback
        handle.args = args
        handle._kernel = self
        handle.daemon = daemon
        handle.cancelled = handle.fired = False
        heapq.heappush(self._queue, (when, next(self._seq), handle))
        if not daemon:
            self._non_daemon_pending += 1
        return handle

    def schedule_periodic(
        self,
        interval: float,
        callback: Callable[[], None],
        *,
        start_delay: float | None = None,
        daemon: bool = False,
    ) -> PeriodicHandle:
        """Invoke ``callback()`` every ``interval`` seconds until cancelled."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        handle = PeriodicHandle(interval=interval, callback=callback)

        def _tick() -> None:
            if not handle.active:
                return
            callback()
            if handle.active:
                handle._next_handle = self.schedule(interval, _tick, daemon=daemon)

        first = interval if start_delay is None else start_delay
        handle._next_handle = self.schedule(first, _tick, daemon=daemon)
        return handle

    # ------------------------------------------------------------------- run
    def step(self) -> bool:
        """Process the next non-cancelled event.  Returns ``False`` if idle."""
        queue = self._queue
        clock = self.clock
        while queue:
            when, _, event = heapq.heappop(queue)
            if event.cancelled:
                continue
            # SimClock._advance_to, inlined (one Python call per event).
            if when < clock.now:
                raise ValueError(f"cannot move simulation time backwards ({when} < {clock.now})")
            clock.now = when
            self._events_processed += 1
            event.fired = True
            if not event.daemon:
                self._non_daemon_pending -= 1
            event.callback(*event.args)
            return True
        return False

    def run(self, until: Optional[float] = None) -> float:
        """Run the event loop.

        ``until`` is the absolute simulation time to stop at (events at
        exactly ``until`` are processed, including daemon events).  Without
        it, the loop stops when only daemon events remain — otherwise
        recurring housekeeping would keep the simulation alive forever.
        Returns the simulation time at which the loop stopped.
        """
        if until is not None and until <= self.clock.now:
            return self.clock.now
        while self._queue:
            if until is None and self._non_daemon_pending == 0:
                break
            nxt = self._peek_time()
            if nxt is None:
                break
            if until is not None and nxt > until:
                self.clock._advance_to(until)
                break
            if not self.step():
                break
        if until is not None and self.clock.now < until and not self._queue:
            self.clock._advance_to(until)
        return self.clock.now

    # ------------------------------------------------------------- internal
    def _peek_time(self) -> Optional[float]:
        while self._queue and self._queue[0][2].cancelled:
            heapq.heappop(self._queue)
        if not self._queue:
            return None
        return self._queue[0][0]
