"""A synchronous, deterministic event bus.

The orchestration engine is single-threaded by design so that the same code
path runs identically on the discrete-event simulation substrate and on real
thread-pool endpoints.  The bus therefore delivers events *synchronously* —
``publish`` returns only after every handler ran — with two guarantees the
coordinators rely on:

* **Subscription order** — handlers for an event type run in the order they
  subscribed.
* **FIFO cascades** — an event published from inside a handler is queued and
  delivered after the current event's remaining handlers, never recursively.
  Cascades of any depth are processed breadth-first in publication order, so
  a run's event sequence is a deterministic function of its inputs.

Events enter the bus one way, one at a time: :meth:`EventBus.publish`.

The bus also writes the event log.  A list attached with
:meth:`EventBus.record_to` receives every delivered event's log entries —
what :func:`~repro.engine.events.expand_event`, the definition of the log,
makes of it — at the point an any-event handler would have run, so a
recorder costs no handler call per event.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Hashable, List, Optional, Set, Tuple, Type

from repro.engine.events import BatchEvent, Event

__all__ = ["EventBus"]

Handler = Callable[[Event], None]

_EMPTY: Tuple[Handler, ...] = ()


class EventBus:
    """Synchronous publish/subscribe hub for :mod:`repro.engine.events`.

    Deliveries iterate immutable copy-on-write snapshots of the handler
    lists, rebuilt only when a subscription changes — not copied per event.
    A handler (un)subscribed *during* a delivery therefore takes effect from
    the next event on, never for the event in flight, exactly as the old
    copy-per-delivery behaviour guaranteed.
    """

    def __init__(self) -> None:
        self._handlers: Dict[Type[Event], List[Handler]] = {}
        self._any_handlers: List[Handler] = []
        #: Copy-on-write delivery snapshots (invalidated on subscription
        #: changes, shared by every delivery in between).
        self._snapshots: Dict[Type[Event], Tuple[Handler, ...]] = {}
        self._any_snapshot: Tuple[Handler, ...] = ()
        self._queue: Deque[Event] = deque()
        self._draining = False
        #: Total number of events delivered (diagnostics).
        self.published_count = 0
        #: Activity watcher (see :meth:`watch`).
        self._activity: Optional[Set[Hashable]] = None
        self._token: Hashable = None
        #: Event-log sink (see :meth:`record_to`).
        self._log: Optional[List[Tuple]] = None

    # ---------------------------------------------------------- subscription
    def subscribe(self, event_type: Type[Event], handler: Handler) -> Handler:
        """Invoke ``handler`` for every event of exactly ``event_type``.

        Returns the handler so callers can keep a reference for
        :meth:`unsubscribe`.
        """
        if not (isinstance(event_type, type) and issubclass(event_type, Event)):
            raise TypeError(f"expected an Event subclass, got {event_type!r}")
        handlers = self._handlers.setdefault(event_type, [])
        handlers.append(handler)
        self._snapshots[event_type] = tuple(handlers)
        return handler

    def subscribe_all(self, handler: Handler) -> Handler:
        """Invoke ``handler`` for every event (before type-specific handlers)."""
        self._any_handlers.append(handler)
        self._any_snapshot = tuple(self._any_handlers)
        return handler

    def handler_count(self) -> int:
        """Number of subscribed handlers, of every type and any-event
        (teardown/restore regression hook)."""
        return len(self._any_handlers) + sum(
            len(handlers) for handlers in self._handlers.values()
        )

    def unsubscribe(self, event_type: Type[Event], handler: Handler) -> bool:
        """Remove a handler; returns False when it was not subscribed."""
        handlers = self._handlers.get(event_type, [])
        try:
            handlers.remove(handler)
        except ValueError:
            return False
        self._snapshots[event_type] = tuple(handlers)
        return True

    # ------------------------------------------------------------- event log
    def record_to(self, entries: Optional[List[Tuple]]) -> None:
        """Append the event-log entries of every event delivered from now on
        to ``entries`` (``None`` detaches the log).

        A batch event contributes its ``scalar_log``, any other event the
        one entry ``(round(time, 9),) + describe()`` — entry for entry what
        :func:`~repro.engine.events.expand_event` returns — appended before
        the event's handlers run.
        """
        self._log = entries

    # -------------------------------------------------------------- activity
    def watch(self, activity: Set[Hashable], token: Hashable) -> None:
        """Add ``token`` to ``activity`` whenever this bus delivers an event.

        How a federation's run loop learns which of its tenant buses moved
        without polling each one: every bus drops its owner's token into the
        one shared set, and the loop visits exactly the owners it finds there.
        """
        self._activity = activity
        self._token = token

    def touch(self) -> None:
        """Report activity to the watcher without delivering an event (state
        the watcher reacts to moved outside any event)."""
        if self._activity is not None:
            self._activity.add(self._token)

    # ----------------------------------------------------------- publication
    def publish(self, event: Event) -> None:
        """Deliver ``event`` to its subscribers (synchronously, in order).

        Re-entrant publishes are queued FIFO: when a handler publishes, the
        new event is delivered after the in-flight event finishes, keeping
        delivery order deterministic and stack depth bounded.  The outermost
        ``publish`` drains the queue itself, so delivering an event costs
        one frame for the bus plus one per handler.  A handler that raises
        clears the undelivered remainder of its cascade.
        """
        self._queue.append(event)
        if self._draining:
            return
        self._draining = True
        if self._activity is not None:
            self._activity.add(self._token)
        queue = self._queue
        try:
            while queue:
                current = queue.popleft()
                self.published_count += 1
                log = self._log
                if log is not None:
                    # expand_event(current), without its call.
                    if isinstance(current, BatchEvent):
                        log.extend(current.scalar_log)
                    else:
                        log.append((round(current.time, 9),) + current.describe())
                for handler in self._any_snapshot:
                    handler(current)
                for handler in self._snapshots.get(type(current), _EMPTY):
                    handler(current)
        except BaseException:
            # A handler failed mid-cascade: drop the undelivered remainder so
            # a later, unrelated publish cannot replay stale events.
            queue.clear()
            raise
        finally:
            self._draining = False
