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
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Hashable, Iterable, List, Optional, Set, Tuple, Type

from repro.engine.events import Event

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

    def unsubscribe_all(self, handler: Handler) -> bool:
        """Remove an any-event handler; returns False when not subscribed."""
        try:
            self._any_handlers.remove(handler)
        except ValueError:
            return False
        self._any_snapshot = tuple(self._any_handlers)
        return True

    def handler_count(self, event_type: Type[Event] | None = None) -> int:
        """Number of subscribed handlers (teardown/restore regression hook).

        With ``event_type``, counts that type's handlers only; without,
        counts every type-specific handler plus the any-event handlers.
        """
        if event_type is not None:
            return len(self._handlers.get(event_type, []))
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
        delivery order deterministic and stack depth bounded.
        """
        self._queue.append(event)
        if not self._draining:
            self._drain()

    def publish_many(self, events: Iterable[Event]) -> None:
        """Enqueue ``events`` together, then deliver.

        Equivalent to a handler publishing each event before any of them is
        delivered: the whole group is queued ahead of any cascade the first
        event's handlers publish.  The completion path uses this when one
        completion unlocks several endpoint-pinned successors.
        """
        self._queue.extend(events)
        if not self._draining and self._queue:
            self._drain()

    def _drain(self) -> None:
        self._draining = True
        if self._activity is not None:
            self._activity.add(self._token)
        try:
            while self._queue:
                current = self._queue.popleft()
                self.published_count += 1
                for handler in self._any_snapshot:
                    handler(current)
                for handler in self._snapshots.get(type(current), _EMPTY):
                    handler(current)
        except BaseException:
            # A handler failed mid-cascade: drop the undelivered remainder so
            # a later, unrelated publish cannot replay stale events.
            self._queue.clear()
            raise
        finally:
            self._draining = False
