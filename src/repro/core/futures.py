"""Futures returned by UniFaaS task invocations.

Invoking a decorated function does not execute it; it returns a
:class:`UniFuture` representing the eventual result (§III-A).  Futures can be
passed as arguments to other decorated functions, which is how the dynamic
task graph is built (§III-B).

The implementation is thread-safe: the local execution fabric resolves
futures from worker threads while user code may block in :meth:`result`.
In simulation mode the orchestration engine resolves futures while the
discrete-event loop runs, so :meth:`result` is called after
``client.run()`` returns and never blocks — which is why a future creates its
``threading.Event`` only when somebody actually has to wait on it: a
simulated run makes one future per task and waits on none.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, List, Optional

__all__ = ["UniFuture", "FutureState"]


class FutureState:
    """String constants describing a future's life-cycle."""

    PENDING = "pending"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: Serialises every future's state transitions, callback registration and
#: the creation of its wait event.  One lock for all futures: the critical
#: sections are a few attribute writes, and a lock per future is a fixed cost
#: per task that a simulated run never uses.
_LOCK = threading.Lock()


class UniFuture:
    """Result placeholder for an asynchronously executed task.

    Parameters
    ----------
    task_id:
        Identifier of the task whose result this future carries.  ``None``
        for futures created outside a workflow (rare; mostly in tests).
    """

    def __init__(self, task_id: Optional[str] = None) -> None:
        self.task_id = task_id
        self._state = FutureState.PENDING
        self._result: Any = None
        self._exception: Optional[BaseException] = None
        #: Created by the first waiter that finds the future pending.
        self._event: Optional[threading.Event] = None
        self._callbacks: List[Callable[["UniFuture"], None]] = []

    # ------------------------------------------------------------ inspection
    @property
    def state(self) -> str:
        return self._state

    def done(self) -> bool:
        """True once the future holds a result, an exception, or is cancelled."""
        return self._state != FutureState.PENDING

    def cancelled(self) -> bool:
        return self._state == FutureState.CANCELLED

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """Return the exception set on the future (``None`` if it succeeded)."""
        self._wait(timeout)
        return self._exception

    # -------------------------------------------------------------- resolve
    def set_result(self, value: Any) -> None:
        with _LOCK:
            if self.done():
                raise RuntimeError(f"future for task {self.task_id} already resolved")
            self._result = value
            self._state = FutureState.DONE
        self._resolved()

    def set_exception(self, exc: BaseException) -> None:
        with _LOCK:
            if self.done():
                raise RuntimeError(f"future for task {self.task_id} already resolved")
            self._exception = exc
            self._state = FutureState.FAILED
        self._resolved()

    def cancel(self) -> bool:
        """Mark the future cancelled.  Returns ``False`` if already resolved."""
        with _LOCK:
            if self.done():
                return False
            self._state = FutureState.CANCELLED
        self._resolved()
        return True

    # --------------------------------------------------------------- consume
    def result(self, timeout: Optional[float] = None) -> Any:
        """Return the task result, blocking up to ``timeout`` seconds.

        Raises the task's exception if it failed, :class:`TimeoutError` if
        the result is not available in time, and :class:`RuntimeError` if the
        future was cancelled.
        """
        self._wait(timeout)
        if self._state == FutureState.CANCELLED:
            raise RuntimeError(f"task {self.task_id} was cancelled")
        if self._exception is not None:
            raise self._exception
        return self._result

    def add_done_callback(self, fn: Callable[["UniFuture"], None]) -> None:
        """Call ``fn(self)`` when the future resolves (immediately if done)."""
        with _LOCK:
            if not self.done():
                self._callbacks.append(fn)
                return
        fn(self)

    # -------------------------------------------------------------- internal
    def _wait(self, timeout: Optional[float]) -> None:
        if self.done():
            return
        with _LOCK:
            if self.done():
                return
            if self._event is None:
                self._event = threading.Event()
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"result for task {self.task_id} not available within {timeout} s"
            )

    def _resolved(self) -> None:
        """Wake the waiters and run the callbacks of a future that just left
        PENDING (outside the lock: a callback may touch other futures).

        Once the state is no longer PENDING nobody appends a callback or
        creates the wait event any more — both check ``done()`` under the
        lock first — so reading them here without it is safe.
        """
        if self._event is not None:
            self._event.set()
        for callback in self._callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UniFuture(task_id={self.task_id!r}, state={self._state!r})"
