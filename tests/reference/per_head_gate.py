"""The dispatch walk as it was before the per-endpoint allowance.

``dispatch_staged`` is ``DispatchCoordinator.dispatch_staged`` as first
written: every queue head the budget lets through is put to the scheduler's
per-task gate, ``should_dispatch(scheduler, task)`` — DHA's delay mechanism
as it was (dispatch only when the target's mocked free capacity covers the
task's cores), ``True`` for every other scheduler.  Each ask reads the
endpoint monitor afresh.  The product asks
:meth:`~repro.sched.base.Scheduler.dispatch_allowance` once per endpoint
walk and spends it; ``tests/engine/test_dispatch_allowance_reference.py``
holds it to this module: the same tasks, in the same order, the same mock
counters.  Nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import List, Mapping, Optional

from repro.core.dag import STAGED_CODE, Task
from repro.engine.events import TasksDispatched

__all__ = ["dispatch_staged", "should_dispatch"]


def should_dispatch(scheduler, task: Task) -> bool:
    """The per-task gate: DHA's delay mechanism, open for anything else."""
    if not getattr(scheduler, "uses_delay_mechanism", False):
        return True
    context = scheduler.context
    store = context.graph.store
    column = store.endpoint[task._row]
    if column < 0:
        return False
    free = context.endpoint_monitor.free_capacity(store.endpoint_names[column])
    return free >= int(store.cores[task._row])


def dispatch_staged(
    coordinator, force: bool = False, budget: Optional[Mapping[str, int]] = None
) -> bool:
    """Dispatch queue heads the gate clears; True when any left."""
    engine = coordinator._engine
    store = engine.graph.store
    names = store.endpoint_names
    now = engine.clock.now
    dispatched_any = False
    batch: List[Task] = []
    batch_log: List[tuple] = []
    for endpoint, queue in coordinator._staged_queues.items():
        allowance = None if budget is None else budget.get(endpoint, 0)
        while queue:
            task = queue[0]
            row = task._row
            if store.state[row] != STAGED_CODE or names[store.endpoint[row]] != endpoint:
                queue.popleft()
                continue
            cores = int(store.cores[row])
            if allowance is not None and allowance < cores:
                break
            if not force and not should_dispatch(engine.scheduler, task):
                break
            queue.popleft()
            coordinator.dispatch(task, endpoint, now, batch, batch_log)
            if allowance is not None:
                allowance -= cores
            dispatched_any = True
    if batch:
        engine.bus.publish(
            TasksDispatched(
                time=now, count=len(batch), scalar_log=tuple(batch_log), tasks=tuple(batch)
            )
        )
    return dispatched_any
