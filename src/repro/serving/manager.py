"""The run loop: N workflows over one federation.

:class:`WorkflowManager` holds the tenants of a
:class:`~repro.serving.federation.Federation` — the shared substrate of
Fig. 1, built once — their arbitration and the only run loop in the package.
Each tenant is a :class:`WorkflowHandle` around an
:class:`~repro.engine.core.ExecutionEngine` (task graph, task index, event
bus, metrics, coordinators and scheduler), with workflow-namespaced task ids
so the shared replica store's pins, sole-replica licenses and per-ticket
volume accounting never alias between tenants.

The paper's single-workflow client (:class:`~repro.core.client.UniFaaSClient`)
is this manager with one tenant, namespace ``""`` and no arbitration: the
tenant's scheduler sees the whole federation.  With an
:class:`~repro.serving.arbitration.ArbitrationPolicy` a pump round splits
the federation's free capacity between the workflows that have demand (FIFO
/ fair-share weighted by owner / strict-priority / EDF), hands every
workflow's scheduler its slice (capacity-slicing hook on
:class:`~repro.sched.base.Scheduler`), pumps the workflows that are due, and
dispatches each workflow's staged tasks within its budget — merging
placements deterministically by iterating workflows in arrival order.  What
a round costs follows what moved since the last one, not how many workflows
are active: :meth:`WorkflowManager.run` states the contract.  Workflow
arrivals may be staggered: an arrival is scheduled on the simulation kernel
(the same mechanism the dynamics layer uses), the workflow's DAG is built
when its arrival comes due.  An endpoint-dynamics event on the federation's
control bus is met once by the substrate (:meth:`Federation.react
<repro.serving.federation.Federation.react>`), then relayed to every tenant
bus, in arrival order, for the tenants' own reactions.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from repro.core.dag import TaskState
from repro.core.exceptions import SchedulingError
from repro.core.functions import FederatedFunction, set_current_client
from repro.data.manager import task_namespace
from repro.engine.core import ExecutionEngine
from repro.engine.events import (
    ColdStartWindow,
    EndpointCrashed,
    EndpointRejoined,
    NetworkDegraded,
    NetworkRestored,
    StatusStalenessChanged,
    WorkerChurn,
)
from repro.metrics.collector import MetricsCollector, WorkflowSummary, percentile
from repro.sched.base import Scheduler
from repro.serving.arbitration import (
    ArbitrationPolicy,
    TenantShare,
    create_arbitration,
)
from repro.serving.federation import Federation

__all__ = [
    "ENGINE_ATTRS",
    "ServingSummary",
    "WorkflowHandle",
    "WorkflowManager",
    "jain_index",
]

#: Engine components a composition surface (:class:`WorkflowHandle`, and the
#: single-workflow :class:`~repro.core.client.UniFaaSClient`) re-exposes
#: under their historical client attribute names — what workload builders
#: and experiments read.
ENGINE_ATTRS = frozenset(
    {
        "config",
        "fabric",
        "clock",
        "graph",
        "bus",
        "task_monitor",
        "endpoint_monitor",
        "execution_profiler",
        "transfer_profiler",
        "data_manager",
        "plan_service",
        "scheduler",
        "metrics",
        "context",
    }
)

#: Dynamics event types the run loop relays from the control bus to tenant buses.
_DYNAMICS_EVENTS = (
    EndpointCrashed,
    EndpointRejoined,
    WorkerChurn,
    ColdStartWindow,
    NetworkDegraded,
    NetworkRestored,
    StatusStalenessChanged,
)

# Per-tenant reads the run loop gathers over a list of handles without a
# Python-level call per tenant.
_ARRIVAL_ORDER = attrgetter("arrival_s", "workflow_id")
_PERIODIC_DUE_AT = attrgetter("engine.periodic.due_at")
_STAGED_VERSION = attrgetter("engine.graph.store.staged_version")


def jain_index(values: List[float]) -> float:
    """Jain's fairness index over ``values`` (1.0 = perfectly even).

    ``J = (Σx)² / (n · Σx²)``; an empty or all-zero vector is perfectly
    fair by convention.
    """
    if not values:
        return 1.0
    square_sum = sum(v * v for v in values)
    if square_sum == 0.0:
        return 1.0
    total = sum(values)
    return (total * total) / (len(values) * square_sum)


class WorkflowHandle:
    """One tenant workflow under a :class:`WorkflowManager`.

    Behaves like a :class:`~repro.core.client.UniFaaSClient` for workflow
    composition — decorated-function invocations inside a ``with handle:``
    block register tasks on this workflow's engine, and the engine's
    components read under the same attribute names — while the manager
    drives execution.
    """

    def __init__(
        self,
        manager: "WorkflowManager",
        workflow_id: str,
        engine: ExecutionEngine,
        *,
        owner: str,
        weight: float,
        priority: int,
        arrival_s: float,
        deadline_s: Optional[float] = None,
        builder: Optional[Callable[["WorkflowHandle"], object]],
    ) -> None:
        self._manager = manager
        self.workflow_id = workflow_id
        self.engine = engine
        self.owner = owner
        self.weight = weight
        self.priority = priority
        self.arrival_s = arrival_s
        #: Absolute SLO deadline on the simulation clock (EDF arbitration).
        self.deadline_s = float("inf") if deadline_s is None else float(deadline_s)
        self.builder = builder
        #: What the arbitration policy sees of this tenant, fixed here: its
        #: FIFO key is the arrival time (ties broken on the id), which a
        #: retirement or a later registration never moves.
        self.share = TenantShare(
            workflow_id=workflow_id,
            weight=weight,
            priority=priority,
            arrival_index=arrival_s,
            deadline=self.deadline_s,
        )
        self.started = False
        self.finished = False
        self.paused = False
        self.cancelled = False
        self.retired = False
        #: Attributed transfer volume, frozen at retirement (the shared data
        #: manager's per-namespace entry is released then).
        self._attributed_mb: Optional[float] = None

    # -------------------------------------------------- client-like facade
    def __getattr__(self, name: str):
        # Only consulted for names not found the normal way.
        if name in ENGINE_ATTRS:
            return getattr(self.engine, name)
        raise AttributeError(f"{type(self).__name__!s} object has no attribute {name!r}")

    def submit(self, fn: FederatedFunction, args: tuple, kwargs: Dict[str, object]):
        """Register one invocation of ``fn`` (called by the decorator)."""
        return self.engine.submit(fn, args, kwargs)

    def __enter__(self) -> "WorkflowHandle":
        set_current_client(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        set_current_client(None)
        if exc_type is not None:
            # An aborted composition block must not leave a half-built
            # workflow pending: cancel so its arrival event never fires it.
            self.cancel()

    # ------------------------------------------------------------ lifecycle
    def pause(self) -> None:
        """Stop pumping this workflow (in-flight fabric tasks still drain)."""
        self.paused = True
        self._manager._membership_changed()

    def resume(self) -> None:
        self.paused = False
        self._manager._membership_changed()

    def cancel(self) -> None:
        """Cancel this workflow.

        Before arrival: the workflow never activates (its pending arrival
        event becomes a no-op).  Mid-run: the manager stops placing and
        dispatching its work; tasks already on the fabric drain normally.
        Idempotent, and safe to call on a finished workflow.
        """
        if self.cancelled or self.finished:
            return
        self.cancelled = True
        self._manager._finish(self)

    def summary(self) -> WorkflowSummary:
        """This workflow's summary, with its own attributed transfer volume."""
        if self._attributed_mb is not None:
            return self.engine.metrics.summary(self._attributed_mb)
        return self.engine.metrics.summary(
            self.engine.data_manager.volume_by_namespace_mb.get(self.workflow_id, 0.0)
        )


@dataclass
class ServingSummary:
    """End-of-run report of a multi-workflow serving run."""

    policy: str
    makespan_s: float
    total_tasks: int
    completed_tasks: int
    failed_tasks: int
    total_transferred_mb: float
    #: Jain's index over per-workflow mean wait times (1.0 = perfectly even).
    jain_fairness: float
    #: p95 across workflows of the per-workflow mean wait time (the worst
    #: tenants' experience — what fair-share arbitration compresses).
    wait_time_p95_s: float
    workflows: Dict[str, WorkflowSummary] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "makespan_s": self.makespan_s,
            "total_tasks": self.total_tasks,
            "completed_tasks": self.completed_tasks,
            "failed_tasks": self.failed_tasks,
            "total_transferred_mb": self.total_transferred_mb,
            "jain_fairness": self.jain_fairness,
            "wait_time_p95_s": self.wait_time_p95_s,
            "workflows": {
                wid: summary.as_dict() for wid, summary in self.workflows.items()
            },
        }


class WorkflowManager:
    """Run N concurrent workflows over one shared federation."""

    #: Consecutive no-progress rounds before forced dispatch is attempted.
    stall_soft_rounds: int = 10
    #: Hard ceiling on consecutive no-progress rounds.  Forced dispatch may
    #: legitimately wait, but a federation that makes no progress for this
    #: many rounds can never recover — raise instead of spinning forever.
    stall_hard_rounds: int = 1000

    def __init__(
        self,
        federation: Federation,
        *,
        arbitration: Union[str, ArbitrationPolicy, None] = "fair_share",
    ) -> None:
        #: The shared substrate every tenant engine is built on.
        self.federation = federation
        #: Cross-workflow arbitration; ``None`` (the single-workflow client)
        #: hands the one tenant the whole federation — no capacity slice, no
        #: dispatch budget.
        self.policy: Optional[ArbitrationPolicy] = (
            arbitration
            if arbitration is None or isinstance(arbitration, ArbitrationPolicy)
            else create_arbitration(arbitration)
        )

        # Dynamics reach the shared substrate once, then every tenant bus
        # (:meth:`_forward_dynamics`).  Every subscription is recorded so
        # :meth:`shutdown` can release it.
        self._subscriptions: List = []
        for event_type in _DYNAMICS_EVENTS:
            federation.bus.subscribe(event_type, self._forward_dynamics)
            self._subscriptions.append((event_type, self._forward_dynamics))

        self._workflows: Dict[str, WorkflowHandle] = {}
        self._ordered: List[WorkflowHandle] = []
        #: Started, unfinished, unpaused workflows in arrival order, and their
        #: arbitration shares — rebuilt only when membership changes.
        self._active: List[WorkflowHandle] = []
        self._shares: List[TenantShare] = []
        #: Registered workflows not yet activated / not yet finished.
        self._unstarted = 0
        self._unfinished = 0
        #: Tenants the next pump visits.  Every tenant bus drops its handle
        #: here when it delivers an event (``EventBus.watch``); a tenant
        #: joining the active set starts here, and one whose visit left work
        #: behind (``ExecutionEngine.pump_due``) is put back.
        self._due: Set[WorkflowHandle] = set()
        # Running aggregates over the active set — what arbitration reads
        # instead of asking every tenant every round.  Tenants enter and
        # leave in ``_membership_changed``.
        #: endpoint -> Σ placed-but-undispatched tasks (the claims); the
        #: tenant stores write through (``TaskStore.share_pending``).
        self._claims: Dict[str, int] = {}
        #: workflow id -> queued + placed-but-undispatched tasks as of the
        #: tenant's last visit (every change of either is announced on the
        #: tenant's bus, so a tenant whose demand moved is due) ...
        self._demand_size: Dict[str, int] = {}
        #: ... and the same spread over the endpoints, the shape a policy
        #: takes (the placement demand is an upper bound on any endpoint).
        self._demand: Dict[str, Dict[str, int]] = {}
        #: workflow id -> the tenant store's live ``staged_cores`` dict.
        self._staged: Dict[str, Dict[str, int]] = {}
        #: Mocked free workers per endpoint, re-read when the monitor's
        #: ``state_version`` moves.
        self._free: Dict[str, int] = {}
        self._free_version = -1
        # Arbitration fingerprints: the inputs of the last placement /
        # dispatch allocation and what it granted.  ``None`` forces the next.
        self._placement_fingerprint: Optional[tuple] = None
        self._slices: Dict[str, Dict[str, int]] = {}
        self._dispatch_fingerprint: Optional[tuple] = None
        self._budgeted: List[Tuple[WorkflowHandle, Dict[str, int]]] = []
        #: Earliest clock time any active tenant's periodic duty, or the
        #: federation's profiler refit, can fire.
        self._cadence_at = float("-inf")
        #: The active set changed, or a dispatch grant went unconsumed, since
        #: the last pump: the next round must pump.
        self._dirty = False
        #: ``bus.published_count`` at the last pump (a control-bus event since
        #: then makes the next round pump).
        self._control_settled = 0
        self._arrival_handles: Dict[str, object] = {}
        self._shut_down = False
        self._started_at: Optional[float] = None
        self._finished_at: Optional[float] = None
        #: Streaming hooks.  ``completion_hold`` keeps :meth:`run` alive while
        #: an external source (the admission controller) still owes arrivals
        #: even though every *registered* workflow has finished;
        #: ``on_workflow_finished`` fires once per workflow as it completes —
        #: the retirement trigger.
        self.completion_hold: Optional[Callable[[], bool]] = None
        self.on_workflow_finished: Optional[Callable[[WorkflowHandle], None]] = None
        #: All-time counters that survive retirement (summary aggregates).
        self.retired_count = 0

    # ------------------------------------------------------------ workflows
    def add_workflow(
        self,
        workflow_id: Optional[str] = None,
        *,
        owner: str = "",
        weight: float = 1.0,
        priority: int = 0,
        arrival_s: float = 0.0,
        deadline_s: Optional[float] = None,
        builder: Optional[Callable[[WorkflowHandle], object]] = None,
        scheduler: Optional[Scheduler] = None,
        metrics: Optional[MetricsCollector] = None,
    ) -> WorkflowHandle:
        """Register one tenant workflow.

        ``builder`` (if given) composes the DAG when the workflow's
        ``arrival_s`` comes due — staggered multi-tenant arrivals; without
        one, compose eagerly through ``with handle: ...`` before ``run()``.
        ``weight`` feeds fair-share arbitration, ``priority`` the
        strict-priority policy, and ``deadline_s`` (an absolute simulation
        time; the streaming admission layer sets admit time + SLO) the
        earliest-deadline-first policy.  The id namespaces the workflow's
        task ids; ``""`` (the single-workflow client) leaves them bare.
        """
        if weight <= 0:
            raise ValueError("workflow weight must be positive")
        if arrival_s < 0:
            raise ValueError("arrival_s must be non-negative")
        if workflow_id is None:
            workflow_id = f"wf{len(self._workflows)}"
        if workflow_id in self._workflows:
            raise ValueError(f"duplicate workflow id {workflow_id!r}")
        if "/" in workflow_id:
            raise ValueError("workflow ids must not contain '/' (the namespace separator)")
        engine = ExecutionEngine(
            self.federation, scheduler=scheduler, metrics=metrics, namespace=workflow_id
        )
        engine.metrics.tenant = owner or workflow_id
        handle = WorkflowHandle(
            self,
            workflow_id,
            engine,
            owner=owner or workflow_id,
            weight=weight,
            priority=priority,
            arrival_s=arrival_s,
            deadline_s=deadline_s,
            builder=builder,
        )
        engine.bus.watch(self._due, handle)
        self._workflows[workflow_id] = handle
        self._unstarted += 1
        self._unfinished += 1
        # Deterministic tenant order regardless of registration interleaving.
        self._ordered = sorted(self._workflows.values(), key=_ARRIVAL_ORDER)
        self._membership_changed()
        kernel = getattr(self.federation.fabric, "kernel", None)
        if kernel is not None and arrival_s > self.federation.clock.now:
            # A real (non-daemon) kernel event, like the dynamics layer's
            # timeline: the simulation advances to the arrival even when the
            # already-running workflows drain first.  The handle is kept so
            # :meth:`shutdown` can cancel arrivals a discarded manager owns.
            # Workflows arriving *now* (streaming admissions inside the run
            # loop) skip the event: ``_activate_due`` picks them up on the
            # current round.
            self._arrival_handles[workflow_id] = kernel.schedule_at(
                arrival_s, self._activate, handle
            )
        return handle

    def workflow(self, workflow_id: str) -> WorkflowHandle:
        return self._workflows[workflow_id]

    def workflows(self) -> List[WorkflowHandle]:
        """Handles in deterministic arrival order."""
        return list(self._ordered)

    # ------------------------------------------------------------------ run
    def run(self, max_wall_time_s: Optional[float] = None) -> None:
        """Drive every registered workflow to completion — the one run loop.

        A round advances the fabric, delivers its completion records, runs
        the cadences that are due, and pumps (growth → placement → dispatch)
        the tenants that are due.  Its cost follows what moved, not how many
        tenants are active:

        * **Cadences.**  ``_cadence_at`` is the minimum of the federation's
          refit deadline and, over the active tenants, of
          ``PeriodicCoordinator.due_at`` — itself the minimum of that
          tenant's sync, re-schedule and metrics-sample timers and the
          placement service's own gate.  Until the clock reaches it nothing
          periodic runs; then, while some tenant is active, the shared
          profilers are refit once if ``profiler_update_interval_s`` has
          passed since the last refit, and the tenants whose own ``due_at``
          has come are checked, in arrival order.  A control-bus event
          (dynamics may leave the plan stale) checks every tenant.
        * **Due set.**  A tenant is visited by the pump when its bus
          delivered an event since its last growth drain — completion
          records, a staging ticket, a forwarded dynamics event, its own
          placement or dispatch last round — when it joined the active set,
          when a task was submitted to it without an event, or when its last
          visit left work behind (``ExecutionEngine.pump_due``: a ready task
          still queued; mocking disabled).  Tenants holding a non-empty
          dispatch budget are visited for dispatch on top.
        * **Incremental aggregates.**  Nothing is summed over the tenants per
          round.  Each tenant's ``TaskStore`` keeps its terminal count, its
          undispatched count and its staged cores per endpoint as plain
          values, updated where task state and endpoint change; an active
          tenant's store writes its placed-but-undispatched counts through
          to ``_claims``; ``_demand`` is refreshed for visited
          tenants only; ``_staged`` holds the stores' live dicts.  Tenants
          enter and leave all of them in ``_membership_changed``.
        * **Arbitration fingerprint.**  ``policy.allocate`` is re-run only
          when the capacity vector, the demand vector, the share list or
          ``policy.state_version`` moved (:meth:`_pump_arbitrated`).
        * **Skipped rounds.**  With no record, nobody due, the control bus
          quiet and no dispatch grant left unconsumed, the round does not
          pump at all: two of a task's three kernel events (batch delivery at
          the endpoint, the endpoint-internal finish) change nothing any
          engine can observe.

        Raises :class:`SchedulingError` when the federation stalls (no
        workflow can make progress and no arrival is pending).  However the
        run ends, the history rows observed so far are committed.
        """
        if not self._workflows and self.completion_hold is None:
            return
        federation = self.federation
        fabric, clock = federation.fabric, federation.clock
        monitor = federation.endpoint_monitor
        for name in fabric.endpoint_names():
            if name not in monitor.endpoint_names():
                monitor.register(name)
        for handle in self._ordered:
            if handle.finished and not handle.cancelled and handle.engine.graph.unfinished_count():
                # Composed further since an earlier run() finished it.
                handle.finished = False
                self._unfinished += 1
                handle.engine.start()
                self._membership_changed()
        if self._started_at is None:
            self._started_at = clock.now
        wall_start = _time.monotonic()
        stall_rounds = 0
        try:
            while self._unfinished or (
                # The arrival stream still owes work (pending arrivals, queued
                # admissions): an empty or fully-drained tenant set is not the
                # end of the run.
                self.completion_hold is not None and self.completion_hold()
            ):
                if max_wall_time_s is not None and _time.monotonic() - wall_start > max_wall_time_s:
                    raise SchedulingError(
                        f"run exceeded the wall-time budget of {max_wall_time_s} s"
                    )
                activated = self._unstarted > 0 and self._activate_due()
                records = fabric.process()
                if records:
                    self._deliver(records)
                    if federation.history_on_disk:
                        federation.task_monitor.store.flush()
                active = self._active
                now = clock.now
                control = federation.bus.published_count != self._control_settled
                if active and (control or now >= self._cadence_at):
                    if now - federation.last_refit >= federation.config.profiler_update_interval_s:
                        federation.refit(now)
                    for handle in active:
                        periodic = handle.engine.periodic
                        if control or now >= periodic.due_at:
                            periodic.check()
                    self._cadence_at = min(min(map(_PERIODIC_DUE_AT, active)), federation.refit_at)
                if now - federation.last_scaling_check >= federation.scaling_check_interval_s:
                    federation.last_scaling_check = now
                    federation.scale_now()
                due = bool(records) or self._dirty or control or bool(self._due)
                progressed = due and self._pump(active)
                if activated or records or progressed or fabric.pending_work():
                    stall_rounds = 0
                    continue
                stall_rounds += 1
                if stall_rounds >= self.stall_hard_rounds:
                    counts = {
                        h.workflow_id: h.engine.graph.counts() for h in self._ordered
                    }
                    raise SchedulingError(
                        f"run stalled: no progress for {stall_rounds} rounds; "
                        f"task states: {counts}"
                    )
                if (
                    stall_rounds > self.stall_soft_rounds
                    and federation.config.enable_delay_mechanism
                ):
                    # Delay-mechanism deadlock on an empty pool: force the staged
                    # queue heads out, in arrival order.  (Without the mechanism
                    # the dispatch gate is open and the next pump retries.)
                    for handle in active:
                        if handle.engine.dispatch.dispatch_staged(force=True):
                            break
        finally:
            # However the loop ends (stall, wall-time budget, a builder's
            # exception, Ctrl-C), the rows observed so far stay.
            if federation.task_monitor.store is not None:
                federation.task_monitor.store.flush()
        self._finished_at = clock.now
        fabric.flush()

    # ------------------------------------------------------------- teardown
    def shutdown(self) -> None:
        """Release this manager's shared-kernel footprint (idempotent).

        Cancels every pending workflow-arrival event and unsubscribes the
        control bus's dynamics handlers, so a manager discarded mid-run —
        orchestrator crash recovery, an aborted ``with`` block, or a restore
        replacing it — never double-fires handlers or activates workflows
        alongside its successor.
        """
        if self._shut_down:
            return
        self._shut_down = True
        for event_handle in self._arrival_handles.values():
            event_handle.cancel()
        self._arrival_handles.clear()
        for event_type, handler in self._subscriptions:
            self.federation.bus.unsubscribe(event_type, handler)
        self._subscriptions.clear()

    # ------------------------------------------------------------- internals
    def _membership_changed(self) -> None:
        """Rebuild the cached active list and its list of arbitration shares
        (each handle keeps its own); tenants entering or leaving it join or
        leave the running aggregates."""
        active = [h for h in self._ordered if h.started and not h.finished and not h.paused]
        staying = set(active)
        for handle in self._active:
            if handle not in staying:
                handle.engine.active = False
                handle.engine.graph.store.share_pending(None)
                del self._demand_size[handle.workflow_id]
                del self._demand[handle.workflow_id]
                del self._staged[handle.workflow_id]
                self._due.discard(handle)
        for handle in active:
            if not handle.engine.active:
                handle.engine.active = True
                handle.engine.graph.store.share_pending(self._claims)
                # Demand is read at the tenant's first visit, which is next.
                self._demand_size[handle.workflow_id] = 0
                self._demand[handle.workflow_id] = {}
                self._staged[handle.workflow_id] = handle.engine.graph.store.staged_cores
                self._due.add(handle)
        self._active = active
        self._shares = [h.share for h in active]
        self._placement_fingerprint = self._dispatch_fingerprint = None
        self._cadence_at = float("-inf")
        self._dirty = True

    def _activate(self, handle: WorkflowHandle) -> None:
        if handle.started or handle.cancelled or self._shut_down:
            return
        handle.started = True
        self._unstarted -= 1
        if handle.builder is not None:
            handle.builder(handle)
        if len(handle.engine.graph) == 0:
            # An empty workflow is trivially complete.
            handle.engine.metrics.workflow_started(self.federation.clock.now)
            self._finish(handle)
            return
        handle.engine.start()
        self._membership_changed()

    def _activate_due(self) -> bool:
        activated = False
        now = self.federation.clock.now
        for handle in self._ordered:
            if not handle.started and not handle.cancelled and handle.arrival_s <= now:
                self._activate(handle)
                activated = True
        return activated

    def _finish(self, handle: WorkflowHandle) -> None:
        """Close out a completed — or cancelled — workflow."""
        if handle.started:
            handle.engine.finalize()
        else:
            self._unstarted -= 1
        handle.finished = True
        self._unfinished -= 1
        self._membership_changed()
        if self.on_workflow_finished is not None and not handle.cancelled:
            self.on_workflow_finished(handle)

    def _deliver(self, records: List) -> None:
        """Hand one fabric round's completion records to their engines."""
        if len(self._ordered) == 1:
            # One registered workflow: every record is its.
            self._ordered[0].engine._handle_completions(records)
            return
        workflows = self._workflows
        engines = [workflows[task_namespace(r.task_id)].engine for r in records]
        # Each engine gets its *consecutive* run of records as one batch.
        # Batching only adjacent same-engine records preserves the global
        # record order every shared, order-sensitive component (task monitor,
        # profilers) sees.
        start, count = 0, len(records)
        while start < count:
            engine = engines[start]
            stop = start + 1
            while stop < count and engines[stop] is engine:
                stop += 1
            engine._handle_completions(records[start:stop])
            start = stop

    # ------------------------------------------------------------ retirement
    def retire(self, handle: WorkflowHandle) -> None:
        """Release a finished tenant's footprint on the shared substrate.

        Open-loop serving admits workflows forever; without retirement every
        completed tenant keeps its task graph, columnar store, event bus,
        scheduler and staging records alive and the run is O(all-time tasks)
        in memory.  Retiring drops the manager's references, takes the engine
        off ``federation.engines`` and releases the tenant's namespace on the
        shared data manager (its tickets, pins and staged callback) — after
        which the tenant's whole engine is garbage.
        The handle itself stays valid (its summary is frozen) but is no
        longer known to the manager.

        A cancelled workflow is finished at once, but its tasks already on
        the fabric still drain: it can be retired only when their records
        have come back (they are routed to it by its id).
        """
        if handle.retired:
            return
        if not handle.finished:
            raise ValueError(
                f"workflow {handle.workflow_id!r} is not finished; only "
                "completed workflows can be retired"
            )
        wid = handle.workflow_id
        # Only cancellation finishes a workflow with tasks still out there.
        in_flight = handle.cancelled and handle.engine.graph.state_count(TaskState.DISPATCHED)
        if in_flight:
            raise ValueError(
                f"workflow {wid!r} still has {in_flight} task(s) on the fabric; "
                "retire it once their records have come back"
            )
        federation = self.federation
        handle._attributed_mb = federation.data_manager.volume_by_namespace_mb.get(wid, 0.0)
        handle.retired = True
        federation.data_manager.release_namespace(wid)
        federation.engines.remove(handle.engine)
        if self._workflows.get(wid) is handle:
            del self._workflows[wid]
        self._ordered = [h for h in self._ordered if h is not handle]
        arrival = self._arrival_handles.pop(wid, None)
        if arrival is not None:
            arrival.cancel()
        self.retired_count += 1

    def _free_capacity(self) -> Dict[str, int]:
        """Mocked free workers per endpoint (shared: read, never written)."""
        monitor = self.federation.endpoint_monitor
        if monitor.state_version != self._free_version or not monitor.mocking_enabled:
            free = monitor.free_capacities()
            if free.keys() != self._free.keys():
                self._demand = {
                    wid: dict.fromkeys(free, size) for wid, size in self._demand_size.items()
                }
            self._free = free
            self._free_version = monitor.state_version
        return self._free

    def _pump(self, active: List[WorkflowHandle]) -> bool:
        """One round of growth, placement and dispatch for the tenants that
        are due, then close out the ones that completed.

        ``_due`` says whom to visit (see :meth:`run`).  A visit drains the
        tenant's growth, offers its queued ready tasks to its scheduler and,
        at the end, finishes it if it completed or puts it back if
        ``pump_due()`` says work is left.  Tenants nobody needs to visit are
        reached only through what arbitration hands them: a capacity slice
        that changed, a dispatch budget that is not empty.
        """
        self._dirty = False
        self._control_settled = self.federation.bus.published_count
        progressed = False

        # Workflow growth first (authoring runtimes reacting to terminal
        # outcomes), in arrival order, so demand sizes below count the tasks
        # materialized this round and a tenant whose recovery branch just
        # appeared is not finished prematurely.  The tenant leaves the due
        # set right after *its* drain: what it publishes from here on (a
        # terminal failure in the placement or dispatch phase must still
        # reach the growth hooks) makes it due again next round.
        visited: List[WorkflowHandle] = []
        for handle in sorted(self._due, key=_ARRIVAL_ORDER):
            if handle.engine.active:
                progressed |= handle.engine.drain_growth()
                visited.append(handle)
            self._due.discard(handle)
        if not active:
            return False

        if self.policy is None:
            for handle in visited:
                progressed |= handle.engine.placement.schedule_ready()
            # No budget says who may dispatch: whoever has a staged task
            # tries (free capacity moves with any tenant's completions).
            for handle in active:
                if handle.engine.graph.store.staged_cores:
                    progressed |= handle.engine.dispatch.dispatch_staged()
        else:
            progressed |= self._pump_arbitrated(active, visited, self.policy)
        self.federation.fabric.flush()

        for handle in visited:
            engine = handle.engine
            if engine.graph.is_complete():
                self._finish(handle)
            elif engine.pump_due():
                self._due.add(handle)
        return progressed

    def _pump_arbitrated(
        self,
        active: List[WorkflowHandle],
        visited: List[WorkflowHandle],
        policy: ArbitrationPolicy,
    ) -> bool:
        """Placement and dispatch with the federation's capacity split
        between the tenants by ``policy``.

        Either allocation is re-run only when one of its inputs moved since
        it last ran — its *fingerprint*: the capacity vector, the demand
        vector, ``policy.state_version`` (fair-share's cumulative service),
        and the share list (a membership change clears both fingerprints).
        Unchanged inputs mean the last grant still stands.
        """
        tenants = self._shares
        progressed = False
        # Placement: slice the *unclaimed* free capacity (free workers minus
        # every tenant's not-yet-dispatched claims) between the workflows
        # with placeable work, so capacity-limited placement (Locality,
        # DHA's re-scheduling) cannot overcommit across tenants.  A tenant's
        # demand counts its ready tasks *and* its placed-but-undispatched
        # ones: the slice also bounds the next periodic re-scheduling pass,
        # which must keep seeing fresh capacity (a frozen stale slice would
        # pin mid-flight tenants to endpoints that have since browned out) —
        # so a moved capacity or claim re-slices every tenant, visited or
        # not.  The allocation is advisory (an upper bound the tenant may not
        # consume), so fair-share must not count it as service rendered.
        free = self._free_capacity()
        sizes = self._demand_size
        placeable: List[WorkflowHandle] = []
        for handle in visited:
            engine = handle.engine
            queued = engine.index.queued_count
            if queued:
                placeable.append(handle)
            size = queued + engine.graph.store.undispatched_count
            if size != sizes[handle.workflow_id]:
                sizes[handle.workflow_id] = size
                self._demand[handle.workflow_id] = dict.fromkeys(free, size)
        if any(sizes.values()):
            claims = self._claims
            unclaimed = {
                name: max(0, count - claims.get(name, 0)) for name, count in free.items()
            }
            fingerprint = (
                tuple(unclaimed.values()), tuple(sizes.values()), policy.state_version
            )
            if fingerprint != self._placement_fingerprint:
                self._placement_fingerprint = fingerprint
                slices = policy.allocate(unclaimed, self._demand, tenants, record_service=False)
                previous, self._slices = self._slices, slices
                for handle in active:
                    capacity_slice = slices.get(handle.workflow_id, {})
                    if capacity_slice != previous.get(handle.workflow_id):
                        handle.engine.scheduler.set_capacity_slice(capacity_slice)
            for handle in placeable:
                progressed |= handle.engine.placement.schedule_ready()

        # Dispatch: slice the free workers between the workflows with staged
        # demand; each workflow dispatches only within its slice (merged
        # deterministically in arrival order).
        staged = self._staged
        if any(staged.values()):
            free = self._free_capacity()
            if any(free.values()):
                fingerprint = (
                    tuple(free.values()),
                    tuple(map(_STAGED_VERSION, active)),
                    policy.state_version,
                )
                if fingerprint != self._dispatch_fingerprint:
                    self._dispatch_fingerprint = fingerprint
                    budgets = policy.allocate(free, staged, tenants)
                    self._budgeted = [
                        (handle, budgets[handle.workflow_id])
                        for handle in active
                        if budgets.get(handle.workflow_id)
                    ]
                dispatched = False
                for handle, budget in self._budgeted:
                    dispatched |= handle.engine.dispatch.dispatch_staged(budget=budget)
                if not dispatched and self._budgeted:
                    # An unconsumed grant still counted as service rendered
                    # (fair-share's deficit), so the next round's allocation
                    # is not a repeat of this one even though no event was
                    # published.
                    self._dirty = True
                progressed |= dispatched
        return progressed

    def _forward_dynamics(self, event) -> None:
        """The substrate reacts once, then every tenant bus, in arrival
        order, carries the event to that tenant's own reactions."""
        self.federation.react(event)
        for handle in self._ordered:
            handle.engine.bus.publish(event)

    # --------------------------------------------------------------- report
    def summary(self) -> ServingSummary:
        """Aggregate + per-tenant report of the serving run."""
        workflows = {h.workflow_id: h.summary() for h in self._ordered}
        mean_waits = [s.wait_time_mean_s for s in workflows.values()]
        start = self._started_at or 0.0
        finish = self._finished_at if self._finished_at is not None else self.federation.clock.now
        return ServingSummary(
            policy=self.policy.name if self.policy is not None else "none",
            makespan_s=max(0.0, finish - start),
            total_tasks=sum(s.total_tasks for s in workflows.values()),
            completed_tasks=sum(s.completed_tasks for s in workflows.values()),
            failed_tasks=sum(s.failed_tasks for s in workflows.values()),
            total_transferred_mb=self.federation.data_manager.total_transferred_mb,
            jain_fairness=jain_index(mean_waits),
            wait_time_p95_s=percentile(mean_waits, 0.95),
            workflows=workflows,
        )
