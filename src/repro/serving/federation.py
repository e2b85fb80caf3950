"""The federation: the shared substrate of Fig. 1, built once.

:class:`Federation` owns one of each thing every workflow shares: the
control bus, the task monitor, the endpoint monitor (§IV-B), both profilers
(§IV-C), the data plane (§IV-E), the elastic scaler (§IV-H) and the
placement service.  ``Federation.engines`` is the only list of live tenant
engines: an :class:`~repro.engine.core.ExecutionEngine` joins it when built
and ``WorkflowManager.retire`` removes it.  The run loop
(:class:`~repro.serving.manager.WorkflowManager`) gates the refit and scaler
cadences on its attributes, and :meth:`Federation.react` is the substrate's
one reaction to an endpoint-dynamics event.
"""

from __future__ import annotations

from math import isfinite
from typing import TYPE_CHECKING, List, Optional

from repro.core.config import Config
from repro.data.transfer import LocalCopyTransferBackend, TransferBackend
from repro.dataplane import DataPlane
from repro.elastic.scaling import (
    DefaultScalingStrategy,
    EndpointView,
    NoScalingStrategy,
    ScalingStrategy,
)
from repro.engine.bus import EventBus
from repro.engine.events import EndpointCrashed, EndpointRejoined, WorkerChurn
from repro.engine.periodic import EARLY
from repro.faas.fabric import ExecutionFabric
from repro.monitor.endpoint_monitor import EndpointMonitor
from repro.monitor.store import HistoryStore
from repro.monitor.task_monitor import TaskMonitor
from repro.profiling.execution import ExecutionProfiler
from repro.profiling.transfer import TransferProfiler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.core import ExecutionEngine

__all__ = ["Federation"]

#: The dynamics events that change endpoint capacity.
_CAPACITY_EVENTS = (EndpointCrashed, EndpointRejoined, WorkerChurn)


def _build_data_manager(config: Config, backend: TransferBackend, clock) -> DataPlane:
    """The data plane ``config`` asks for; with the plane disabled it runs the
    paper's published §IV-E policy (no budget, FIFO links, no prefetch)."""
    default_storage = (
        config.storage_capacity_gb * 1024.0
        if config.storage_capacity_gb is not None
        else None
    )
    return DataPlane(
        backend,
        clock,
        mechanism=config.transfer_mechanism,
        max_concurrent_transfers=config.max_concurrent_transfers,
        max_retries=config.max_transfer_retries,
        storage_budget_mb=config.storage_budget_mb(),
        default_storage_mb=default_storage,
        eviction_policy=config.eviction_policy,
        published=not config.enable_dataplane,
    )


def _build_scaling_strategy(config: Config) -> ScalingStrategy:
    """The elasticity strategy ``config`` asks for (§IV-H)."""
    if not config.enable_scaling:
        return NoScalingStrategy()
    caps = {
        spec.endpoint: spec.max_workers
        for spec in config.executors
        if spec.max_workers is not None
    }
    return DefaultScalingStrategy(caps=caps)


class Federation:
    """One run's shared substrate and its live tenant engines."""

    #: Simulated seconds between two scaling-strategy passes of the run loop.
    scaling_check_interval_s: float = 10.0

    def __init__(
        self,
        config: Config,
        fabric: ExecutionFabric,
        *,
        transfer_backend: Optional[TransferBackend] = None,
        scaling_strategy: Optional[ScalingStrategy] = None,
        history_store: Optional[HistoryStore] = None,
    ) -> None:
        self.config = config
        self.fabric = fabric
        self.clock = fabric.clock
        #: Control bus: the dynamics injector publishes here.
        self.bus = EventBus()
        #: Live tenant engines in registration order.
        self.engines: List["ExecutionEngine"] = []

        # History is kept only where someone can read it back: a store the
        # caller handed over, or the configured file ("" keeps none).
        store = history_store
        if store is None and config.history_db_path:
            store = HistoryStore(config.history_db_path)
        self.task_monitor = TaskMonitor(store)
        #: A file-backed history is committed once per delivered record batch
        #: (another connection can read it mid-run; a crash loses one round at
        #: most).  A ``:memory:`` store has no other reader and never commits.
        self.history_on_disk = store is not None and store.path != ":memory:"
        self.endpoint_monitor = EndpointMonitor(
            lambda name: fabric.endpoint_status(name),
            self.clock,
            sync_interval_s=config.endpoint_sync_interval_s,
            mocking_enabled=config.enable_endpoint_mocking,
        )
        # Profilers, warm-started from history when available.
        self.execution_profiler = ExecutionProfiler(
            store if store is not None and store.task_count() else None
        )
        self.transfer_profiler = TransferProfiler(
            store if store is not None and store.transfer_count() else None
        )
        self.task_monitor.add_task_listener(self.execution_profiler.observe)
        backend = transfer_backend or LocalCopyTransferBackend(clock=self.clock)
        self.data_manager = _build_data_manager(config, backend, self.clock)
        self.data_manager.add_transfer_callback(self._on_transfer_result)

        self.scaling_strategy = scaling_strategy or _build_scaling_strategy(config)
        self.last_scaling_check = 0.0

        # Global placement plans across every live engine; ``None`` (the
        # config disables the plan) = greedy layers.
        self.plan_service = None
        if config.enable_placement_plan:
            from repro.placement.service import PlacementService

            self.plan_service = PlacementService(config, self.engines, self.data_manager)
            if hasattr(self.scaling_strategy, "plan_provider"):
                self.scaling_strategy.plan_provider = self.plan_service.current_plan
            self.data_manager.set_plan_provider(self.plan_service.current_plan)

        #: When the shared profilers were last refit (one cadence however many
        #: tenants are active) and when the next refit can come due, set early
        #: like a tenant's ``due_at`` (see :data:`~repro.engine.periodic.EARLY`).
        self.last_refit = 0.0
        due = config.profiler_update_interval_s
        self.refit_at = due - EARLY * max(1.0, abs(due)) if isfinite(due) else due

    # ------------------------------------------------------------- cadences
    def refit(self, now: float) -> None:
        """Refit the shared profilers on what the whole federation observed
        (§IV-C) and start the next interval."""
        self.last_refit = now
        due = now + self.config.profiler_update_interval_s
        self.refit_at = due - EARLY * max(1.0, abs(due)) if isfinite(due) else due
        self.execution_profiler.update_models()
        self.transfer_profiler.update_models()

    def scale_now(self) -> None:
        """Let the elasticity strategy request workers (§IV-H).

        Runs on the run loop's cadence, and once per endpoint-dynamics event
        that changes capacity (:meth:`react`).  The pressure is every active
        engine's queued and placed-but-undispatched tasks.
        """
        pending = 0
        for engine in self.engines:
            if engine.active:
                pending += engine.index.queued_count + engine.graph.store.undispatched_count
        views = {}
        for name in self.fabric.endpoint_names():
            mock = self.endpoint_monitor.mock(name)
            views[name] = EndpointView(
                name=name,
                active_workers=mock.active_workers,
                idle_workers=mock.idle_workers,
                outstanding_tasks=mock.outstanding_tasks,
                max_workers=mock.max_workers,
            )
        decision = self.scaling_strategy.decide(pending, views)
        for name, workers in decision.workers_to_request.items():
            if workers > 0:
                self.fabric.request_workers(name, workers)

    # ------------------------------------------------------------- dynamics
    def react(self, event) -> None:
        """The shared substrate's reaction to a control-bus dynamics event.

        A crash, rejoin or churn is met here once, however many tenants
        there are: the service notices the connection change at once
        (heartbeat), so the monitor force-syncs against it; the plan is
        invalidated (a crash excludes the endpoint from future solves, a
        rejoin re-admits it, churn only forces a re-solve); once some tenant
        has started, the plan is re-solved and the elastic scaler runs, in
        that order so the scaler already steers by the post-event plan; last,
        the data plane quarantines or re-admits the endpoint's replicas.
        Other dynamics events leave the substrate as it is.
        """
        if not isinstance(event, _CAPACITY_EVENTS):
            return
        self.endpoint_monitor.synchronize(force=True)
        plans = self.plan_service
        if plans is not None:
            if isinstance(event, EndpointCrashed):
                plans.mark_offline(event.endpoint)
            elif isinstance(event, EndpointRejoined):
                plans.mark_online(event.endpoint)
            else:
                plans.bump()
        if any(engine.context is not None for engine in self.engines):
            if plans is not None:
                plans.maybe_resolve(self.clock.now)
            self.scale_now()
        if isinstance(event, EndpointCrashed):
            self.data_manager.on_endpoint_crashed(event.endpoint)
        elif isinstance(event, EndpointRejoined):
            self.data_manager.on_endpoint_rejoined(event.endpoint)

    def _on_transfer_result(self, result, concurrency: int) -> None:
        # The monitor only writes transfers to a history store: without one
        # (the default) the call would do nothing.
        if self.task_monitor.store is not None:
            self.task_monitor.observe_transfer(result, concurrency)
        self.transfer_profiler.observe(result, concurrency)
