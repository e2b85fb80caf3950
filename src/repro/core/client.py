"""The UniFaaS client — a thin façade over a one-tenant federation (§IV).

:class:`UniFaaSClient` is the object user code holds: decorated-function
invocations register tasks through it, :meth:`run` executes the composed
workflow, :meth:`summary` reports the outcome.  Underneath it is a
:class:`~repro.serving.manager.WorkflowManager` — the one place the five
system components of Fig. 1 (DAG generator, monitors, profilers, scheduler,
data manager) are wired and the one run loop — holding a single workflow
with namespace ``""`` and no cross-workflow arbitration.  The client
delegates the workflow engine's components under their historical attribute
names (reads *and* writes), so existing experiments, examples and tests keep
working unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.config import Config
from repro.core.functions import FederatedFunction, set_current_client
from repro.core.futures import UniFuture
from repro.data.transfer import TransferBackend
from repro.elastic.scaling import ScalingStrategy
from repro.engine.core import ENDPOINT_HINT_KWARG
from repro.faas.fabric import ExecutionFabric
from repro.metrics.collector import MetricsCollector
from repro.monitor.store import HistoryStore
from repro.sched.base import Scheduler
from repro.serving.manager import ENGINE_ATTRS, WorkflowManager

__all__ = ["ENDPOINT_HINT_KWARG", "UniFaaSClient"]

#: Federation-level components re-exposed on the client.
_MANAGER_ATTRS = frozenset({"scaling_strategy", "scaling_check_interval_s"})


class UniFaaSClient:
    """Compose and execute federated workflows."""

    def __init__(
        self,
        config: Config,
        fabric: ExecutionFabric,
        *,
        transfer_backend: Optional[TransferBackend] = None,
        scheduler: Optional[Scheduler] = None,
        scaling_strategy: Optional[ScalingStrategy] = None,
        history_store: Optional[HistoryStore] = None,
        metrics: Optional[MetricsCollector] = None,
        scaling_check_interval_s: float = 10.0,
    ) -> None:
        self.manager = WorkflowManager(
            config,
            fabric,
            transfer_backend=transfer_backend,
            arbitration=None,
            scaling_strategy=scaling_strategy,
            history_store=history_store,
            scaling_check_interval_s=scaling_check_interval_s,
        )
        self.engine = self.manager.add_workflow("", scheduler=scheduler, metrics=metrics).engine
        set_current_client(self)

    # --------------------------------------------------------------- delegation
    def __getattr__(self, name: str):
        # Only consulted for names not found the normal way.
        if name in ENGINE_ATTRS:
            return getattr(self.engine, name)
        if name in _MANAGER_ATTRS:
            return getattr(self.manager, name)
        raise AttributeError(f"{type(self).__name__!s} object has no attribute {name!r}")

    def __setattr__(self, name: str, value) -> None:
        if name in ENGINE_ATTRS:
            setattr(self.engine, name, value)
        elif name in _MANAGER_ATTRS:
            setattr(self.manager, name, value)
        else:
            super().__setattr__(name, value)

    # ----------------------------------------------------------- context mgmt
    def __enter__(self) -> "UniFaaSClient":
        set_current_client(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        set_current_client(None)

    # ------------------------------------------------------------- submission
    def submit(self, fn: FederatedFunction, args: tuple, kwargs: Dict[str, Any]) -> UniFuture:
        """Register one invocation of ``fn`` and return its future.

        Called by :class:`~repro.core.functions.FederatedFunction` when a
        decorated function is invoked.
        """
        return self.engine.submit(fn, args, kwargs)

    # -------------------------------------------------------------------- run
    def run(self, max_wall_time_s: Optional[float] = None) -> None:
        """Execute the composed workflow to completion.

        Raises :class:`~repro.core.exceptions.SchedulingError` if the
        workflow stalls (for example, every endpoint lost all its workers
        and scaling is disabled).
        """
        self.manager.run(max_wall_time_s=max_wall_time_s)

    # ----------------------------------------------------------------- status
    def summary(self):
        """Workflow summary (makespan, transfer volume, utilisation, ...)."""
        stats = getattr(self.data_manager, "stats_dict", None)
        if stats is not None:
            self.metrics.set_dataplane_stats(stats())
        return self.metrics.summary(self.data_manager.total_transferred_mb)

    def task_states(self) -> Dict[str, int]:
        return self.graph.counts()
