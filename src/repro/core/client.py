"""The UniFaaS client — a thin façade over a one-tenant federation (§IV).

:class:`UniFaaSClient` is the object user code holds: decorated-function
invocations register tasks through it, :meth:`run` executes the composed
workflow, :meth:`summary` reports the outcome.  Underneath it are one
:class:`~repro.serving.federation.Federation` — the shared components of
Fig. 1 (monitors, profilers, data manager, scaler), built once — and one
:class:`~repro.serving.manager.WorkflowManager`, the one run loop, holding a
single workflow with namespace ``""`` and no cross-workflow arbitration.
The client re-exposes the workflow engine's components for reading under
their historical attribute names (``client.scheduler``, ``client.graph``,
...).
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
from repro.serving.federation import Federation
from repro.serving.manager import ENGINE_ATTRS, WorkflowManager

__all__ = ["ENDPOINT_HINT_KWARG", "UniFaaSClient"]


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
    ) -> None:
        self.federation = Federation(
            config,
            fabric,
            transfer_backend=transfer_backend,
            scaling_strategy=scaling_strategy,
            history_store=history_store,
        )
        self.manager = WorkflowManager(self.federation, arbitration=None)
        self.engine = self.manager.add_workflow("", scheduler=scheduler, metrics=metrics).engine
        set_current_client(self)

    # --------------------------------------------------------------- delegation
    def __getattr__(self, name: str):
        # Only consulted for names not found the normal way.
        if name in ENGINE_ATTRS:
            return getattr(self.engine, name)
        raise AttributeError(f"{type(self).__name__!s} object has no attribute {name!r}")

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
        self.metrics.set_dataplane_stats(self.data_manager.stats_dict())
        return self.metrics.summary(self.data_manager.total_transferred_mb)
