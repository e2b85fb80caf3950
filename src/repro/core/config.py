"""Workflow configuration (§III-C, Listing 2).

The :class:`Config` interface is deliberately separate from the programming
interface: the same workflow script can be redeployed on a different set of
endpoints by changing only the configuration ("write once, run anywhere").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.exceptions import ConfigurationError

__all__ = ["Config", "ExecutorSpec", "SCHEDULING_STRATEGIES", "TRANSFER_TYPES"]

#: Scheduling strategies shipped with the framework (Table I).  The scheduler
#: registry in :mod:`repro.sched` may be extended with additional names.
SCHEDULING_STRATEGIES = ("CAPACITY", "LOCALITY", "DHA", "HEFT", "ROUND_ROBIN")

#: Built-in file transfer mechanisms (§IV-E).
TRANSFER_TYPES = ("Globus", "rsync", "local")


@dataclass(frozen=True)
class ExecutorSpec:
    """One computing resource (funcX endpoint) available to the workflow."""

    #: Human-readable label used in logs, metrics and scheduling output.
    label: str
    #: Endpoint identifier — the funcX endpoint UUID on a real deployment, or
    #: the name of a simulated/local endpoint in this reproduction.
    endpoint: str
    #: Optional cap on the number of workers UniFaaS will scale this endpoint
    #: to (``None`` means the endpoint's own maximum).
    max_workers: Optional[int] = None
    #: Storage budget of this endpoint's staging area in GB (``None`` falls
    #: back to :attr:`Config.storage_capacity_gb`).  Only enforced by the
    #: data-plane subsystem (:mod:`repro.dataplane`).
    storage_gb: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.label:
            raise ConfigurationError("executor label must be non-empty")
        if not self.endpoint:
            raise ConfigurationError(f"executor {self.label!r} has an empty endpoint id")
        if self.max_workers is not None and self.max_workers <= 0:
            raise ConfigurationError(
                f"executor {self.label!r} max_workers must be positive"
            )
        if self.storage_gb is not None and self.storage_gb <= 0:
            raise ConfigurationError(
                f"executor {self.label!r} storage_gb must be positive"
            )


@dataclass
class Config:
    """Configuration of a UniFaaS run (mirrors Listing 2 of the paper)."""

    executors: Sequence[ExecutorSpec] = field(default_factory=list)
    #: Scheduling strategy name, case-insensitive ("CAPACITY", "LOCALITY", "DHA", ...).
    scheduling_strategy: str = "DHA"
    #: How many times the data manager retries a failed transfer (§IV-G).
    max_transfer_retries: int = 3
    #: Transfer mechanism: "Globus", "rsync" or "local".
    file_transfer_type: str = "Globus"
    #: Maximum concurrent transfers per endpoint pair (§IV-E).
    max_concurrent_transfers: int = 4
    #: How many times a failed task is re-executed before reassignment (§IV-G).
    max_task_retries: int = 2
    #: Period (s) of the endpoint monitor's synchronisation with the service.
    endpoint_sync_interval_s: float = 60.0
    #: Period (s) at which the profilers refresh their models.
    profiler_update_interval_s: float = 30.0
    #: Period (s) of DHA's re-scheduling pass (§IV-D).
    rescheduling_interval_s: float = 30.0
    #: Enable DHA's delay mechanism (dispatch only when idle workers exist).
    enable_delay_mechanism: bool = True
    #: Enable DHA's re-scheduling / task stealing mechanism.
    enable_rescheduling: bool = True
    #: Run the data plane (:mod:`repro.dataplane`) under its full policy:
    #: capacity-bounded replica store, priority/bandwidth-aware transfer
    #: scheduling and pipelined prefetching.  Disable (``--no-dataplane``) to
    #: run its published policy — the paper's FIFO staging (§IV-E).
    enable_dataplane: bool = True
    #: Per-endpoint staging-storage budget in GB used by the replica store
    #: (``None`` means unbounded; :attr:`ExecutorSpec.storage_gb` overrides
    #: per endpoint).
    storage_capacity_gb: Optional[float] = None
    #: Replica eviction policy: "lru" or "cost_benefit".
    eviction_policy: str = "lru"
    #: Pipeline staging of ready-soon tasks' inputs behind their still-running
    #: predecessors (only effective with the data plane enabled).
    enable_prefetch: bool = True
    #: Enable multi-endpoint elastic scaling (§IV-H).
    enable_scaling: bool = True
    #: Solve a global placement plan (capacitated facility location over the
    #: prediction matrices) periodically and thread it through the scheduler
    #: (EFT tie-breaks toward plan-warm endpoints), the elastic scaler
    #: (plan worker targets anchor the scale-out split) and the data plane
    #: (replica-root preference for multi-source selection and prefetch
    #: destinations).  Disable (``--no-placement``) to run the pure-greedy
    #: layers byte-identically to the pre-placement engine.
    enable_placement_plan: bool = True
    #: Period (s) at which the placement plan is re-solved (a dynamics
    #: invalidation — crash / rejoin / churn — forces a re-solve at the next
    #: periodic check regardless of the cadence).
    placement_interval_s: float = 30.0
    #: Period (s) at which the durability layer writes a checkpoint snapshot
    #: of the full serving state (``None`` disables periodic checkpointing).
    #: Crash recovery restores from the latest checkpoint that validates.
    checkpoint_interval_s: Optional[float] = None
    #: Path of the historical task database ("" disables persistence).
    history_db_path: str = ""
    #: Random seed for all stochastic components of the simulation substrate.
    random_seed: int = 0

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------ validation
    def validate(self) -> None:
        if not self.executors:
            raise ConfigurationError("at least one executor must be configured")
        labels = [e.label for e in self.executors]
        if len(labels) != len(set(labels)):
            raise ConfigurationError(f"duplicate executor labels: {labels}")
        endpoints = [e.endpoint for e in self.executors]
        if len(endpoints) != len(set(endpoints)):
            raise ConfigurationError(f"duplicate executor endpoints: {endpoints}")
        if self.scheduling_strategy.upper() not in SCHEDULING_STRATEGIES:
            raise ConfigurationError(
                f"unknown scheduling strategy {self.scheduling_strategy!r}; "
                f"expected one of {SCHEDULING_STRATEGIES}"
            )
        if self.file_transfer_type.lower() not in tuple(t.lower() for t in TRANSFER_TYPES):
            raise ConfigurationError(
                f"unknown file transfer type {self.file_transfer_type!r}; "
                f"expected one of {TRANSFER_TYPES}"
            )
        for name, value in (
            ("max_transfer_retries", self.max_transfer_retries),
            ("max_task_retries", self.max_task_retries),
        ):
            if value < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.max_concurrent_transfers <= 0:
            raise ConfigurationError("max_concurrent_transfers must be positive")
        if self.eviction_policy not in ("lru", "cost_benefit"):
            raise ConfigurationError(
                f"unknown eviction policy {self.eviction_policy!r}; "
                "expected 'lru' or 'cost_benefit'"
            )
        if self.storage_capacity_gb is not None and self.storage_capacity_gb <= 0:
            raise ConfigurationError("storage_capacity_gb must be positive")
        for name, value in (
            ("endpoint_sync_interval_s", self.endpoint_sync_interval_s),
            ("profiler_update_interval_s", self.profiler_update_interval_s),
            ("rescheduling_interval_s", self.rescheduling_interval_s),
            ("placement_interval_s", self.placement_interval_s),
        ):
            if value <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.checkpoint_interval_s is not None and self.checkpoint_interval_s <= 0:
            raise ConfigurationError("checkpoint_interval_s must be positive")

    # -------------------------------------------------------------- helpers
    @property
    def strategy(self) -> str:
        """Normalised (upper-case) scheduling strategy name."""
        return self.scheduling_strategy.upper()

    @property
    def transfer_mechanism(self) -> str:
        """Normalised (lower-case) transfer mechanism name."""
        return self.file_transfer_type.lower()

    def storage_budget_mb(self) -> dict:
        """Per-endpoint staging-storage budget in MB (``None`` = unbounded)."""
        budgets = {}
        for executor in self.executors:
            gb = executor.storage_gb if executor.storage_gb is not None else self.storage_capacity_gb
            budgets[executor.endpoint] = None if gb is None else gb * 1024.0
        return budgets

    def executor_labels(self) -> List[str]:
        return [e.label for e in self.executors]

    def executor_by_label(self, label: str) -> ExecutorSpec:
        for executor in self.executors:
            if executor.label == label:
                return executor
        raise ConfigurationError(f"no executor labelled {label!r}")
