"""Endpoint monitor with the local mocking mechanism (§IV-B).

The scheduler needs real-time endpoint information (idle workers, queued
tasks) but the service only refreshes endpoint status periodically, and
polling it aggressively would overload it.  UniFaaS therefore keeps a *mock
endpoint* per genuine endpoint: a local proxy with the same attributes that
is updated instantaneously when UniFaaS itself dispatches a task or receives
a result, and re-synchronised with the service's (stale) view periodically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.core.exceptions import EndpointError
from repro.faas.types import EndpointStatus

__all__ = ["EndpointMonitor", "MockEndpoint"]


@dataclass
class MockEndpoint:
    """Local proxy mirroring one genuine endpoint."""

    name: str
    active_workers: int = 0
    busy_workers: int = 0
    pending_tasks: int = 0
    max_workers: int = 1
    cores_per_node: int = 1
    cpu_freq_ghz: float = 1.0
    ram_gb: float = 1.0
    online: bool = True
    #: Tasks UniFaaS has dispatched that the endpoint has not finished yet.
    outstanding_tasks: int = 0
    last_synced_at: float = 0.0

    @property
    def idle_workers(self) -> int:
        return max(0, self.active_workers - self.busy_workers)

    @property
    def free_capacity(self) -> int:
        """Workers that could accept a new task right now (mocked view)."""
        return max(0, self.active_workers - self.busy_workers - self.pending_tasks)

    def hardware_features(self) -> tuple[float, float, float]:
        return (float(self.cores_per_node), self.cpu_freq_ghz, self.ram_gb)

    # ------------------------------------------------------------- mock ops
    def record_dispatch(self, cores: int = 1) -> None:
        """Mirror a task dispatch: occupy a worker or queue the mock task."""
        self.outstanding_tasks += 1
        if self.idle_workers >= cores:
            self.busy_workers += cores
        else:
            self.pending_tasks += 1

    def record_completion(self, cores: int = 1) -> None:
        """Mirror a task completion: free the worker / pop the mock queue."""
        self.outstanding_tasks = max(0, self.outstanding_tasks - 1)
        if self.pending_tasks > 0:
            self.pending_tasks -= 1
        else:
            self.busy_workers = max(0, self.busy_workers - cores)

    def synchronize(self, status: EndpointStatus, now: float) -> bool:
        """Overwrite the mock with a fresh service snapshot.

        Returns True when the *hardware* features changed — capacity counters
        change on every sync, but consumers memoizing hardware-dependent
        predictions only need to know about hardware changes.
        """
        hardware_changed = (
            self.cores_per_node != status.cores_per_node
            or self.cpu_freq_ghz != status.cpu_freq_ghz
            or self.ram_gb != status.ram_gb
        )
        self.active_workers = status.active_workers
        self.busy_workers = status.busy_workers
        self.pending_tasks = status.pending_tasks
        self.max_workers = status.max_workers
        self.cores_per_node = status.cores_per_node
        self.cpu_freq_ghz = status.cpu_freq_ghz
        self.ram_gb = status.ram_gb
        self.online = status.online
        self.last_synced_at = now
        return hardware_changed


class EndpointMonitor:
    """Maintains one :class:`MockEndpoint` per configured endpoint."""

    def __init__(
        self,
        status_provider: Callable[[str], EndpointStatus],
        clock,
        *,
        sync_interval_s: float = 60.0,
        mocking_enabled: bool = True,
    ) -> None:
        if sync_interval_s <= 0:
            raise ValueError("sync_interval_s must be positive")
        self._status_provider = status_provider
        self._clock = clock
        self.sync_interval_s = sync_interval_s
        #: When disabled (ablation), every query re-reads the stale service
        #: status instead of using the locally mocked state.
        self.mocking_enabled = mocking_enabled
        self._mocks: Dict[str, MockEndpoint] = {}
        self.sync_count = 0
        #: Bumped when a synchronisation changed some endpoint's *hardware*
        #: features (cores/frequency/RAM) — the generation stamp for caches
        #: of hardware-dependent predictions.
        self.hardware_version = 0
        #: Bumped whenever any mock's *capacity* state may have changed
        #: (dispatch, completion, registration, a sync that moved a counter).
        #: The schedulers' endpoint-state vectors re-read the mocks only
        #: when this version moves, instead of per task.
        self.state_version = 0

    # ----------------------------------------------------------- registration
    def register(self, endpoint_name: str) -> MockEndpoint:
        """Create the mock endpoint, initialising it from the service."""
        if endpoint_name in self._mocks:
            raise EndpointError(f"endpoint {endpoint_name!r} already monitored")
        mock = MockEndpoint(name=endpoint_name)
        status = self._status_provider(endpoint_name)
        mock.synchronize(status, self._clock.now())
        self._mocks[endpoint_name] = mock
        self.state_version += 1
        return mock

    def endpoint_names(self) -> List[str]:
        return list(self._mocks)

    def mock(self, endpoint_name: str) -> MockEndpoint:
        try:
            mock = self._mocks[endpoint_name]
        except KeyError:
            raise EndpointError(f"endpoint {endpoint_name!r} is not monitored") from None
        if not self.mocking_enabled:
            if mock.synchronize(self._status_provider(endpoint_name), self._clock.now()):
                self.hardware_version += 1
            self.state_version += 1
        return mock

    # --------------------------------------------------------------- updates
    def record_dispatch(self, endpoint_name: str, cores: int = 1) -> None:
        self.mock(endpoint_name).record_dispatch(cores)
        self.state_version += 1

    def record_completion(self, endpoint_name: str, cores: int = 1) -> None:
        self.mock(endpoint_name).record_completion(cores)
        self.state_version += 1

    def synchronize(self, force: bool = False) -> None:
        """Re-sync every mock whose snapshot is older than the sync interval."""
        now = self._clock.now()
        for name, mock in self._mocks.items():
            if force or now - mock.last_synced_at >= self.sync_interval_s:
                before = (
                    mock.active_workers,
                    mock.busy_workers,
                    mock.pending_tasks,
                    mock.max_workers,
                    mock.online,
                )
                if mock.synchronize(self._status_provider(name), now):
                    self.hardware_version += 1
                after = (
                    mock.active_workers,
                    mock.busy_workers,
                    mock.pending_tasks,
                    mock.max_workers,
                    mock.online,
                )
                if after != before:
                    self.state_version += 1
                self.sync_count += 1

    # ---------------------------------------------------------------- queries
    def idle_workers(self, endpoint_name: str) -> int:
        return self.mock(endpoint_name).idle_workers

    def free_capacity(self, endpoint_name: str) -> int:
        return self.mock(endpoint_name).free_capacity

    def active_workers(self, endpoint_name: str) -> int:
        return self.mock(endpoint_name).active_workers

    def total_active_workers(self) -> int:
        return sum(m.active_workers for m in self._mocks.values())

    def total_outstanding_tasks(self) -> int:
        return sum(m.outstanding_tasks for m in self._mocks.values())

    def capacities(self) -> Dict[str, int]:
        """Current worker capacity per endpoint (Capacity scheduler input)."""
        return {name: mock.active_workers for name, mock in self._mocks.items()}

    def endpoints_with_capacity(self, cores: int = 1) -> List[str]:
        """Endpoints whose mocked view has at least ``cores`` free workers."""
        return [
            name
            for name, mock in self._mocks.items()
            if mock.online and mock.free_capacity >= cores
        ]
