"""The dynamics layer: timeline events perturbing a running simulation.

The paper's central claim is that federated FaaS scheduling stays efficient
*under real-world dynamics* — endpoints joining and leaving, worker churn,
degrading hardware and networks, stale status.  This module turns those
dynamics into data:

* :class:`TimelineEvent` — one concrete perturbation at one simulation time
  (crash, rejoin, worker churn, cold-start window, network degradation
  window, status-staleness spike);
* :class:`ChurnProcess` / :class:`CrashRejoinCycle` — seeded stochastic
  generators that expand into timeline events deterministically from the
  scenario seed;
* :class:`DynamicsSpec` — the declarative composition of scripted events and
  stochastic processes a :class:`~repro.scenarios.spec.ScenarioSpec` embeds;
* :class:`DynamicsInjector` — schedules a compiled timeline on the
  simulation kernel; each firing mutates the substrate (endpoint, service,
  network) and announces a typed
  :class:`~repro.engine.events.EndpointDynamicsEvent` on the federation's
  control bus, which forwards it to every workflow so the failure
  coordinators, elastic scaler and DHA re-scheduling react.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.events import (
    ColdStartWindow,
    EndpointCrashed,
    EndpointRejoined,
    NetworkDegraded,
    NetworkRestored,
    StatusStalenessChanged,
    WorkerChurn,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.environment import SimulationEnvironment
    from repro.serving.manager import WorkflowManager

__all__ = [
    "ACTIONS",
    "ChurnProcess",
    "CrashRejoinCycle",
    "DynamicsInjector",
    "DynamicsSpec",
    "OrchestratorCrash",
    "TimelineEvent",
]

#: Action names a :class:`TimelineEvent` may carry.
ACTIONS = (
    "crash",
    "rejoin",
    "churn",
    "cold_window",
    "net_degrade",
    "net_restore",
    "staleness",
)


@dataclass(frozen=True)
class TimelineEvent:
    """One scripted perturbation of the running simulation.

    ``value`` is action-dependent: the worker delta for ``churn``, the
    rejoin worker count for ``rejoin``, the bandwidth factor for
    ``net_degrade``, the refresh interval for ``staleness`` and the penalty
    seconds for ``cold_window``.  ``duration_s`` bounds window actions.
    """

    at_s: float
    action: str
    endpoint: str = ""
    value: float = 0.0
    duration_s: float = 0.0

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError("at_s must be non-negative")
        if self.action not in ACTIONS:
            raise ValueError(f"unknown dynamics action {self.action!r}; expected one of {ACTIONS}")
        if self.duration_s < 0:
            raise ValueError("duration_s must be non-negative")

    def as_dict(self) -> Dict[str, object]:
        return {
            "at_s": round(float(self.at_s), 6),
            "action": self.action,
            "endpoint": self.endpoint,
            "value": round(float(self.value), 6),
            "duration_s": round(float(self.duration_s), 6),
        }


@dataclass(frozen=True)
class ChurnProcess:
    """Seeded-stochastic worker churn (other users' allocations coming/going).

    Events arrive per endpoint as a Poisson process with the given mean
    interval; each event adds or removes a uniformly drawn number of workers
    (removals are slightly more likely, modelling contention).
    """

    mean_interval_s: float = 60.0
    max_delta_workers: int = 8
    start_s: float = 10.0
    #: Probability a churn event removes workers rather than adds them.
    removal_bias: float = 0.6

    def __post_init__(self) -> None:
        if self.mean_interval_s <= 0:
            raise ValueError("mean_interval_s must be positive")
        if self.max_delta_workers < 1:
            raise ValueError("max_delta_workers must be >= 1")
        if not 0.0 <= self.removal_bias <= 1.0:
            raise ValueError("removal_bias must be in [0, 1]")

    def expand(
        self, endpoints: Sequence[str], horizon_s: float, rng: np.random.Generator
    ) -> List[TimelineEvent]:
        events: List[TimelineEvent] = []
        for endpoint in endpoints:
            t = self.start_s
            while True:
                t += float(rng.exponential(self.mean_interval_s))
                if t >= horizon_s:
                    break
                magnitude = int(rng.integers(1, self.max_delta_workers + 1))
                sign = -1 if float(rng.random()) < self.removal_bias else 1
                events.append(
                    TimelineEvent(at_s=t, action="churn", endpoint=endpoint,
                                  value=float(sign * magnitude))
                )
        return events


@dataclass(frozen=True)
class CrashRejoinCycle:
    """Seeded-stochastic endpoint crash followed by a rejoin after downtime."""

    #: Probability each endpoint crashes once within the horizon.
    crash_probability: float = 1.0
    earliest_s: float = 30.0
    latest_s: float = 240.0
    downtime_s: float = 60.0
    #: Workers the endpoint rejoins with (0 = its pre-crash max).
    rejoin_workers: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.crash_probability <= 1.0:
            raise ValueError("crash_probability must be in [0, 1]")
        if self.earliest_s < 0 or self.latest_s < self.earliest_s:
            raise ValueError("need 0 <= earliest_s <= latest_s")
        if self.downtime_s <= 0:
            raise ValueError("downtime_s must be positive")

    def expand(
        self, endpoints: Sequence[str], horizon_s: float, rng: np.random.Generator
    ) -> List[TimelineEvent]:
        latest = min(self.latest_s, horizon_s)
        if latest < self.earliest_s:
            return []  # no crash fits inside the horizon
        events: List[TimelineEvent] = []
        for endpoint in endpoints:
            if float(rng.random()) >= self.crash_probability:
                continue
            at = float(rng.uniform(self.earliest_s, latest))
            events.append(TimelineEvent(at_s=at, action="crash", endpoint=endpoint))
            events.append(
                TimelineEvent(
                    at_s=at + self.downtime_s,
                    action="rejoin",
                    endpoint=endpoint,
                    value=float(self.rejoin_workers),
                )
            )
        return events


@dataclass(frozen=True)
class OrchestratorCrash:
    """The orchestrator *itself* dies at ``at_s`` and restarts later.

    Unlike endpoint crashes, this tears down the whole control plane: the
    run loop aborts with
    :class:`~repro.durability.errors.OrchestratorCrashed`, and the recovery
    driver restores from the latest valid periodic checkpoint (replaying
    deterministically to the cut) before resuming.  ``restart_delay_s``
    models how long the replacement process takes to come up; it is reported
    as recovery downtime in the result's durability payload rather than
    shifting simulated time, so the final event log stays byte-identical to
    an uninterrupted run.
    """

    at_s: float
    restart_delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError("at_s must be non-negative")
        if self.restart_delay_s < 0:
            raise ValueError("restart_delay_s must be non-negative")

    def as_dict(self) -> Dict[str, object]:
        return {
            "at_s": round(float(self.at_s), 6),
            "restart_delay_s": round(float(self.restart_delay_s), 6),
        }


@dataclass(frozen=True)
class DynamicsSpec:
    """Declarative description of a scenario's dynamics.

    ``scripted`` events happen exactly as written; the stochastic processes
    expand into additional events deterministically from the scenario seed
    (same seed, same timeline — the property the determinism digest gates).
    """

    scripted: Tuple[TimelineEvent, ...] = ()
    churn: Optional[ChurnProcess] = None
    crashes: Optional[CrashRejoinCycle] = None
    #: Orchestrator (control-plane) crashes, handled by the durability
    #: layer's recovery driver — not part of the endpoint timeline.
    orchestrator: Tuple[OrchestratorCrash, ...] = ()
    #: Endpoints the stochastic processes may touch ("" = all).
    target_endpoints: Tuple[str, ...] = ()
    #: Horizon (simulated seconds) the stochastic processes fill.
    horizon_s: float = 600.0

    @property
    def is_empty(self) -> bool:
        return (
            not self.scripted
            and self.churn is None
            and self.crashes is None
            and not self.orchestrator
        )

    def compile(
        self, endpoints: Sequence[str], rng: np.random.Generator
    ) -> List[TimelineEvent]:
        """Expand to the concrete, time-sorted timeline for this run."""
        targets = [e for e in endpoints if not self.target_endpoints or e in self.target_endpoints]
        events = list(self.scripted)
        if self.churn is not None:
            events.extend(self.churn.expand(targets, self.horizon_s, rng))
        if self.crashes is not None:
            events.extend(self.crashes.expand(targets, self.horizon_s, rng))
        # Stable order: by time, then by a content key so equal-time events
        # from different generators interleave deterministically.
        events.sort(key=lambda e: (e.at_s, e.action, e.endpoint, e.value))
        return events


class DynamicsInjector:
    """Schedules a compiled timeline and surfaces it to the federation.

    Every firing does two things in order: (1) mutate the simulation
    substrate — the endpoint, the service's status cache, the network — and
    (2) publish the corresponding typed event on the federation's control
    bus, which forwards it to every workflow's bus, where the failure
    coordinator, the elastic scaler and the schedulers subscribe.
    """

    def __init__(self, env: "SimulationEnvironment", federation: "WorkflowManager") -> None:
        self._env = env
        self._bus = federation.bus
        #: Events that actually perturbed the substrate (no-ops — churn on a
        #: crashed endpoint, crash of an offline endpoint — are excluded).
        self.fired: List[TimelineEvent] = []
        # Window end times: overlapping windows extend, not cut short, the
        # perturbed period — a restore only applies once simulation time has
        # reached the furthest declared window end of its kind.
        self._net_until = 0.0
        self._staleness_until = 0.0
        #: The nominal refresh interval the next staleness restore returns to.
        self._nominal_refresh_s: Optional[float] = None

    def install(self, timeline: Sequence[TimelineEvent]) -> int:
        """Schedule every timeline event on the kernel (as daemon events).

        Daemon scheduling means pending dynamics never keep the simulation
        alive once the workflow itself is done.  Returns the number of
        events installed (window actions install their own restore events
        at fire time, so the count equals ``len(timeline)``).
        """
        kernel = self._env.kernel
        for event in timeline:
            kernel.schedule_at(event.at_s, self._fire, event, daemon=True,
                               label=f"dynamics-{event.action}")
        return len(timeline)

    # ------------------------------------------------------------------ fire
    def _fire(self, event: TimelineEvent) -> None:
        handler = getattr(self, f"_apply_{event.action}")
        if handler(event) is not False:
            self.fired.append(event)

    def _refresh_service_view(self, endpoint: str) -> None:
        # The service notices an endpoint (dis)connecting right away — the
        # heartbeat drops — even though *worker-count* staleness persists.
        self._env.service.endpoint_status(endpoint, force_refresh=True)

    def _apply_crash(self, event: TimelineEvent) -> Optional[bool]:
        endpoint = self._env.endpoint(event.endpoint)
        if not endpoint.online:
            return False
        lost = endpoint.crash()
        self._refresh_service_view(event.endpoint)
        self._bus.publish(
            EndpointCrashed(time=self._now(), endpoint=event.endpoint, lost_tasks=lost)
        )
        return None

    def _apply_rejoin(self, event: TimelineEvent) -> Optional[bool]:
        endpoint = self._env.endpoint(event.endpoint)
        if endpoint.online:
            return False
        workers = int(event.value) if event.value else None
        endpoint.rejoin(workers)
        self._refresh_service_view(event.endpoint)
        self._bus.publish(
            EndpointRejoined(
                time=self._now(), endpoint=event.endpoint, workers=endpoint.active_workers
            )
        )
        return None

    def _apply_churn(self, event: TimelineEvent) -> Optional[bool]:
        endpoint = self._env.endpoint(event.endpoint)
        if not endpoint.online:
            return False  # a crashed endpoint has no workers to churn
        delta = int(event.value)
        if delta < 0:
            # Never churn below one worker: total loss is a crash, not churn.
            delta = -min(-delta, max(0, endpoint.active_workers - 1))
        if delta == 0:
            return False
        endpoint.apply_capacity_change(delta)
        self._refresh_service_view(event.endpoint)
        self._bus.publish(
            WorkerChurn(time=self._now(), endpoint=event.endpoint, delta_workers=delta)
        )
        return None

    def _apply_cold_window(self, event: TimelineEvent) -> None:
        endpoint = self._env.endpoint(event.endpoint)
        endpoint.begin_cold_window(event.duration_s, penalty_s=event.value or None)
        self._bus.publish(
            ColdStartWindow(
                time=self._now(),
                endpoint=event.endpoint,
                penalty_s=endpoint.cold_start_penalty_s,
                duration_s=event.duration_s,
            )
        )

    def _apply_net_degrade(self, event: TimelineEvent) -> None:
        factor = event.value if event.value > 0 else 0.5
        now = self._now()
        # duration 0 = indefinite: only an explicit net_restore clears it.
        until = float("inf") if event.duration_s <= 0 else now + event.duration_s
        self._net_until = max(self._net_until, until)
        self._env.network.set_bandwidth_scale(factor)
        self._bus.publish(
            NetworkDegraded(time=now, factor=factor, duration_s=event.duration_s)
        )
        if event.duration_s > 0:
            self._env.kernel.schedule(
                event.duration_s, self._restore_network,
                daemon=True, label="dynamics-net-restore",
            )

    def _apply_net_restore(self, event: TimelineEvent) -> None:
        self._net_until = self._now()
        self._restore_network()

    def _restore_network(self) -> None:
        if self._now() + 1e-9 < self._net_until:
            return  # a longer (or later) window still holds the degradation
        self._env.network.set_bandwidth_scale(1.0)
        self._bus.publish(NetworkRestored(time=self._now()))

    def _apply_staleness(self, event: TimelineEvent) -> None:
        previous = self._env.service.latency.status_refresh_interval_s
        if self._nominal_refresh_s is None:
            self._nominal_refresh_s = previous
        interval = event.value if event.value > 0 else previous * 4
        now = self._now()
        until = float("inf") if event.duration_s <= 0 else now + event.duration_s
        self._staleness_until = max(self._staleness_until, until)
        self._env.service.set_status_refresh_interval(interval)
        self._bus.publish(
            StatusStalenessChanged(time=now, interval_s=interval)
        )
        if event.duration_s > 0:
            self._env.kernel.schedule(
                event.duration_s, self._restore_staleness,
                daemon=True, label="dynamics-staleness-restore",
            )

    def _restore_staleness(self) -> None:
        if self._now() + 1e-9 < self._staleness_until or self._nominal_refresh_s is None:
            return  # a longer (or later) spike still holds the staleness
        self._env.service.set_status_refresh_interval(self._nominal_refresh_s)
        self._bus.publish(
            StatusStalenessChanged(time=self._now(), interval_s=self._nominal_refresh_s)
        )

    def _now(self) -> float:
        return self._env.kernel.now()
