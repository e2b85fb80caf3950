"""The open-loop streaming service: arrivals → admission → serving → retire.

:class:`StreamingService` layers the streaming subsystem onto a
:class:`~repro.serving.manager.WorkflowManager`:

* the seeded :class:`~repro.streaming.arrivals.ArrivalProcess` emits tenants
  on the kernel timeline;
* the :class:`~repro.streaming.admission.AdmissionController` holds them in
  a bounded queue, rejects at the bound, abandons at the patience deadline
  and admits into free active slots;
* each admitted tenant becomes a managed workflow whose SLO deadline feeds
  the ``edf`` arbitration policy;
* completed tenants are **retired** — graph, columnar store, event bus,
  scheduler and staging records released — so live memory is O(active
  tenants) however long the stream runs;
* :class:`~repro.streaming.metrics.SteadyStateMetrics` replaces makespan
  with sliding-window throughput, tail wait, abandonment and queue depth.

The manager's ``completion_hold`` keeps its run loop alive while the stream
still owes arrivals, and ``on_workflow_finished`` is the retirement trigger.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.serving.manager import WorkflowHandle, WorkflowManager
from repro.streaming.admission import AdmissionController
from repro.streaming.arrivals import ArrivalProcess, StreamArrival
from repro.streaming.metrics import SteadyStateMetrics
from repro.streaming.spec import StreamingSpec

__all__ = ["StreamingService"]

#: ``builder_factory(arrival)`` returns the DAG-building closure the managed
#: workflow is created with (or None for an eagerly-empty workflow).
BuilderFactory = Callable[[StreamArrival], Optional[Callable[[WorkflowHandle], object]]]


class StreamingService:
    """Drives continuous tenant arrivals through a :class:`WorkflowManager`."""

    def __init__(
        self,
        manager: WorkflowManager,
        spec: StreamingSpec,
        *,
        arrivals_rng,
        admission_rng,
        builder_factory: BuilderFactory,
        on_admit: Optional[Callable[[WorkflowHandle, StreamArrival], None]] = None,
        on_retire: Optional[Callable[[WorkflowHandle, StreamArrival], None]] = None,
    ) -> None:
        kernel = getattr(manager.fabric, "kernel", None)
        if kernel is None:
            raise ValueError("streaming serving needs a simulated fabric (kernel)")
        self.manager = manager
        self.spec = spec
        self.kernel = kernel
        # Open-loop tenants are ephemeral — a handful of tasks, gone in
        # seconds, far inside the plan's re-solve cadence — so the global
        # placement plan has nothing to amortise and would only perturb the
        # arbitration policies' fairness properties.  The plan is scoped to
        # closed-loop managers by construction: streaming serving takes one
        # built from a config with the plan off.
        if manager.plan_service is not None:
            raise ValueError(
                "streaming serving needs a manager built without the placement "
                "plan (Config.enable_placement_plan=False)"
            )
        self.builder_factory = builder_factory
        self.on_admit = on_admit
        self.on_retire = on_retire

        self.metrics = SteadyStateMetrics(
            spec.window_s, seed=manager.config.random_seed
        )
        self.arrivals = ArrivalProcess(kernel, arrivals_rng, spec, self._on_arrival)
        self.admission = AdmissionController(
            kernel,
            admission_rng,
            spec,
            self._admit,
            active_count=lambda: self.active,
        )
        #: Admitted, not-yet-finished tenant count (the admission gate).
        self.active = 0
        self.active_peak = 0
        self._live: Dict[str, StreamArrival] = {}
        self._installed = False
        self._shut_down = False

    # ------------------------------------------------------------- lifecycle
    def install(self) -> None:
        """Hook into the manager and open the arrival stream (idempotent)."""
        if self._installed:
            return
        self._installed = True
        self.manager.completion_hold = self._hold
        self.manager.on_workflow_finished = self._on_finished
        self.arrivals.start()

    def shutdown(self) -> None:
        """Cancel pending stream events and unhook (orchestrator teardown)."""
        if self._shut_down:
            return
        self._shut_down = True
        self.arrivals.shutdown()
        self.admission.shutdown()
        if self.manager.completion_hold is self._hold:
            self.manager.completion_hold = None
        if self.manager.on_workflow_finished is self._on_finished:
            self.manager.on_workflow_finished = None

    # --------------------------------------------------------------- report
    def payload(self) -> Dict[str, object]:
        """The BENCH artifact's ``streaming`` block (byte-deterministic)."""
        elapsed = max(0.0, self.kernel.now() - self.spec.start_s)
        payload: Dict[str, object] = {
            "policy": self.manager.policy.name,
            "arrivals": self.admission.submitted,
            "admitted": self.admission.admitted,
            "rejected": self.admission.rejected,
            "abandoned": self.admission.abandoned,
            "retired": self.manager.retired_count,
            "abandonment_rate": round(
                self.admission.abandoned / self.admission.submitted
                if self.admission.submitted
                else 0.0,
                6,
            ),
            "queue_depth_peak": self.admission.queue_depth_peak,
            "active_peak": self.active_peak,
        }
        payload.update(self.metrics.payload(elapsed))
        return payload

    # -------------------------------------------------------------- internal
    def _hold(self) -> bool:
        return (
            not self.arrivals.exhausted
            or bool(self.admission.pending)
            or self.active > 0
        )

    def _on_arrival(self, arrival: StreamArrival) -> None:
        self.admission.submit(arrival)

    def _admit(self, arrival: StreamArrival, now: float) -> None:
        self.metrics.record_admission(now - arrival.arrival_s)
        handle = self.manager.add_workflow(
            arrival.workflow_id,
            owner=arrival.workflow_id,
            arrival_s=now,
            deadline_s=arrival.deadline_s,
            builder=self.builder_factory(arrival),
        )
        self._live[arrival.workflow_id] = arrival
        self.active += 1
        self.active_peak = max(self.active_peak, self.active)
        if self.on_admit is not None:
            self.on_admit(handle, arrival)

    def _on_finished(self, handle: WorkflowHandle) -> None:
        arrival = self._live.pop(handle.workflow_id, None)
        if arrival is None:
            return  # not one of ours (a pre-registered batch workflow)
        now = self.kernel.now()
        self.metrics.record_completion(
            now, now - arrival.arrival_s, missed=now > arrival.deadline_s
        )
        if self.on_retire is not None:
            self.on_retire(handle, arrival)
        self.manager.retire(handle)
        self.active -= 1
        # A slot freed: the head of the pending queue gets it immediately.
        self.admission.pump()
