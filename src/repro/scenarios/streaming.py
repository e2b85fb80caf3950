"""The open-loop streaming scenario runner.

A scenario whose spec carries a :class:`~repro.streaming.spec.StreamingSpec`
runs here instead of the batch paths: tenants arrive continuously from the
seeded ``arrivals`` RNG stream, pass through bounded admission (``admission``
stream draws each tenant's SLO), execute as managed workflows under the
spec's arbitration policy, and are retired on completion.  The result record
keeps the batch fields (totals are accumulated *at retirement*, before each
tenant's state is released) and adds a ``streaming`` payload of steady-state
metrics; the determinism digest covers every tenant's full event log plus
the dynamics timeline, exactly like the serving path, so CI's repeat-run
``cmp`` and the golden digests pin streaming runs byte-for-byte.
"""

from __future__ import annotations

import hashlib
from typing import Dict

from repro.scenarios.dynamics import DynamicsInjector
from repro.workloads.spec import WorkloadInfo

__all__ = ["run_streaming_scenario"]


class _RetirementRollup:
    """Batch-style totals, absorbed per tenant the moment it retires.

    A retired tenant's graph / metrics are released right after, so the
    scenario totals cannot be computed at the end the way batch runs do —
    they are folded in here while the handle is still whole.
    """

    def __init__(self) -> None:
        self.completed_tasks = 0
        self.failed_tasks = 0
        self.retries = 0
        self.rescheduled_tasks = 0
        self.tasks_per_endpoint: Dict[str, int] = {}
        self.utilization_sum = 0.0
        self.workflow_count = 0

    def absorb(self, handle) -> None:
        summary = handle.summary()
        self.completed_tasks += summary.completed_tasks
        self.failed_tasks += summary.failed_tasks
        self.rescheduled_tasks += summary.rescheduled_tasks
        self.utilization_sum += summary.mean_worker_utilization
        self.workflow_count += 1
        for endpoint, count in summary.tasks_per_endpoint.items():
            self.tasks_per_endpoint[endpoint] = (
                self.tasks_per_endpoint.get(endpoint, 0) + count
            )
        for task in handle.graph:
            if task.attempts > 1:
                self.retries += task.attempts - 1

    def mean_utilization(self) -> float:
        return self.utilization_sum / self.workflow_count if self.workflow_count else 0.0


def run_streaming_scenario(
    spec,
    seed: int,
    env,
    config,
    max_wall_time_s: float,
    controller_factory=None,
):
    """One attempt of an open-loop streaming scenario (crash-recovery unit)."""
    from repro.scenarios.spec import ScenarioResult, _EventLogRecorder
    from repro.serving import WorkflowManager
    from repro.streaming import StreamingService

    manager = WorkflowManager(
        config,
        env.fabric,
        transfer_backend=env.transfer_backend,
        arbitration=spec.arbitration,
    )
    if spec.seed_knowledge:
        env.seed_full_knowledge(manager)
        env.seed_execution_knowledge(manager, spec.workload.task_types())

    recorders: Dict[str, _EventLogRecorder] = {}
    infos: Dict[str, WorkloadInfo] = {}
    rollup = _RetirementRollup()
    ctx = None

    def builder_factory(arrival):
        wid = arrival.workflow_id

        def build(handle) -> None:
            infos[wid] = spec.workload.build(handle)

        return build

    def on_admit(handle, arrival) -> None:
        recorder = _EventLogRecorder()
        handle.bus.subscribe_all(recorder)
        recorders[handle.workflow_id] = recorder
        if ctx is not None:
            # Engines are captured while live; recorders stay registered
            # after retirement so snapshot prefix/tail digests keep covering
            # every tenant's full event log.
            ctx.engines[handle.workflow_id] = handle.engine
            ctx.recorders[handle.workflow_id] = recorder

    def on_retire(handle, arrival) -> None:
        rollup.absorb(handle)
        if ctx is not None:
            ctx.engines.pop(handle.workflow_id, None)

    timeline = spec.dynamics.compile(
        [e.name for e in spec.topology], env.rng.stream("dynamics")
    )
    injector = DynamicsInjector(env, manager)
    injector.install(timeline)

    service = StreamingService(
        manager,
        spec.streaming,
        arrivals_rng=env.rng.stream("arrivals"),
        admission_rng=env.rng.stream("admission"),
        builder_factory=builder_factory,
        on_admit=on_admit,
        on_retire=on_retire,
    )

    controller = None
    if controller_factory is not None:
        # Same fixed call-site rule as the batch paths: controller events are
        # armed after the dynamics timeline, before the stream opens.
        from repro.durability.runtime import RunContext

        ctx = RunContext(env, spec, seed, manager)
        ctx.streaming = service
        controller = controller_factory(ctx)
        controller.install()

    service.install()
    if controller_factory is not None:
        from repro.durability.errors import OrchestratorCrashed

        try:
            manager.run(max_wall_time_s=max_wall_time_s)
        except OrchestratorCrashed:
            # The crashed attempt must release its shared-kernel footprint
            # (arrival/abandonment events, control-bus subscriptions) before
            # the recovery driver replays on a fresh federation.
            service.shutdown()
            manager.shutdown()
            raise
    else:
        manager.run(max_wall_time_s=max_wall_time_s)

    # Anything still live at the end (wall-time cutoff) counts too.
    for handle in manager.workflows():
        if handle.started:
            rollup.absorb(handle)

    digest = hashlib.sha256()
    digest.update(repr([e.as_dict() for e in timeline]).encode())
    for wid in sorted(recorders):
        digest.update(wid.encode())
        digest.update(repr(recorders[wid].entries).encode())

    crashes = sum(
        getattr(env.fabric.endpoint(name), "crash_count", 0)
        for name in env.fabric.endpoint_names()
    )
    dataplane_stats = manager.data_manager.stats_dict()

    result = ScenarioResult(
        scenario=spec.name,
        scheduler=spec.scheduler,
        seed=seed,
        # An open stream has no makespan; the field reports the simulated
        # span of the run (stream open -> last event drained).
        makespan_s=manager.clock.now(),
        total_tasks=sum(info.task_count for info in infos.values()),
        completed_tasks=rollup.completed_tasks,
        failed_tasks=rollup.failed_tasks,
        staged_mb=manager.data_manager.total_transferred_mb,
        retries=rollup.retries,
        rescheduled_tasks=rollup.rescheduled_tasks,
        mean_utilization_pct=rollup.mean_utilization(),
        tasks_per_endpoint=dict(sorted(rollup.tasks_per_endpoint.items())),
        dynamics_fired=[e.as_dict() for e in injector.fired],
        determinism_digest=digest.hexdigest(),
        endpoint_crashes=crashes,
        dataplane=dataplane_stats,
        streaming=service.payload(),
    )
    return result, controller
