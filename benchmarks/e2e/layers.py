"""Which callables the traced repetition wraps, and the metrics read off them.

Layer names are the ``src/repro`` package names.  ``WHERE`` says where each
span is measured; ``SPAN_METRICS`` says how a per-layer metric of
``BENCHMARK.json`` is read off a span.  The remaining per-layer metrics come
from the run's own counters (``ScenarioResult``) and from the driver
(``harness.*``, see ``run.py``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from spans import Target, Tracer


#: span -> the callables timed under it.  Private callables appear only where
#: a layer does its work in a place the public entry never sees: the engine's
#: batched completion path is driven by whichever run loop owns the fabric,
#: and attributing it to that loop would book engine time on the serving layer.
WHERE: Dict[str, List[str]] = {
    "sim.step": ["repro.sim.kernel:SimulationKernel.step"],
    "faas.process": ["repro.faas.fabric:SimulatedFabric.process"],
    "faas.submit": ["repro.faas.fabric:SimulatedFabric.submit"],
    "faas.flush": ["repro.faas.fabric:SimulatedFabric.flush"],
    "engine.run": ["repro.engine.core:ExecutionEngine.run"],
    "engine.submit": ["repro.engine.core:ExecutionEngine.submit"],
    "engine.drain_growth": ["repro.engine.core:ExecutionEngine.drain_growth"],
    "engine.completions": ["repro.engine.core:ExecutionEngine._handle_completions"],
    "engine.schedule_ready": ["repro.engine.placement:PlacementCoordinator.schedule_ready"],
    "engine.begin_staging": ["repro.engine.staging:StagingCoordinator.begin_staging"],
    "engine.dispatch_staged": ["repro.engine.dispatch:DispatchCoordinator.dispatch_staged"],
    "engine.staged_demand": ["repro.engine.dispatch:DispatchCoordinator.staged_demand"],
    "engine.periodic_check": ["repro.engine.periodic:PeriodicCoordinator.check"],
    "engine.bus": [
        "repro.engine.bus:EventBus.publish",
        "repro.engine.bus:EventBus.publish_many",
    ],
    "sched.schedule": ["repro.sched.dha:DHAScheduler.schedule"],
    "sched.reschedule": ["repro.sched.dha:DHAScheduler.reschedule"],
    "sched.on_tasks_added": [
        "repro.sched.dha:DHAScheduler.on_tasks_added",
        "repro.sched.dha:DHAScheduler.on_workflow_submitted",
    ],
    "profiling.predict": [
        "repro.profiling.execution:ExecutionProfiler.predict_execution_time",
        "repro.profiling.execution:ExecutionProfiler.predict_time_matrix",
        "repro.profiling.execution:ExecutionProfiler.predict_output_mb",
        "repro.profiling.transfer:TransferProfiler.predict_transfer_time",
    ],
    "profiling.observe": [
        "repro.profiling.execution:ExecutionProfiler.observe",
        "repro.profiling.transfer:TransferProfiler.observe",
    ],
    "profiling.update_models": [
        "repro.profiling.execution:ExecutionProfiler.update_models",
        "repro.profiling.transfer:TransferProfiler.update_models",
    ],
    "monitor.synchronize": ["repro.monitor.endpoint_monitor:EndpointMonitor.synchronize"],
    "monitor.history": [
        "repro.monitor.store:HistoryStore.add_task_record",
        "repro.monitor.store:HistoryStore.add_transfer_record",
    ],
    "serving.run": ["repro.serving.manager:WorkflowManager.run"],
    "serving.allocate": [
        "repro.serving.arbitration:FifoArbitration.allocate",
        "repro.serving.arbitration:StrictPriorityArbitration.allocate",
        "repro.serving.arbitration:EdfArbitration.allocate",
        "repro.serving.arbitration:FairShareArbitration.allocate",
    ],
    "serving.add_workflow": ["repro.serving.manager:WorkflowManager.add_workflow"],
    "serving.retire": ["repro.serving.manager:WorkflowManager.retire"],
    "streaming.admission": [
        "repro.streaming.admission:AdmissionController.submit",
        "repro.streaming.admission:AdmissionController.pump",
    ],
    "dataplane.stage": ["repro.dataplane.plane:DataPlane.stage"],
    "dataplane.prefetch": ["repro.dataplane.plane:DataPlane.prefetch"],
    "dataplane.register_output": ["repro.dataplane.plane:DataPlane.register_output"],
    "placement.resolve": ["repro.placement.service:PlacementService.resolve"],
    "metrics.sample": ["repro.metrics.collector:MetricsCollector.sample"],
}

TARGETS: List[Target] = [
    Target(
        span,
        where,
        # Placements returned: the summed len() of the schedulers' results.
        sized=span in ("sched.schedule", "sched.reschedule"),
        # The kernel instance, for its ``events_processed`` counter.
        keep_self=span == "sim.step",
    )
    for span, wheres in WHERE.items()
    for where in wheres
]

#: The layers whose share of the traced repetition is reported.
LAYERS = (
    "sim", "faas", "engine", "sched", "profiling", "monitor",
    "serving", "streaming", "dataplane", "placement", "metrics",
)

#: metric -> (span, reading).  Readings: ``self_s`` seconds inside the span
#: but outside its child spans; ``calls``; ``calls_per_task``.
SPAN_METRICS: Dict[str, Tuple[str, str]] = {
    "sim.step_self_s": ("sim.step", "self_s"),
    "faas.loop_rounds_per_task": ("faas.process", "calls_per_task"),
    "faas.process_self_s": ("faas.process", "self_s"),
    "faas.submit_self_s": ("faas.submit", "self_s"),
    "faas.flush_self_s": ("faas.flush", "self_s"),
    "engine.run_self_s": ("engine.run", "self_s"),
    "engine.submit_self_s": ("engine.submit", "self_s"),
    "engine.drain_growth_self_s": ("engine.drain_growth", "self_s"),
    "engine.completions_self_s": ("engine.completions", "self_s"),
    "engine.schedule_ready_calls_per_task": ("engine.schedule_ready", "calls_per_task"),
    "engine.schedule_ready_self_s": ("engine.schedule_ready", "self_s"),
    "engine.begin_staging_self_s": ("engine.begin_staging", "self_s"),
    "engine.dispatch_staged_calls_per_task": ("engine.dispatch_staged", "calls_per_task"),
    "engine.dispatch_staged_self_s": ("engine.dispatch_staged", "self_s"),
    "engine.staged_demand_self_s": ("engine.staged_demand", "self_s"),
    "engine.periodic_check_self_s": ("engine.periodic_check", "self_s"),
    "engine.bus_events_per_task": ("engine.bus", "calls_per_task"),
    "engine.bus_self_s": ("engine.bus", "self_s"),
    "sched.schedule_calls_per_task": ("sched.schedule", "calls_per_task"),
    "sched.schedule_self_s": ("sched.schedule", "self_s"),
    "sched.reschedule_calls": ("sched.reschedule", "calls"),
    "sched.reschedule_self_s": ("sched.reschedule", "self_s"),
    "sched.on_tasks_added_self_s": ("sched.on_tasks_added", "self_s"),
    "profiling.predict_calls_per_task": ("profiling.predict", "calls_per_task"),
    "profiling.predict_self_s": ("profiling.predict", "self_s"),
    "profiling.observe_self_s": ("profiling.observe", "self_s"),
    "profiling.update_models_calls": ("profiling.update_models", "calls"),
    "profiling.update_models_self_s": ("profiling.update_models", "self_s"),
    "monitor.synchronize_calls": ("monitor.synchronize", "calls"),
    "monitor.synchronize_self_s": ("monitor.synchronize", "self_s"),
    "monitor.history_writes_per_task": ("monitor.history", "calls_per_task"),
    "monitor.history_self_s": ("monitor.history", "self_s"),
    "serving.run_self_s": ("serving.run", "self_s"),
    "serving.allocate_calls_per_task": ("serving.allocate", "calls_per_task"),
    "serving.allocate_self_s": ("serving.allocate", "self_s"),
    "serving.add_workflow_self_s": ("serving.add_workflow", "self_s"),
    "serving.retire_self_s": ("serving.retire", "self_s"),
    "streaming.admission_self_s": ("streaming.admission", "self_s"),
    "dataplane.stage_calls_per_task": ("dataplane.stage", "calls_per_task"),
    "dataplane.stage_self_s": ("dataplane.stage", "self_s"),
    "dataplane.prefetch_calls": ("dataplane.prefetch", "calls"),
    "dataplane.prefetch_self_s": ("dataplane.prefetch", "self_s"),
    "dataplane.register_output_self_s": ("dataplane.register_output", "self_s"),
    "placement.resolve_calls": ("placement.resolve", "calls"),
    "placement.resolve_self_s": ("placement.resolve", "self_s"),
    "metrics.sample_calls": ("metrics.sample", "calls"),
    "metrics.sample_self_s": ("metrics.sample", "self_s"),
}


def derive(tracer: Tracer, result, wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition (all but ``harness.*``)."""
    tasks = max(1, result.total_tasks)
    metrics: Dict[str, float] = {}
    for name, (span, reading) in SPAN_METRICS.items():
        stat = tracer.stat(span)
        if reading == "self_s":
            metrics[name] = stat.self_s
        elif reading == "calls":
            metrics[name] = stat.count
        elif reading == "calls_per_task":
            metrics[name] = stat.count / tasks
        else:
            raise ValueError(f"unknown reading {reading!r} for {name}")

    placements = tracer.stat("sched.schedule").items + tracer.stat("sched.reschedule").items
    metrics["sched.placements_per_task"] = placements / tasks
    kernel = tracer.instances.get("sim.step")
    metrics["sim.kernel_events_per_task"] = getattr(kernel, "events_processed", 0) / tasks

    layer_self = tracer.layer_self_s()
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = layer_self.get(layer, 0.0) / wall_s
    metrics["harness.untraced_share"] = 1.0 - tracer.self_total_s() / wall_s

    dataplane = result.dataplane
    metrics["dataplane.cache_hit_share"] = float(dataplane.get("cache_hit_rate", 0.0))
    metrics["dataplane.prefetch_useful_share"] = float(dataplane.get("prefetch_usefulness", 0.0))
    metrics["dataplane.evictions"] = float(dataplane.get("evictions", 0))
    metrics["serving.wait_p95_s"] = float(result.serving.get("wait_p95_s", 0.0))

    stream = result.streaming
    arrivals = max(1, int(stream.get("arrivals", 0)))
    refused = int(stream.get("rejected", 0)) + int(stream.get("abandoned", 0))
    metrics["streaming.rejected_share"] = int(stream.get("rejected", 0)) / arrivals
    metrics["streaming.abandoned_share"] = int(stream.get("abandoned", 0)) / arrivals
    # An arrival that was turned away missed its deadline too.
    metrics["streaming.deadline_miss_share"] = (
        int(stream.get("deadline_misses", 0)) + refused
    ) / arrivals
    metrics["streaming.wait_p95_s"] = float(stream.get("wait_p95_s", 0.0))

    metrics["makespan_s"] = result.makespan_s
    metrics["bytes_moved_mb"] = result.staged_mb
    return metrics
