"""Admission-control edge cases: queue bound, abandonment, SLO draws."""

import numpy as np
import pytest

from repro.sim.kernel import SimulationKernel
from repro.streaming import AdmissionController, StreamArrival, StreamingSpec


class Harness:
    """A controller wired to in-memory sinks with a controllable active count."""

    def __init__(self, spec, *, active=0, seed=0):
        self.kernel = SimulationKernel()
        self.active = active
        self.admitted = []
        self.controller = AdmissionController(
            self.kernel,
            np.random.default_rng(seed),
            spec,
            lambda arrival, now: self.admitted.append((arrival, now)),
            active_count=lambda: self.active,
        )

    def arrive(self, index, at_s):
        arrival = StreamArrival(
            index=index, workflow_id=f"wf{index:05d}", arrival_s=at_s
        )
        self.kernel.schedule_at(at_s, self.controller.submit, arrival)
        return arrival


class TestQueueBound:
    def test_arrival_at_queue_bound_is_rejected_and_counted(self):
        spec = StreamingSpec(queue_limit=2, max_active=0, patience_s=0.0)
        h = Harness(spec, active=0)
        for i in range(4):
            h.arrive(i, 1.0 + i)
        h.kernel.run()
        # max_active=0 means nothing drains: slots 0-1 queue, 2-3 hit the bound.
        assert h.controller.submitted == 4
        assert h.controller.rejected == 2
        assert [a.workflow_id for a in h.controller.pending] == ["wf00000", "wf00001"]
        assert h.controller.queue_depth_peak == 2

    def test_rejection_still_draws_slo(self):
        # The SLO draw happens before the bound check, so the admission RNG
        # stream advances identically whether or not the queue is full —
        # a replay with a different active count stays aligned.
        spec = StreamingSpec(
            queue_limit=0, max_active=0, patience_s=0.0, slo_choices=(10.0, 20.0)
        )
        h = Harness(spec)
        arrival = h.arrive(0, 1.0)
        h.kernel.run()
        assert h.controller.rejected == 1
        assert arrival.slo_s in (10.0, 20.0)

    def test_admitted_when_slot_free(self):
        spec = StreamingSpec(queue_limit=4, max_active=2, patience_s=0.0)
        h = Harness(spec, active=0)
        for i in range(3):
            h.arrive(i, 1.0 + i)
        h.kernel.run()
        # active_count is static 0 here, so every pump admits immediately.
        assert h.controller.admitted == 3
        assert [a.workflow_id for a, _ in h.admitted] == [
            "wf00000",
            "wf00001",
            "wf00002",
        ]
        assert [now for _, now in h.admitted] == [1.0, 2.0, 3.0]


class TestAbandonment:
    def test_abandons_exactly_at_patience_deadline(self):
        spec = StreamingSpec(queue_limit=8, max_active=0, patience_s=30.0)
        h = Harness(spec)
        h.arrive(0, 5.0)
        h.kernel.run()
        assert h.controller.abandoned == 1
        # The abandon event fires exactly at arrival + patience, and keeps
        # the kernel alive until then (it is a non-daemon event).
        assert h.kernel.clock.now == pytest.approx(35.0)
        assert not h.controller.pending

    def test_admission_cancels_the_abandon_event(self):
        spec = StreamingSpec(queue_limit=8, max_active=4, patience_s=30.0)
        h = Harness(spec)
        h.arrive(0, 5.0)
        h.kernel.run()
        assert h.controller.admitted == 1
        assert h.controller.abandoned == 0
        # No abandon event left behind: the run ends at admission time.
        assert h.kernel.clock.now == pytest.approx(5.0)
        assert not h.controller._abandon_handles

    def test_late_pump_frees_slot_too_late(self):
        spec = StreamingSpec(queue_limit=8, max_active=1, patience_s=10.0)
        h = Harness(spec, active=1)  # slot busy for the arrival's whole patience
        h.arrive(0, 0.0)

        def free_slot():
            h.active = 0
            h.controller.pump()

        h.kernel.schedule_at(20.0, free_slot, daemon=True)
        h.kernel.run()
        assert h.controller.abandoned == 1
        assert h.controller.admitted == 0

    def test_zero_patience_waits_forever(self):
        spec = StreamingSpec(queue_limit=8, max_active=1, patience_s=0.0)
        h = Harness(spec, active=1)
        h.arrive(0, 0.0)

        def free_slot():
            h.active = 0
            h.controller.pump()

        # Non-daemon: with zero patience there is no abandon event keeping
        # the kernel alive, so the slot-free event must be a real one.
        h.kernel.schedule_at(500.0, free_slot)
        h.kernel.run()
        assert h.controller.abandoned == 0
        assert h.controller.admitted == 1

    def test_shutdown_cancels_pending_abandons(self):
        spec = StreamingSpec(queue_limit=8, max_active=0, patience_s=100.0)
        h = Harness(spec)
        h.arrive(0, 1.0)
        h.kernel.schedule_at(2.0, h.controller.shutdown, daemon=True)
        h.kernel.run()
        assert h.controller.abandoned == 0
        assert h.kernel.clock.now == pytest.approx(2.0)


class TestSloDraw:
    def test_fixed_slo_without_choices(self):
        spec = StreamingSpec(queue_limit=8, max_active=4, slo_s=77.0)
        h = Harness(spec)
        arrival = h.arrive(0, 1.0)
        h.kernel.run()
        assert arrival.slo_s == 77.0
        assert arrival.deadline_s == pytest.approx(78.0)

    def test_slo_choices_draw_is_seed_deterministic(self):
        spec = StreamingSpec(
            queue_limit=32, max_active=32, slo_choices=(40.0, 80.0, 480.0)
        )

        def draws(seed):
            h = Harness(spec, seed=seed)
            arrivals = [h.arrive(i, 1.0 + i) for i in range(10)]
            h.kernel.run()
            return [a.slo_s for a in arrivals]

        first = draws(3)
        assert first == draws(3)
        assert set(first) <= {40.0, 80.0, 480.0}
        assert len(set(first)) > 1  # the stream really varies
