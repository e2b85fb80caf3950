"""The federation's list of live engines is the one every reader sees.

An engine joins ``Federation.engines`` when it is built and leaves it when
the run loop retires its tenant; the placement service solves over that list
in place and a durability capture walks it.  Nothing else keeps a copy.
"""

from repro.durability.capture import capture_sections
from repro.placement.service import PlacementService
from repro.serving import Federation, WorkflowManager

from tests.serving.serving_env import build_env
from tests.serving.test_workflow_manager import chain_builder


def test_the_plan_and_a_capture_see_exactly_the_live_engines(monkeypatch):
    env = build_env()
    config = env.make_config("DHA", enable_scaling=False)
    federation = Federation(config, env.fabric, transfer_backend=env.transfer_backend)
    manager = WorkflowManager(federation, arbitration="fifo")
    handles = [
        manager.add_workflow(f"wf{i}", builder=chain_builder(length=3)) for i in range(3)
    ]
    assert federation.engines == [h.engine for h in handles]
    manager.run(max_wall_time_s=60)

    solved_over = []
    build = PlacementService._build_problem

    def spy(self, engines):
        solved_over.append(list(engines))
        return build(self, engines)

    monkeypatch.setattr(PlacementService, "_build_problem", spy)

    def readers():
        federation.plan_service.resolve(federation.clock.now)
        return solved_over[-1], sorted(capture_sections(env, manager)["workflows"])

    assert readers() == ([h.engine for h in handles], ["wf0", "wf1", "wf2"])
    manager.retire(handles[1])
    live = [handles[0].engine, handles[2].engine]
    assert federation.engines == live
    assert readers() == (live, ["wf0", "wf2"])
