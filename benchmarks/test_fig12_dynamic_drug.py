"""Fig. 12 — drug screening under dynamic capacity.

Paper: active-worker counts track the capacity schedule (EP2 +600 workers at
t=120 s, EP1 −280 workers at t=540 s) and DHA's re-scheduling mechanism moves
pending tasks promptly when the capacity changes.
"""

from repro.experiments.reporting import format_timeseries
from repro.scenarios.presets import DRUG_DYNAMIC_CHANGES

from benchmarks.conftest import dynamic_study


def test_fig12_drug_screening_dynamic_timeline(benchmark):
    def collect():
        results = dynamic_study("drug_screening")
        return results["DHA"]

    dha = benchmark.pedantic(collect, rounds=1, iterations=1)

    print()
    print("Fig. 12 (drug screening, DHA) — active workers per endpoint over time")
    for endpoint, series in dha.active_workers.items():
        print(format_timeseries(f"  {endpoint:8s}", series, max_points=14))
    print("Cumulative re-scheduled tasks over time")
    print(format_timeseries("  re-sched", dha.rescheduled_series, max_points=14))

    benchmark.extra_info["rescheduled_tasks"] = dha.rescheduled_tasks

    # The capacity schedule is visible in the worker time-series: Qiming gains
    # workers after t=120 and Taiyi loses workers after t=540.
    qiming = dha.active_workers["qiming"]
    before = [v for t, v in zip(qiming.times, qiming.values) if t < DRUG_DYNAMIC_CHANGES["qiming"][0][0]]
    after = [v for t, v in zip(qiming.times, qiming.values) if t > DRUG_DYNAMIC_CHANGES["qiming"][0][0] + 60]
    assert max(after) > max(before) if before else True

    taiyi = dha.active_workers["taiyi"]
    early = [v for t, v in zip(taiyi.times, taiyi.values) if t < DRUG_DYNAMIC_CHANGES["taiyi"][0][0]]
    late = [v for t, v in zip(taiyi.times, taiyi.values) if t > DRUG_DYNAMIC_CHANGES["taiyi"][0][0] + 300]
    if early and late:
        assert min(late) < max(early)

    # Re-scheduling fired while the workflow was running.
    assert dha.rescheduled_tasks > 0
    assert dha.rescheduled_series.values[-1] == dha.rescheduled_tasks
