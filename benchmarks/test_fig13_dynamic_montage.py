"""Fig. 13 — Montage under dynamic capacity.

Paper: EP1 gains 80 workers at t=120 s and EP2 loses 168 workers at t=300 s;
DHA re-schedules pending tasks when the capacity changes and its active
worker counts follow the schedule.
"""

from repro.experiments.reporting import format_timeseries
from repro.scenarios.presets import MONTAGE_DYNAMIC_CHANGES

from benchmarks.conftest import dynamic_study


def test_fig13_montage_dynamic_timeline(benchmark):
    def collect():
        results = dynamic_study("montage")
        return results

    results = benchmark.pedantic(collect, rounds=1, iterations=1)
    dha = results["DHA"]

    print()
    print("Fig. 13 (montage, DHA) — active workers per endpoint over time")
    for endpoint, series in dha.active_workers.items():
        print(format_timeseries(f"  {endpoint:8s}", series, max_points=14))
    print("Cumulative re-scheduled tasks over time")
    print(format_timeseries("  re-sched", dha.rescheduled_series, max_points=14))

    benchmark.extra_info["makespans"] = {
        name: round(r.makespan_s, 1) for name, r in results.items()
    }

    # Taiyi (EP1) gains capacity at t=120: its worker count rises afterwards.
    taiyi = dha.active_workers["taiyi"]
    change_t = MONTAGE_DYNAMIC_CHANGES["taiyi"][0][0]
    before = [v for t, v in zip(taiyi.times, taiyi.values) if t < change_t]
    after = [v for t, v in zip(taiyi.times, taiyi.values) if t > change_t + 60]
    if before and after:
        assert max(after) > max(before)

    # Qiming (EP2) loses capacity at t=300: its worker count falls afterwards.
    qiming = dha.active_workers["qiming"]
    drop_t = MONTAGE_DYNAMIC_CHANGES["qiming"][0][0]
    early = [v for t, v in zip(qiming.times, qiming.values) if t < drop_t]
    late = [v for t, v in zip(qiming.times, qiming.values) if t > drop_t + 120]
    if early and late:
        assert min(late) < max(early)

    # The adaptive schedulers all finish; DHA is the fastest (Table V shape).
    assert dha.makespan_s <= min(r.makespan_s for r in results.values()) * 1.01
