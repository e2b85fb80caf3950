"""The exact-count gate ``benchmarks/check_e2e_calls.py``, on canned inputs.

The gate is two-sided around each committed ceiling: more than 3 % above it
is a regression, more than 3 % below it is a stale ceiling (the cut was not
recorded where it was earned).  Runs that failed tasks, workloads without a
ceiling and counts taken under another Python are refused.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUNNING = "%d.%d" % sys.version_info[:2]


@pytest.fixture
def gate(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "check_e2e_calls", ROOT / "benchmarks" / "check_e2e_calls.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    baseline = tmp_path / "e2e_calls.json"
    baseline.write_text(json.dumps({"python": RUNNING, "py_calls_per_task": {"w": 400.0}}))
    monkeypatch.setattr(module, "BASELINE", baseline)

    def run(calls, *, workload="w", failed=0):
        result = tmp_path / "result.json"
        result.write_text(
            json.dumps(
                {
                    "correct": not failed,
                    "failed": failed,
                    "attempted": 100,
                    "metrics": {"py_calls_per_task": {"value": calls}},
                }
            )
        )
        return module.main([workload, str(result)])

    run.baseline = baseline
    return run


@pytest.mark.parametrize("calls", [400.0, 411.9, 388.1, 412.0, 388.0])
def test_a_count_within_three_percent_passes(gate, calls):
    assert gate(calls) == 0


def test_a_count_above_the_band_is_a_regression(gate, capsys):
    assert gate(412.5) == 1
    assert "EXCEEDED" in capsys.readouterr().out


def test_a_count_below_the_band_is_a_stale_ceiling(gate, capsys):
    assert gate(387.5) == 1
    captured = capsys.readouterr()
    assert "stale ceiling" in captured.out
    assert "387.50" in captured.err  # the value to lower the ceiling to


def test_a_run_that_failed_tasks_is_refused(gate):
    assert gate(400.0, failed=3) == 1


def test_an_unknown_workload_or_another_python_cannot_be_judged(gate):
    assert gate(400.0, workload="other") == 2
    gate.baseline.write_text(json.dumps({"python": "2.7", "py_calls_per_task": {"w": 400.0}}))
    assert gate(400.0) == 2


def test_the_committed_ceilings_cover_the_benchmark_workloads():
    committed = json.loads((ROOT / "benchmarks" / "baselines" / "e2e_calls.json").read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(committed["py_calls_per_task"]) == {w["name"] for w in declared["workloads"]}
