"""Plain-text reporting helpers for the experiment harnesses.

The benchmark suite prints the same rows/series the paper reports so that a
reader can compare shapes side by side (``README.md``, "Tests and
benchmarks", says how to run it).
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence

from repro.experiments.case_studies import CaseStudyResult
from repro.metrics.collector import TimeSeries

__all__ = [
    "format_table",
    "format_case_study_table",
    "format_timeseries",
    "downsample",
]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a simple fixed-width text table."""
    rendered_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) < 0.01:
            return f"{value:.2e}"
        return f"{value:,.2f}"
    return str(value)


def format_case_study_table(results: Mapping[str, CaseStudyResult]) -> str:
    """Render results in the shape of Tables IV/V."""
    headers = ["Experiment", "Makespan (s)", "Transfer size (GB)", "Tasks", "Re-scheduled"]
    rows = []
    for name, result in results.items():
        rows.append(
            [
                name,
                result.makespan_s,
                result.transfer_size_gb,
                result.task_count,
                result.rescheduled_tasks,
            ]
        )
    return format_table(headers, rows)


def downsample(series: TimeSeries, max_points: int = 20) -> List[tuple]:
    """Reduce a time series to at most ``max_points`` (time, value) pairs."""
    n = len(series)
    if n == 0:
        return []
    step = max(1, n // max_points)
    points = [(series.times[i], series.values[i]) for i in range(0, n, step)]
    if points[-1][0] != series.times[-1]:
        points.append((series.times[-1], series.values[-1]))
    return points


def format_timeseries(name: str, series: TimeSeries, max_points: int = 12) -> str:
    """Render a compact one-line view of a time series."""
    points = downsample(series, max_points)
    rendered = ", ".join(f"{t:.0f}s:{v:.0f}" for t, v in points)
    return f"{name}: {rendered}"
