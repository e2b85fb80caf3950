"""Performance profilers (§IV-C).

UniFaaS predicts task execution times and data transfer times with common
performance models trained on monitored history:

* :mod:`repro.profiling.models` — regression models implemented from scratch
  on NumPy (random forest, polynomial) so no external ML
  dependency is needed;
* :mod:`repro.profiling.execution` — the execution profiler (one model per
  function, predicting execution time and output size from input size and
  endpoint hardware);
* :mod:`repro.profiling.transfer` — the transfer profiler (per endpoint pair,
  predicting transfer time from size, bandwidth and concurrency).
"""

from repro.profiling.models import (
    DecisionTreeRegressor,
    PolynomialRegression,
    RandomForestRegressor,
)
from repro.profiling.execution import ExecutionProfiler
from repro.profiling.transfer import TransferProfiler

__all__ = [
    "DecisionTreeRegressor",
    "ExecutionProfiler",
    "PolynomialRegression",
    "RandomForestRegressor",
    "TransferProfiler",
]
