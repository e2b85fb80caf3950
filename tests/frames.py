"""Count the Python frames an operation runs, with ``sys.setprofile``.

The frame-count guards pin how many Python-level calls one step of the
per-task path costs.  Only ``"call"`` profile events count: C functions
(``heapq.heappush``, ``object.__new__``, ``deque.append``) report
``"c_call"`` instead, so the count is the number of Python frames entered,
the quantity ``benchmarks/e2e/run.py`` reports as ``py_calls_per_task``.
"""

from __future__ import annotations

import sys
from typing import Callable, List


def python_frames(operation: Callable[[], object]) -> List[str]:
    """The names of the Python functions ``operation()`` enters, in call
    order (the ``operation`` frame itself is not listed)."""
    own = operation.__code__
    names: List[str] = []

    def profile(frame, event, arg) -> None:
        if event == "call" and frame.f_code is not own:
            names.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        operation()
    finally:
        sys.setprofile(None)
    return names
