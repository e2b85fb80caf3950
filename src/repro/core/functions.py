"""The ``@function`` decorator and simulation profiles (§III-A).

A *function* is a Python callable registered for remote execution; a *task*
is one invocation of it.  Invoking a decorated function does not run it —
instead the invocation is handed to the active :class:`UniFaaSClient`, which
adds a node to the dynamic task graph and returns a
:class:`~repro.core.futures.UniFuture`.

Two execution modes are supported:

* **local mode** — the function body really executes on a thread-pool
  endpoint; the decorator enforces the funcX 10 MB payload limit on
  serialized arguments.
* **simulation mode** — the body is not executed; the attached
  :class:`SimProfile` describes how long the task takes on given hardware and
  how much output data it produces, which is all the discrete-event fabric
  needs.
"""

from __future__ import annotations

import functools
import pickle
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.core.exceptions import SerializationLimitExceeded, UniFaaSError

__all__ = [
    "FederatedFunction",
    "SimProfile",
    "function",
    "payload_size_bytes",
    "PAYLOAD_LIMIT_BYTES",
    "current_client",
    "set_current_client",
]

#: funcX's hard limit on serialized Python-object arguments (§III-A).
PAYLOAD_LIMIT_BYTES = 10 * 1024 * 1024


# ---------------------------------------------------------------------------
# Active-client context: invoking a decorated function needs somewhere to
# register the task.  ``UniFaaSClient`` installs itself here on construction
# and within its ``with`` block.
# ---------------------------------------------------------------------------
_context = threading.local()


def set_current_client(client: Optional[Any]) -> None:
    """Install ``client`` as the target for subsequent function invocations."""
    _context.client = client


def current_client() -> Optional[Any]:
    """Return the client invocations are currently registered with (or None)."""
    return getattr(_context, "client", None)


@dataclass(frozen=True)
class SimProfile:
    """Ground-truth performance model of a function, used in simulation mode.

    The execution time of a task on an endpoint with hardware speed factor
    ``s`` and input size ``x`` MB is::

        (base_time_s + time_per_input_mb_s * x) / s * lognormal(jitter)

    and the task produces ``output_base_mb`` MB of output data, whatever its
    input.  The profilers never read this object — they learn it from
    observed executions, exactly as the paper's observe–predict–decide loop
    does.
    """

    #: Execution time of the task on a reference (speed factor 1.0) core.
    base_time_s: float = 1.0
    #: Additional seconds per MB of input data.
    time_per_input_mb_s: float = 0.0
    #: Output data volume produced regardless of input size (MB).
    output_base_mb: float = 0.0
    #: Log-normal sigma applied to sampled durations (0 = deterministic).
    jitter: float = 0.0
    #: Number of workers (cores) the task occupies; 1 for ordinary functions.
    cores: int = 1
    #: Probability that one execution attempt of this function fails on the
    #: endpoint (drawn from the endpoint's seeded RNG).  Combined with the
    #: endpoint-level injection rate; 1.0 makes every attempt fail, which is
    #: how the scenario zoo exhausts the §IV-G ladder deterministically.
    failure_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.base_time_s < 0 or self.time_per_input_mb_s < 0:
            raise ValueError("durations must be non-negative")
        if self.output_base_mb < 0:
            raise ValueError("output sizes must be non-negative")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if not 0.0 <= self.failure_rate <= 1.0:
            raise ValueError("failure_rate must be within [0, 1]")

    def duration_on(self, speed_factor: float, input_mb: float = 0.0, jitter_draw: float = 1.0) -> float:
        """Sampled execution time on hardware with the given speed factor."""
        if speed_factor <= 0:
            raise ValueError("speed_factor must be positive")
        base = (self.base_time_s + self.time_per_input_mb_s * input_mb) / speed_factor
        return base * jitter_draw


class FederatedFunction:
    """Wrapper created by :func:`function`.

    Calling the wrapper registers a task with the active client and returns a
    :class:`UniFuture`.  The raw callable remains accessible through
    :attr:`callable` (the local execution fabric runs it).
    """

    def __init__(
        self,
        fn: Callable[..., Any],
        *,
        name: Optional[str] = None,
        sim_profile: Optional[SimProfile] = None,
        payload_limit_bytes: int = PAYLOAD_LIMIT_BYTES,
    ) -> None:
        self.callable = fn
        self.name = name or fn.__name__
        #: ``None`` for functions registered without a simulation profile —
        #: the normal case for real (local-mode) functions.  Consumers that
        #: need a core count use :attr:`repro.core.dag.Task.cores`, which
        #: defaults to 1; only the simulated fabric requires a profile.
        self.sim_profile = sim_profile
        self.payload_limit_bytes = payload_limit_bytes
        functools.update_wrapper(self, fn)

    # ----------------------------------------------------------- invocation
    def __call__(self, *args: Any, **kwargs: Any):
        client = current_client()
        if client is None:
            raise UniFaaSError(
                f"function {self.name!r} invoked outside a UniFaaSClient context; "
                "create a client (or use `with client:`) before composing a workflow"
            )
        self.validate_payload(args, kwargs)
        return client.submit(self, args, kwargs)

    # ------------------------------------------------------------ validation
    def validate_payload(self, args: tuple, kwargs: Dict[str, Any]) -> None:
        """Enforce the 10 MB limit on plain-object arguments (§III-A).

        Future and RemoteFile arguments are exempt: futures resolve to
        results already present on some endpoint and RemoteFiles are staged
        by the data manager rather than serialized inline.
        """
        for index, value in enumerate(args):
            self._check_one(value, f"args[{index}]")
        for key, value in kwargs.items():
            self._check_one(value, key)

    def _check_one(self, value: Any, label: str) -> None:
        size = payload_size_bytes(value)
        if size is not None and size > self.payload_limit_bytes:
            raise SerializationLimitExceeded(size, self.payload_limit_bytes, argument=label)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FederatedFunction({self.name!r})"


def payload_size_bytes(value: Any) -> Optional[int]:
    """Serialized size of ``value`` in bytes, or ``None`` if exempt/unknown.

    Futures and RemoteFile-like objects (anything exposing
    ``get_remote_file_path``) are exempt from the limit.
    """
    from repro.core.futures import UniFuture  # local import to avoid a cycle

    if isinstance(value, UniFuture):
        return None
    if hasattr(value, "get_remote_file_path"):
        return None
    try:
        return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        # Unpicklable objects cannot travel to a remote endpoint at all, but
        # that is a task-execution-time error, not a payload-size error.
        return None


def function(
    fn: Optional[Callable[..., Any]] = None,
    *,
    name: Optional[str] = None,
    sim_profile: Optional[SimProfile] = None,
    payload_limit_bytes: int = PAYLOAD_LIMIT_BYTES,
):
    """Decorator marking a Python callable as a remotely executable function.

    Usable bare (``@function``) or with options
    (``@function(sim_profile=SimProfile(base_time_s=30))``).
    """

    def wrap(f: Callable[..., Any]) -> FederatedFunction:
        return FederatedFunction(
            f, name=name, sim_profile=sim_profile, payload_limit_bytes=payload_limit_bytes
        )

    if fn is not None:
        return wrap(fn)
    return wrap
