"""Pipelined prefetching — overlapping staging with predecessor execution.

The paper's data-aware schedulers hide staging behind computation for tasks
that are already *placed*; the prefetcher extends the overlap one step
earlier in the lifecycle.  A task is **ready-soon** when every one of its
unfinished predecessors has at least been dispatched — from that moment its
remaining wait is predecessor execution time, which is exactly the window a
wide-area transfer can hide inside.

Driven by the engine (:meth:`Prefetcher.on_predecessor_progress`):

* when a predecessor is dispatched, the successor's *already available*
  inputs (workflow-declared files, outputs of predecessors that finished
  earlier) start moving;
* when a predecessor completes, its fresh outputs join the pipeline while
  the remaining predecessors still run.

The destination is a *guess*: the scheduler's placement hint (DHA's
earliest-finish-time selection over current state) when available, otherwise
the endpoint minimising bytes moved (the Locality rule).  To keep a batch of
guesses honest the prefetcher overlays **virtual claims** on the hint — each
guess books one slot at its endpoint until the task is really placed — so a
wave of ready-soon siblings fans out the way ``schedule()`` will fan them
out, instead of all aiming at the currently least-loaded site.

Guessing wrong or losing a prefetched replica to eviction is safe — demand
staging re-stages whatever is missing when the task is actually placed — and
every prefetch rides the
:data:`~repro.dataplane.transfer_scheduler.PREFETCH` service class, ordered
by DHA task priority, so speculation never delays demand traffic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.core.dag import (COMPLETED_CODE, PENDING_CODE, TERMINAL_STATES, Task, TaskGraph,
                            TaskState, state_codes)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dataplane.plane import DataPlane

__all__ = ["Prefetcher"]

#: Predecessor states that make a successor "ready-soon": nothing left ahead
#: of it but execution (and the successor itself is still pending).
_IN_FLIGHT = state_codes(TaskState.DISPATCHED, TaskState.RUNNING, TaskState.COMPLETED)
#: Input files one ready-soon task may have prefetched.
_MAX_FILES_PER_TASK = 32


class Prefetcher:
    """Stages ready-soon tasks' available inputs ahead of placement."""

    def __init__(
        self,
        plane: "DataPlane",
        graph: TaskGraph,
        *,
        placement_hint: Optional[
            Callable[[Task, Optional[Dict[str, int]]], Optional[str]]
        ] = None,
        endpoint_names: Optional[Callable[[], List[str]]] = None,
        plan_provider: Optional[Callable[[], object]] = None,
    ) -> None:
        self._plane = plane
        self._graph = graph
        self._placement_hint = placement_hint
        self._endpoint_names = endpoint_names
        #: Zero-arg callable returning the current placement plan (or None):
        #: when the task's dominant input has a plan replica root, the guess
        #: aims there before consulting the per-task EFT hint.
        self._plan_provider = plan_provider
        #: Guessed destination per still-pending task, and the per-endpoint
        #: slots those guesses have booked (released on real placement).
        self._guesses: Dict[str, str] = {}
        self._virtual_claims: Dict[str, int] = {}
        #: READY-but-unplaced tasks already fed to the pipeline — the pump
        #: re-offers them every round while capacity is starved, and one
        #: consideration per starvation episode is enough.
        self._unplaced_seen: set = set()

        # Counters (metrics / benchmarks).
        self.issued = 0
        #: Guessed destinations confirmed / refuted by the real placement.
        self.guesses_confirmed = 0
        self.guesses_missed = 0

    # ---------------------------------------------------------------- events
    def on_predecessor_progress(self, task: Task) -> None:
        """``task`` was dispatched or completed: feed its ready-soon successors."""
        for successor in task.successors:
            self.consider(successor)

    def on_task_placed(self, task_id: str, endpoint: str) -> None:
        """The real placement landed: release the guess's virtual claim."""
        self._unplaced_seen.discard(task_id)
        guess = self._release_guess(task_id)
        if guess is None:
            return
        if guess == endpoint:
            self.guesses_confirmed += 1
        else:
            self.guesses_missed += 1

    def on_task_terminal(self, task_id: str) -> None:
        """A task failed terminally: its guess — and the guesses of any
        successors the failure cascaded into cancelling — must not keep
        booking phantom backlog.  Terminal events are rare, so one sweep of
        the outstanding guesses is cheap.  The unplaced-starvation marker is
        dropped too, so terminally failed tasks cannot accumulate in
        ``_unplaced_seen`` forever."""
        self._unplaced_seen.discard(task_id)
        self._release_guess(task_id)
        for guessed_id in list(self._guesses):
            if guessed_id not in self._graph:
                self._release_guess(guessed_id)
                self._unplaced_seen.discard(guessed_id)
            elif self._graph.get(guessed_id).state in TERMINAL_STATES:
                self._release_guess(guessed_id)
                self._unplaced_seen.discard(guessed_id)

    def _release_guess(self, task_id: str) -> Optional[str]:
        guess = self._guesses.pop(task_id, None)
        if guess is None:
            return None
        count = self._virtual_claims.get(guess, 0)
        if count > 1:
            self._virtual_claims[guess] = count - 1
        else:
            self._virtual_claims.pop(guess, None)
        return guess

    def consider_unplaced(self, task: Task) -> int:
        """Prefetch for a READY task the scheduler could not place this round.

        The task is past ready-soon — it is waiting for capacity, not for
        predecessors — so its inputs can move toward the hinted endpoint
        while the pool drains.
        """
        if task.state != TaskState.READY:
            return 0
        if task.task_id in self._unplaced_seen:
            return 0
        self._unplaced_seen.add(task.task_id)
        return self._prefetch_inputs(task)

    # ------------------------------------------------------------------ logic
    def consider(self, task: Task) -> int:
        """Prefetch ``task``'s currently available inputs; returns count issued."""
        if self._graph.store.state[task._row] != PENDING_CODE:
            return 0  # ready or beyond: demand staging owns it now
        if not self._ready_soon(task):
            return 0
        return self._prefetch_inputs(task)

    def _prefetch_inputs(self, task: Task) -> int:
        files = self._available_inputs(task)
        if not files:
            return 0
        destination = self._guess_destination(task)
        if destination is None:
            return 0
        issued = 0
        for file in files[:_MAX_FILES_PER_TASK]:
            if self._plane.prefetch(file, destination, priority=task.priority):
                issued += 1
                self.issued += 1
        return issued

    def _ready_soon(self, task: Task) -> bool:
        for parent in task.predecessors:
            if self._graph.store.state[parent._row] not in _IN_FLIGHT:
                return False
        return True

    def _available_inputs(self, task: Task) -> List:
        """Inputs that exist somewhere already, in deterministic order."""
        files = []
        seen = set()
        for file in task.input_files:
            if file.size_mb > 0 and file.locations and file.file_id not in seen:
                seen.add(file.file_id)
                files.append(file)
        for parent in task.predecessors:
            if self._graph.store.state[parent._row] != COMPLETED_CODE:
                continue
            for file in parent.output_files:
                if file.size_mb > 0 and file.locations and file.file_id not in seen:
                    seen.add(file.file_id)
                    files.append(file)
        return files

    def _guess_destination(self, task: Task) -> Optional[str]:
        if task.assigned_endpoint is not None:
            return task.assigned_endpoint
        cached = self._guesses.get(task.task_id)
        if cached is not None:
            return cached
        guess = self._fresh_guess(task)
        if guess is not None:
            # Book one slot at the guessed endpoint so the next sibling's
            # hint sees the backlog schedule() will see — a wave of
            # ready-soon tasks fans out instead of piling onto one site.
            self._guesses[task.task_id] = guess
            self._virtual_claims[guess] = self._virtual_claims.get(guess, 0) + 1
        return guess

    def _fresh_guess(self, task: Task) -> Optional[str]:
        root = self._plan_root_guess(task)
        if root is not None:
            return root
        if self._placement_hint is not None:
            hint = self._placement_hint(task, self._virtual_claims)
            if hint is not None:
                return hint
        if self._endpoint_names is None:
            return None
        names = self._endpoint_names()
        if not names:
            return None
        # Locality fallback: the endpoint that would move the fewest bytes.
        return min(
            names,
            key=lambda name: (self._plane.bytes_to_move_mb(task.input_files, name), name),
        )

    def _plan_root_guess(self, task: Task) -> Optional[str]:
        """The plan replica root of the task's largest rooted input, if any.

        The global optimizer already decided where the warm copy of each hot
        dataset should live; a consumer's inputs are most cheaply assembled
        there, so the guess defers to the plan before re-deriving an answer
        from per-task EFT state.
        """
        provider = self._plan_provider
        plan = provider() if provider is not None else None
        if plan is None:
            return None
        root_of = plan.replica_roots.get
        best = None
        for file in task.input_files:
            root = root_of(file.file_id)
            if root is None:
                continue
            # The largest input wins; equal sizes go to the smaller file id.
            size = file.size_mb
            if best is None or size > best_size or (size == best_size and file.file_id < best_id):
                best, best_size, best_id = root, size, file.file_id
        return best
