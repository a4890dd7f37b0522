"""Scheduler interface and registry.

A CEDR scheduling heuristic runs inside the daemon's main loop on the
reserved runtime core.  Each *scheduling round* receives the current ready
queue and the PE list and returns an assignment for every ready task (CEDR
pushes work to per-worker queues; workers drain them in order).  Two things
matter for reproducing the paper:

* the *quality* of the mapping (which PE each task lands on), and
* the *cost* of deciding, charged to the runtime core via
  :meth:`Scheduler.round_cost`.  ETF's cost grows quadratically with the
  ready-queue length, which is the entire mechanism behind the paper's
  Fig. 7 (70 ms DAG-mode vs 1.15 ms API-mode ETF overhead).

Estimates come from the daemon as an ``estimate(task, pe)`` callable backed
by the platform timing model - the runtime analogue of CEDR's offline
profiling tables.  The round helpers below (:func:`candidate_mask`,
:func:`estimate_matrix`, :func:`free_vector`, :func:`greedy_earliest_finish`)
work on one Python list per task, one entry per PE.  When the callable is a
:class:`~repro.platforms.timing.CostTable` (it exposes ``est_row(task)`` /
``support_row(task)``), those lists are the table's interned rows, handed
out without a copy whenever no fault mask edits them - so a round never
writes into a row it did not build.  A plain callable builds the same
lists by calling ``estimate`` on candidate cells only, with identical
results.  Lists rather than ``(n, p)`` arrays because rounds are shallow:
ready queues of real workloads hold one task in nearly every round and
platforms have at most a dozen PEs, where NumPy's per-call dispatch costs
far more than the arithmetic.
"""

from __future__ import annotations

import abc
from operator import and_
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover
    from repro.platforms import PE
    from repro.runtime.task import Task

__all__ = [
    "Scheduler",
    "SchedulerError",
    "SCHEDULERS",
    "candidate_mask",
    "estimate_matrix",
    "free_vector",
    "greedy_earliest_finish",
    "register_scheduler",
    "available_schedulers",
]

EstimateFn = Callable[["Task", "PE"], float]


class SchedulerError(Exception):
    """Raised when no valid assignment exists (e.g. unsupported API)."""


class Scheduler(abc.ABC):
    """Base class for CEDR scheduling heuristics."""

    #: registry key and display name, e.g. "etf"
    name: str = "base"

    @abc.abstractmethod
    def schedule(
        self,
        ready: Sequence["Task"],
        pes: Sequence["PE"],
        now: float,
        estimate: EstimateFn,
    ) -> list[tuple["Task", "PE"]]:
        """Assign every ready task to a PE.

        Implementations must update ``pe.expected_free`` as they commit
        assignments so later decisions in the same round see the backlog,
        and must only ever pick PEs for which ``pe.supports(task.api)``.
        """

    @abc.abstractmethod
    def round_cost(self, n_ready: int, n_pes: int) -> float:
        """Runtime-core seconds one round over ``n_ready`` tasks costs."""

    @staticmethod
    def compatible(task: "Task", pes: Sequence["PE"]) -> list["PE"]:
        """PEs able to execute *task* right now; raises if none exist.

        Three filters compose, in order:

        * **support** - the (API, PE kind) matrix; no supporting PE at all
          is a platform-composition error;
        * **availability** - the live mask maintained by the fault
          subsystem (quarantined or dead PEs drop out); the daemon parks
          tasks with no live candidate before scheduling, so an
          all-unavailable result raising here indicates a runtime bug
          rather than a transient condition;
        * **retry bans** - PEs the task already failed on are avoided,
          *unless* that would leave no candidate (better a suspect PE than
          an unrunnable task).

        Fault-free runs have every PE available and no bans, so the result
        is exactly the support-matrix filter of old.
        """
        options = [pe for pe in pes if pe.supports(task.api)]
        if not options:
            raise SchedulerError(
                f"no PE supports API {task.api!r} (task {task.tid}); "
                "check the platform's accelerator composition"
            )
        live = [pe for pe in options if pe.available]
        if not live:
            raise SchedulerError(
                f"no live PE for API {task.api!r} (task {task.tid}); "
                "the daemon should have parked this task until a PE revives"
            )
        if task.banned_pes:
            unbanned = [pe for pe in live if pe.index not in task.banned_pes]
            if unbanned:
                return unbanned
        return live


def candidate_mask(
    ready: Sequence["Task"], pes: Sequence["PE"], estimate: EstimateFn
) -> list[list[bool]]:
    """Per-task candidate rows (one bool per PE) with
    :meth:`Scheduler.compatible` semantics, built in one pass per round.

    Three filters compose exactly as in ``compatible`` - support matrix,
    fault-subsystem availability, retry bans with the better-a-suspect-PE
    fallback - and the same :class:`SchedulerError` cases are raised.  With
    a cost table the support rows are its interned rows, returned as they
    are when every PE is live and no task has bans; a filter that removes
    a candidate builds a new list instead.  A plain callable memoizes
    support rows per API within the round.
    """
    support_row = getattr(estimate, "support_row", None)
    if support_row is not None:
        cand = [support_row(task) for task in ready]
    else:
        by_api: dict[str, list[bool]] = {}
        cand = []
        for task in ready:
            row = by_api.get(task.api)
            if row is None:
                row = by_api[task.api] = [pe.supports(task.api) for pe in pes]
            cand.append(row)
    for task, row in zip(ready, cand):
        if True not in row:
            raise SchedulerError(
                f"no PE supports API {task.api!r} (task {task.tid}); "
                "check the platform's accelerator composition"
            )
    live = [pe.available for pe in pes]
    if False in live:
        for i, (task, row) in enumerate(zip(ready, cand)):
            alive = list(map(and_, row, live))
            if True not in alive:
                raise SchedulerError(
                    f"no live PE for API {task.api!r} (task {task.tid}); "
                    "the daemon should have parked this task until a PE revives"
                )
            cand[i] = alive
    banned_cols: Optional[dict] = None
    for i, task in enumerate(ready):
        if task.banned_pes:
            if banned_cols is None:
                banned_cols = {pe.index: j for j, pe in enumerate(pes)}
            row = list(cand[i])
            for index in task.banned_pes:
                col = banned_cols.get(index)
                if col is not None:
                    row[col] = False
            if True in row:  # else: every candidate is banned - keep them all
                cand[i] = row
    return cand


def estimate_matrix(
    ready: Sequence["Task"],
    pes: Sequence["PE"],
    estimate: EstimateFn,
    mask: list[list[bool]],
) -> list[list[float]]:
    """Per-task estimate rows with ``+inf`` at every non-candidate cell.

    With a cost table a task whose candidate row is its untouched support
    row gets the interned estimate row itself (it already holds ``+inf``
    exactly where support is False); a masked row gets a masked copy.  A
    plain callable is called on candidate cells only, in PE order, so both
    paths produce bit-identical rows.
    """
    inf = float("inf")
    est_row = getattr(estimate, "est_row", None)
    if est_row is not None:
        support_row = estimate.support_row
        rows = []
        for task, cand in zip(ready, mask):
            row = est_row(task)
            if cand is not support_row(task):
                row = [e if c else inf for e, c in zip(row, cand)]
            rows.append(row)
        return rows
    rows = []
    for task, cand in zip(ready, mask):
        row = [inf] * len(pes)
        for j, c in enumerate(cand):
            if c:
                row[j] = float(estimate(task, pes[j]))
        rows.append(row)
    return rows


def free_vector(pes: Sequence["PE"], now: float) -> list[float]:
    """Per-PE ``max(pe.expected_free, now)`` - the round-start backlog."""
    return [max(pe.expected_free, now) for pe in pes]


def greedy_earliest_finish(
    ready: Sequence["Task"],
    pes: Sequence["PE"],
    now: float,
    estimate: EstimateFn,
) -> list[tuple["Task", "PE"]]:
    """Greedy earliest-finish assignment in the given task order.

    The EFT heuristic, shared with HEFT_RT (which is exactly this after a
    rank sort).  Each task scans its estimate row for the PE minimizing
    ``free[j] + est[j]``; excluded cells sit at ``+inf``, and the strict
    ``<`` keeps the first of equal minima, as ``np.argmin`` would.
    Commits update ``pe.expected_free`` so later tasks see the backlog.
    """
    if not ready:
        return []
    mask = candidate_mask(ready, pes, estimate)
    est = estimate_matrix(ready, pes, estimate, mask)
    free = free_vector(pes, now)
    inf = float("inf")
    assignments = []
    for task, row in zip(ready, est):
        best, j = inf, 0
        for jj, e in enumerate(row):
            t = free[jj] + e
            if t < best:
                best, j = t, jj
        free[j] = best
        pe = pes[j]
        pe.expected_free = best
        assignments.append((task, pe))
    return assignments


#: the scheduler registry: heuristic classes keyed by lowercase name.
#: Third-party distributions plug in via the ``repro.schedulers``
#: entry-point group; in-tree and test code uses :func:`register_scheduler`.
SCHEDULERS: Registry[type[Scheduler]] = Registry(
    "scheduler", entry_point_group="repro.schedulers"
)


def register_scheduler(cls: type[Scheduler]) -> type[Scheduler]:
    """Class decorator adding a heuristic to the runtime's registry."""
    SCHEDULERS.register(cls.name, cls)
    return cls


def available_schedulers() -> list[str]:
    """Names of all registered heuristics (sorted)."""
    return list(SCHEDULERS.names())
