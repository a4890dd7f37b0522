"""Online schedule auditing: invariant checks on the dispatch hot path.

:class:`OnlineAuditor` hangs off a :class:`~repro.runtime.CedrRuntime`
built with ``RuntimeConfig(audit=True)`` (or ``repro run --audit``) and
checks every scheduling round and every task completion *as it happens*,
raising the first :class:`AuditViolation` with the offending task, PE, and
timestamps - the moment a scheduling bug corrupts a run, not three figures
later.  At shutdown :meth:`final_check` replays the full offline catalog
(:mod:`repro.audit.invariants`) over the finished run.

Cost discipline: the per-round check is one token comparison and one
probe of the cost table's interned support row per assignment - two list
indexings, cheaper than any memo of verified cells.  The depth-128
audit-overhead benchmark pins the total at <= 10% of an ETF round
(``benchmarks/test_audit_overhead.py``).  Per-completion checks are O(1)
set/array probes.  A runtime built without ``audit=True`` constructs no
auditor and takes a single ``is None`` branch per hook, keeping disabled
runs byte-identical to the pre-audit runtime.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .invariants import EPS, AuditReport, AuditViolation, audit_runtime

if TYPE_CHECKING:  # pragma: no cover
    from repro.platforms import PE
    from repro.runtime.daemon import CedrRuntime
    from repro.runtime.task import Task

__all__ = ["OnlineAuditor"]


class OnlineAuditor:
    """Per-round and per-completion invariant checks for one runtime."""

    __slots__ = (
        "_runtime",
        "_table",
        "_completed",
        "_pe_last_finish",
        "_pe_names",
        "_last_round_t",
        "_finalized",
        "checks",
    )

    def __init__(self, runtime: "CedrRuntime") -> None:
        self._runtime = runtime
        self._table = runtime.cost_table
        #: tids already seen completing - the exactly-once ledger.
        self._completed: set[int] = set()
        pes = runtime.platform.pes
        #: per-PE last completion instant - the overlap ledger.
        self._pe_last_finish = [0.0] * len(pes)
        self._pe_names = [pe.name for pe in pes]
        self._last_round_t = 0.0
        self._finalized = False
        #: dispatch + completion checks performed (reported by ``--audit``).
        self.checks = 0

    # ------------------------------------------------------------------ #
    # hot-path hooks
    # ------------------------------------------------------------------ #

    def on_round(
        self,
        batch: Sequence["Task"],
        assignments: Sequence[tuple["Task", "PE"]],
        now: float,
    ) -> None:
        """Audit one scheduling round before its assignments are committed."""
        self.checks += 1
        if now < self._last_round_t - EPS:
            raise AuditViolation(
                "round-monotonic",
                f"scheduling round ran at {now}, before the previous round "
                f"at {self._last_round_t}",
                t=now,
            )
        self._last_round_t = now
        n = len(assignments)
        if n != len(batch):
            raise AuditViolation(
                "queue-accounting",
                f"scheduler returned {n} assignments for a ready batch of "
                f"{len(batch)} - tasks were dropped or invented",
                t=now,
            )
        if n == 0:
            return
        table = self._table
        token = table.token
        support = table.support_lists
        for task, pe in assignments:
            if task.cost_token != token:
                raise AuditViolation(
                    "cost-row-fresh",
                    f"task {task.name} reached dispatch with cost token "
                    f"{task.cost_token} (table token {token}) - its "
                    f"estimates came from another table",
                    tid=task.tid, t=now,
                )
            if not support[task.cost_row][pe.index]:
                raise AuditViolation(
                    "pe-support",
                    f"scheduler assigned {task.name} ({task.api}) to "
                    f"{pe.name} ({pe.kind.value}), which does not "
                    f"support it",
                    tid=task.tid, pe=pe.name, t=now,
                )
        if self._runtime.faults is not None:
            # quarantine honesty only matters once a fault model can pull
            # PEs from the live mask; fault-free runs skip the loop
            for task, pe in assignments:
                if not pe.available:
                    raise AuditViolation(
                        "pe-support",
                        f"scheduler assigned {task.name} to {pe.name} while "
                        f"it is {'dead' if pe.dead else 'quarantined'} "
                        f"(quarantine epoch {pe.quarantine_epoch})",
                        tid=task.tid, pe=pe.name, t=now,
                    )

    def on_complete(self, task: "Task", pe: "PE", now: float) -> None:
        """Audit one task completion as the worker records it."""
        self.checks += 1
        tid = task.tid
        if tid in self._completed:
            raise AuditViolation(
                "exactly-once",
                f"task {task.name} completed twice (second time on "
                f"{pe.name})",
                tid=tid, pe=pe.name, t=now,
            )
        self._completed.add(tid)
        last = self._pe_last_finish[pe.index]
        if task.t_start < last - EPS:
            raise AuditViolation(
                "pe-exclusive",
                f"task {task.name} started at {task.t_start} on {pe.name}, "
                f"overlapping the previous completion there at {last}",
                tid=tid, pe=pe.name, t=task.t_start,
            )
        self._pe_last_finish[pe.index] = now
        if (
            task.t_release < -EPS
            or task.t_scheduled < task.t_release - EPS
            or task.t_start < task.t_scheduled - EPS
            or now < task.t_start - EPS
        ):
            raise AuditViolation(
                "clock-monotonic",
                f"task {task.name} timestamps regress: release "
                f"{task.t_release} -> scheduled {task.t_scheduled} -> "
                f"start {task.t_start} -> finish {now}",
                tid=tid, pe=pe.name, t=now,
            )
        if not pe.supports(task.api):
            raise AuditViolation(
                "pe-support",
                f"task {task.name} ({task.api}) completed on {pe.name} "
                f"({pe.kind.value}), which does not support it",
                tid=tid, pe=pe.name, t=now,
            )

    # ------------------------------------------------------------------ #
    # shutdown
    # ------------------------------------------------------------------ #

    def final_check(self, runtime: "CedrRuntime") -> AuditReport:
        """Replay the offline catalog after a clean drain; raises on damage.

        Idempotent: :meth:`CedrRuntime.run` calls it automatically, and a
        caller doing so again (or reading the report) costs one pass at
        most.
        """
        if self._finalized:
            return audit_runtime(runtime)
        self._finalized = True
        counters = runtime.counters
        if counters.enabled and counters.tasks_completed != len(self._completed):
            raise AuditViolation(
                "task-conservation",
                f"online ledger saw {len(self._completed)} completions but "
                f"the counters report {counters.tasks_completed}",
            )
        report = audit_runtime(runtime)
        report.raise_if_failed()
        return report
