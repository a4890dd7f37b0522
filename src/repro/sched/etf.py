"""Earliest Task First: globally greedy pair selection.

ETF repeatedly scans *all* remaining (ready task, PE) pairs, commits the
pair with the globally earliest finish time, and rescans.  It therefore not
only finds the best PE per task but also the best task ordering - the paper
notes it "tries to find the most optimal task to schedule first" - at a
decision cost quadratic in the ready-queue length.  That cost structure is
what the paper's Fig. 7 exposes: with DAG-mode queue depths ETF spends tens
of milliseconds per application deciding, collapsing to ~1 ms/app under the
API-based runtime whose queue holds only in-flight libCEDR calls.

The *simulated* decision cost is charged analytically via
:meth:`round_cost`; the *functional* selection below scans equivalence
classes of identical estimate rows instead of tasks, so simulating an ETF
round over hundreds of ready tasks stays fast even though the modeled
algorithm is O(q^2 x PEs).
"""

from __future__ import annotations

from typing import Sequence

from .base import (
    EstimateFn,
    Scheduler,
    candidate_mask,
    estimate_matrix,
    free_vector,
    register_scheduler,
)

__all__ = ["EarliestTaskFirst"]


@register_scheduler
class EarliestTaskFirst(Scheduler):
    """O(ready^2 x PEs) pair scans per round (cost model); class-scan impl."""

    name = "etf"

    def __init__(self, cost_per_pair_us: float = 0.09) -> None:
        self.cost_per_pair_us = cost_per_pair_us

    def schedule(self, ready, pes: Sequence, now: float, estimate: EstimateFn):
        n, p = len(ready), len(pes)
        if n == 0:
            return []
        # Candidate cells honour the fault subsystem's availability and ban
        # masks (with the same ban fallback as Scheduler.compatible);
        # everything else stays +inf so the argmin never commits to an
        # excluded PE.
        mask = candidate_mask(ready, pes, estimate)
        est = estimate_matrix(ready, pes, estimate, mask)
        free = free_vector(pes, now)
        # Ready tasks collapse into equivalence classes with equal estimate
        # rows (shape interning keeps the count to a handful per
        # round), and ETF's global pair scan only ever needs one
        # representative per class: identical rows share a finish vector, so
        # the flat argmin always lands on the class member with the lowest
        # queue position.  Scanning classes instead of tasks turns each of
        # the n commits into O(classes) work with an O(PEs) rescan only for
        # classes whose cached best column just got busier (a later column
        # can never *improve* a cached minimum).  Tie-breaking matches a
        # flat argmin over the full matrix exactly: commits within a class
        # go in queue order, and ties *across* classes fall to the class
        # whose head task sits earliest in the queue.
        # Interned rows are shared list objects, so classes are found by row
        # identity first and by row values only once per distinct object
        # (masked copies and equal rows of different shapes still merge).
        class_of: dict[tuple, int] = {}
        class_of_id: dict[int, int] = {}
        members: list[list[int]] = []
        for i, row in enumerate(est):
            g = class_of_id.get(id(row))
            if g is None:
                g = class_of.setdefault(tuple(row), len(members))
                class_of_id[id(row)] = g
                if g == len(members):
                    members.append([])
            members[g].append(i)
        n_cls = len(members)
        gest = [est[m[0]] for m in members]
        free_l = free
        heads = [m[0] for m in members]
        cursor = [0] * n_cls
        inf = float("inf")
        cols = range(p)
        best_v = [0.0] * n_cls  # cached earliest finish of each class head
        best_j = [0] * n_cls    # ... and its (first-minimum) PE column
        for k in range(n_cls):
            row = gest[k]
            mv, mj = inf, 0
            for jj in cols:
                t = row[jj] + free_l[jj]
                if t < mv:
                    mv, mj = t, jj
            best_v[k], best_j[k] = mv, mj
        active = list(range(n_cls))
        assignments = []
        for _ in range(n):
            # global pick: min (finish, head queue position) over classes
            bk, bv, bh = -1, inf, -1
            for k in active:
                v = best_v[k]
                if v < bv or (v == bv and heads[k] < bh):
                    bk, bv, bh = k, v, heads[k]
            k = bk
            j = best_j[k]
            i = members[k][cursor[k]]
            cursor[k] += 1
            free_l[j] = bv
            assignments.append((ready[i], pes[j]))
            pes[j].expected_free = bv
            if cursor[k] == len(members[k]):
                active.remove(k)  # class drained: excluded from the scan
            else:
                heads[k] = members[k][cursor[k]]
            # column j's backlog grew: only classes whose cached minimum sat
            # on column j can change, and only for the worse - rescan those
            for m_ in active:
                if best_j[m_] == j:
                    row = gest[m_]
                    mv, mj = inf, 0
                    for jj in cols:
                        t = row[jj] + free_l[jj]
                        if t < mv:
                            mv, mj = t, jj
                    best_v[m_], best_j[m_] = mv, mj
        return assignments

    def round_cost(self, n_ready: int, n_pes: int) -> float:
        # One full pair scan per commitment: q + (q-1) + ... + 1 task scans,
        # each over n_pes candidate PEs.
        pair_scans = n_ready * (n_ready + 1) / 2 * n_pes
        return self.cost_per_pair_us * 1e-6 * pair_scans
