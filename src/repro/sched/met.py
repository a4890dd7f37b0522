"""Minimum Execution Time: CEDR's simplest heterogeneity-aware heuristic.

MET maps each task to the PE *type* with the smallest execution estimate,
ignoring queue state entirely (Braun et al.'s classic baseline; part of the
scheduler repertoire of the CEDR ecosystem's HEFT_RT paper [12]).  Ties and
same-type replicas are broken round-robin so, e.g., eight FFT accelerators
all receive work.  Its pathology - piling every task of one API onto the
"fastest" PE class regardless of backlog - makes it a useful contrast
series for the Fig. 10 ablations.
"""

from __future__ import annotations

from typing import Sequence

from .base import (
    EstimateFn,
    Scheduler,
    candidate_mask,
    estimate_matrix,
    register_scheduler,
)

__all__ = ["MinimumExecutionTime"]


@register_scheduler
class MinimumExecutionTime(Scheduler):
    """O(PEs) per task; queue-state-blind."""

    name = "met"

    def __init__(self, cost_per_eval_us: float = 0.12) -> None:
        self.cost_per_eval_us = cost_per_eval_us
        self._cursor: dict[float, int] = {}

    def schedule(self, ready, pes: Sequence, now: float, estimate: EstimateFn):
        if not ready:
            return []
        mask = candidate_mask(ready, pes, estimate)
        est = estimate_matrix(ready, pes, estimate, mask)
        assignments = []
        for task, row in zip(ready, est):
            best = min(row)
            # excluded cells are +inf, so the epsilon tie-band only ever
            # matches candidate PEs, in PE order
            band = best * (1 + 1e-12)
            fastest = [j for j, e in enumerate(row) if e <= band]
            cursor = self._cursor.get(best, 0)
            j = fastest[cursor % len(fastest)]
            self._cursor[best] = cursor + 1
            pe = pes[j]
            assignments.append((task, pe))
            pe.expected_free = max(pe.expected_free, now) + row[j]
        return assignments

    def round_cost(self, n_ready: int, n_pes: int) -> float:
        return self.cost_per_eval_us * 1e-6 * n_ready * n_pes
