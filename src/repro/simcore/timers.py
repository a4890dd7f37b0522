"""The engine's timer queue: a global binary heap with lazy cancellation.

The engine's main loop needs three operations on its pending-timer set:
*push* a ``(when, seq, callback)`` entry, *peek* the earliest pending
``when``, and *pop everything due* at the instant the clock just reached.
:class:`HeapTimerQueue` answers all three over one ``heapq``; its class
boundary exists to hide the entry format, not to make the queue
pluggable.

Ordering contract: entries pop in exact ``(when, seq)`` order.  ``seq``
comes from one engine-wide counter, so equal-``when`` timers fire in the
order they were scheduled, and ``(when, seq)`` is a unique prefix - heap
comparisons never reach the callback slot.

Cancellation is lazy: :meth:`HeapTimerQueue.cancel` blanks the entry's
callback slot and the entry is discarded whenever a peek or pop next
touches it - O(1) cancel without removing from the middle of the heap.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

__all__ = ["HeapTimerQueue", "TimerEntry"]

#: a pending timer: ``[when, seq, callback]``.  A mutable list so
#: :meth:`HeapTimerQueue.cancel` can blank the callback slot in place.
TimerEntry = List


class HeapTimerQueue:
    """Pending timers in one global binary heap (see module docstring)."""

    __slots__ = ("_heap", "_live", "occupancy_hwm")

    def __init__(self) -> None:
        self._heap: list[TimerEntry] = []
        #: live (non-cancelled) entries currently stored.
        self._live = 0
        #: high-water mark of live entries (occupancy stat).
        self.occupancy_hwm = 0

    def __len__(self) -> int:
        return self._live

    def push(self, when: float, seq: int, callback: Callable[[], None]) -> TimerEntry:
        entry = [when, seq, callback]
        heapq.heappush(self._heap, entry)
        self._live += 1
        if self._live > self.occupancy_hwm:
            self.occupancy_hwm = self._live
        return entry

    def cancel(self, entry: TimerEntry) -> bool:
        """Blank *entry*'s callback; returns False if already fired/cancelled."""
        if entry[2] is None:
            return False
        entry[2] = None
        self._live -= 1
        return True

    def peek(self) -> Optional[float]:
        """Earliest pending ``when``, or None.  Drops cancelled heads."""
        heap = self._heap
        while heap and heap[0][2] is None:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def pop_due(self, deadline: float) -> list[Callable[[], None]]:
        """Callbacks of every live entry with ``when <= deadline``, in
        ``(when, seq)`` order; the entries leave the queue."""
        out: list[Callable[[], None]] = []
        heap = self._heap
        while heap and heap[0][0] <= deadline:
            entry = heapq.heappop(heap)
            cb = entry[2]
            if cb is not None:
                out.append(cb)
                self._live -= 1
                entry[2] = None  # fired: cancel on this handle is now a no-op
        return out

    def stats(self) -> dict:
        return {"pending": self._live, "occupancy_hwm": self.occupancy_hwm}
