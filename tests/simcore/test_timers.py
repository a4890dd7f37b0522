"""The engine's timer queue: contract tests plus a push/cancel/pop model.

The queue's contract is "pops in exact ``(when, seq)`` order, cancels
lazily"; the Hypothesis model test at the bottom drives it through
arbitrary interleavings of pushes (including equal-``when`` ties),
cancellations, and partial ``pop_due`` drains and requires the same
observable behaviour as a transparent ``heapq`` model at every step.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore import HeapTimerQueue


def fired(queue, deadline):
    """Pop everything due and return the callback payloads (see _cb)."""
    return [cb() for cb in queue.pop_due(deadline)]


def _cb(tag):
    """A callback that identifies itself when fired."""
    return lambda: tag


# --------------------------------------------------------------------- #
# queue contract
# --------------------------------------------------------------------- #


def test_pop_due_returns_when_seq_order():
    queue = HeapTimerQueue()
    queue.push(2.0, 1, _cb("b"))
    queue.push(1.0, 2, _cb("a"))
    queue.push(2.0, 0, _cb("b0"))  # equal when: seq breaks the tie
    queue.push(3.0, 3, _cb("c"))
    assert queue.peek() == 1.0
    assert fired(queue, 2.5) == ["a", "b0", "b"]
    assert queue.peek() == 3.0
    assert fired(queue, 3.0) == ["c"]
    assert queue.peek() is None
    assert len(queue) == 0


def test_cancel_is_lazy_and_idempotent():
    queue = HeapTimerQueue()
    entry = queue.push(1.0, 0, _cb("x"))
    later = queue.push(2.0, 1, _cb("y"))
    assert queue.cancel(entry) is True
    assert queue.cancel(entry) is False  # second cancel is a no-op
    assert len(queue) == 1
    assert queue.peek() == 2.0  # cancelled head skipped
    assert fired(queue, 5.0) == ["y"]
    assert queue.cancel(later) is False  # fired: its handle is spent
    assert len(queue) == 0


def test_stats_schema_and_occupancy_hwm():
    queue = HeapTimerQueue()
    entries = [queue.push(float(i), i, _cb(i)) for i in range(5)]
    queue.cancel(entries[0])
    fired(queue, 10.0)
    assert queue.stats() == {"pending": 0, "occupancy_hwm": 5}


def test_pop_due_with_nothing_due_is_empty():
    queue = HeapTimerQueue()
    queue.push(5.0, 0, _cb("later"))
    assert queue.pop_due(1.0) == []
    assert len(queue) == 1


# --------------------------------------------------------------------- #
# Hypothesis: the queue is observationally equal to a plain heapq
# --------------------------------------------------------------------- #

# Operations: push at a (possibly repeated) when, cancel an earlier push,
# or drain everything due at a deadline.  Whens are drawn from a coarse
# grid so equal-``when`` ties are common (the tie-break is the contract's
# hard part).
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(min_value=0, max_value=2000)),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=200)),
        st.tuples(st.just("pop"), st.integers(min_value=0, max_value=2500)),
    ),
    min_size=1,
    max_size=120,
)


class _HeapModel:
    """Reference semantics: a transparent heapq of [when, seq, tag]."""

    def __init__(self):
        self.heap = []
        self.entries = []

    def push(self, when, seq, tag):
        entry = [when, seq, tag]
        heapq.heappush(self.heap, entry)
        self.entries.append(entry)

    def cancel(self, idx):
        entry = self.entries[idx]
        live = entry[2] is not None
        entry[2] = None
        return live

    def pop_due(self, deadline):
        out = []
        while self.heap and self.heap[0][0] <= deadline:
            entry = heapq.heappop(self.heap)
            if entry[2] is not None:
                out.append(entry[2])
                entry[2] = None  # fired (matches the real queue)
        return out

    def peek(self):
        while self.heap and self.heap[0][2] is None:
            heapq.heappop(self.heap)
        return self.heap[0][0] if self.heap else None


@given(ops=_OPS)
@settings(max_examples=300, deadline=None)
def test_queue_matches_heap_model_pop_order(ops):
    queue = HeapTimerQueue()
    model = _HeapModel()
    handles = []
    seq = 0
    live = 0
    drained_to = -1.0  # engine invariant: deadlines never move backwards
    for op, arg in ops:
        if op == "push":
            # grid of 1 us steps over [0, 2 ms]: ties are frequent
            when = max(arg * 1e-6, drained_to)
            handles.append(queue.push(when, seq, _cb(seq)))
            model.push(when, seq, seq)
            seq += 1
            live += 1
        elif op == "cancel":
            if handles:
                idx = arg % len(handles)
                cancelled = queue.cancel(handles[idx])
                assert cancelled == model.cancel(idx)
                live -= cancelled
        else:  # pop
            deadline = max(arg * 1e-6, drained_to)
            drained_to = deadline
            got = [cb() for cb in queue.pop_due(deadline)]
            assert got == model.pop_due(deadline)
            assert queue.peek() == model.peek()
            live -= len(got)
        assert len(queue) == live
    # final full drain must agree exactly
    final = [cb() for cb in queue.pop_due(float("inf"))]
    assert final == model.pop_due(float("inf"))
    assert queue.peek() is None and model.peek() is None
    assert len(queue) == 0
