"""Event-driven simulation engine with processor-sharing cores.

The engine owns the virtual clock, a timer queue, the set of CPU cores, and
a dispatch queue of threads runnable *right now*.  Its main loop alternates
two phases:

1. **Dispatch** - resume every ready thread at the current instant, handling
   the request each one yields (compute, sleep, block, device use, ...).
   Dispatching may make further threads ready at the same instant (condition
   signals, device grants), so this phase drains to a fixed point.
2. **Advance** - jump the clock to the next event: either a timer or the
   earliest compute-segment completion given current processor sharing, then
   credit the elapsed interval to every active core.  Every timer due at the
   reached instant fires in one batched drain (timers chained at the same
   instant from inside a callback join the same drain) before any woken
   thread dispatches.

Two structures keep the per-iteration bookkeeping cheap (docs/INTERNALS.md,
"The event core"):

* timers live in a :class:`~repro.simcore.timers.HeapTimerQueue`, and the
  earliest pending ``when`` is additionally tracked in ``_timer_next``
  (exact min maintenance on push/pop/cancel), so the main loop reads it
  without touching the queue at all.
* compute completions are mirrored in a
  :class:`~repro.simcore.cores.CompletionIndex`: a core whose composition
  changes pushes its position on a dirty list, and each step recomputes
  only those cores - their per-thread PS rate (cached on the core as
  ``Core._rate`` for the clock advance) and the absolute instant of their
  earliest completion - before one ``min`` over the cached instants.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Optional, Sequence

from .cores import WORK_EPSILON, CompletionIndex, Core, Device
from .errors import SimDeadlock, SimStateError, SimTimeError
from .process import (
    AcquireDevice,
    Block,
    Compute,
    Request,
    Sleep,
    SimThread,
    ThreadState,
    UseDevice,
    Yield,
)
from .rng import make_rng
from .timers import HeapTimerQueue, TimerEntry

__all__ = ["Engine"]

#: same-instant tolerance: timers within this window of the reached instant
#: fire in the current drain (absorbs float round-off between a completion
#: instant and a timer deadline computed from the same arithmetic).
_INSTANT_EPSILON = 1e-15


def _core_index(core: Core) -> int:
    return core.index


class Engine:
    """Discrete-event simulator for threads over processor-sharing cores.

    Parameters
    ----------
    cores:
        Either an integer (that many unit-speed cores are created) or a
        sequence of pre-built :class:`Core` objects.
    seed:
        Seed for the engine-owned root RNG; subsystems derive child streams
        from it so whole experiments are reproducible bit-for-bit.
    """

    #: the timer queue and main loop this engine runs (fixed; kept as
    #: constants so run records can name the engine they measured).
    event_core = "heap"
    core_impl = "objects"

    def __init__(self, cores: int | Sequence[Core] = 1, seed: int = 0) -> None:
        if isinstance(cores, int):
            if cores < 1:
                raise SimStateError("engine needs at least one core")
            self.cores: list[Core] = [Core(name=f"cpu{i}", index=i) for i in range(cores)]
        else:
            self.cores = list(cores)
            if not self.cores:
                raise SimStateError("engine needs at least one core")
        self.devices: list[Device] = []
        #: cores eligible to host floating (affinity-less) threads; platforms
        #: shrink this to the worker pool so floating application threads
        #: never land on the reserved runtime core.
        self.floating_pool: list[Core] = list(self.cores)
        self.seed = seed
        self.rng = make_rng(seed)
        self.now: float = 0.0
        self.current: Optional[SimThread] = None
        self.threads: list[SimThread] = []
        self._ready: deque[tuple[SimThread, Any]] = deque()
        self._timerq = HeapTimerQueue()
        #: exact earliest pending timer instant (None = no live timers);
        #: maintained on every push/drain/cancel so the main loop never
        #: pays a queue peek just to decide the next event.
        self._timer_next: Optional[float] = None
        self._timer_seq = itertools.count()
        self._completions = CompletionIndex(self.cores)
        self._events_processed = 0
        #: ``call_at`` timestamps already in the past, clamped to now
        #: (mirrored to the ``simcore_late_timers_total`` telemetry counter
        #: through :attr:`on_late_timer`).
        self.late_timers = 0
        #: optional zero-argument hook invoked on each late ``call_at``.
        self.on_late_timer: Optional[Callable[[], None]] = None
        #: timers fired so far (separate from dispatch-event accounting).
        self.timers_fired = 0
        self._drain_batches = 0
        self._drain_events = 0
        self.trace: Optional[Callable[..., None]] = None

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    def add_device(self, name: str) -> Device:
        """Register a new exclusive accelerator device."""
        dev = Device(name=name, engine=self)
        self.devices.append(dev)
        return dev

    def spawn(
        self,
        gen: Generator[Request, Any, Any],
        name: str = "thread",
        affinity: Optional[Core] = None,
    ) -> SimThread:
        """Create a simulated thread from generator *gen* and make it ready.

        ``affinity`` pins the thread to one core; ``None`` lets each compute
        segment land on the currently least-loaded core.
        """
        if affinity is not None and affinity not in self.cores:
            raise SimStateError(f"affinity core {affinity.name!r} is not part of this engine")
        thread = SimThread(name=name, gen=gen, engine=self, affinity=affinity)
        thread.started_at = self.now
        self.threads.append(thread)
        self._ready.append((thread, None))
        return thread

    def event_core_stats(self) -> dict:
        """Event-core observability snapshot (``run --perf-json``)."""
        stats = self._timerq.stats()
        stats["late_timers"] = self.late_timers
        stats["timers_fired"] = self.timers_fired
        stats["drain_batches"] = self._drain_batches
        stats["mean_batch"] = (
            self._drain_events / self._drain_batches if self._drain_batches else 0.0
        )
        return stats

    # ------------------------------------------------------------------ #
    # scheduling primitives (used by sync/device layers)
    # ------------------------------------------------------------------ #

    def wake(self, thread: SimThread, value: Any = None) -> None:
        """Move a blocked/sleeping thread back to the dispatch queue."""
        if thread.state is ThreadState.FINISHED:
            raise SimStateError(f"cannot wake finished thread {thread.name!r}")
        if thread.state in (ThreadState.READY, ThreadState.RUNNING):
            raise SimStateError(f"thread {thread.name!r} is not blocked (state={thread.state})")
        thread.state = ThreadState.READY
        self._ready.append((thread, value))

    def _schedule_timer(self, delay: float, callback: Callable[[], None]) -> TimerEntry:
        if delay < 0:
            raise SimTimeError(f"negative timer delay: {delay}")
        when = self.now + delay
        if self._timer_next is None or when < self._timer_next:
            self._timer_next = when
        return self._timerq.push(when, next(self._timer_seq), callback)

    def call_at(self, when: float, callback: Callable[[], None]) -> TimerEntry:
        """Run *callback* at absolute simulated time ``when``.

        A ``when`` already in the past is clamped to now - it fires in the
        very next timer drain rather than at some arbitrary later one - and
        is counted in :attr:`late_timers` (exported as
        ``simcore_late_timers_total``) so schedule bugs that produce stale
        timestamps stay visible instead of silently reordering.
        """
        now = self.now
        if when < now:
            self.late_timers += 1
            hook = self.on_late_timer
            if hook is not None:
                hook()
            when = now
        if self._timer_next is None or when < self._timer_next:
            self._timer_next = when
        return self._timerq.push(when, next(self._timer_seq), callback)

    def cancel_timer(self, handle: TimerEntry) -> bool:
        """Cancel a pending timer returned by :meth:`call_at` /
        :meth:`_schedule_timer`; returns False if it already fired or was
        already cancelled."""
        cancelled = self._timerq.cancel(handle)
        if cancelled and handle[0] == self._timer_next:
            self._timer_next = self._timerq.peek()
        return cancelled

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #

    def _pick_core(self, thread: SimThread, override: Optional[Core]) -> Core:
        if override is not None:
            return override
        if thread.affinity is not None:
            return thread.affinity
        # min(pool, key=lambda c: (c.load, c.index)) without the per-call
        # lambda, tuple allocations, or property descriptor overhead - this
        # runs once per floating compute segment.
        best: Optional[Core] = None
        best_load = 0
        for core in self.floating_pool:
            load = len(core._finish_heap) + core._spinners
            if best is None or load < best_load or (load == best_load and core.index < best.index):
                best = core
                best_load = load
        if best is None:
            raise SimStateError("engine has an empty floating pool")
        return best

    def _dispatch_slow(self, thread: SimThread, request: Any) -> None:
        """Act on a non-``Compute`` (or subclassed) request; the exact-type
        ``Compute`` fast path lives inline in :meth:`run`."""
        cls = request.__class__
        if isinstance(request, Compute):
            if request.work <= 0.0:
                # Zero-cost segment: skip the core entirely so it neither
                # perturbs processor sharing nor inflates busy accounting.
                thread.state = ThreadState.READY
                self._ready.append((thread, None))
            else:
                core = self._pick_core(thread, request.core)
                thread.state = ThreadState.RUNNING
                core.add(thread, request.work)
        elif cls is Block or isinstance(request, Block):
            thread.state = ThreadState.BLOCKED
        elif cls is Yield or isinstance(request, Yield):
            thread.state = ThreadState.READY
            self._ready.append((thread, None))
        elif cls is Sleep or isinstance(request, Sleep):
            thread.state = ThreadState.SLEEPING
            self._schedule_timer(request.duration, lambda t=thread: self.wake(t))
        elif isinstance(request, UseDevice):
            thread.state = ThreadState.BLOCKED
            request.device.request(thread, request.duration)
        elif isinstance(request, AcquireDevice):
            thread.state = ThreadState.BLOCKED
            request.device.request(thread, None)
        else:
            raise SimStateError(
                f"thread {thread.name!r} yielded unsupported request {request!r}"
            )

    def _finish(self, thread: SimThread, result: Any) -> None:
        thread.state = ThreadState.FINISHED
        thread.result = result
        thread.finished_at = self.now
        for joiner in thread._joiners:
            self.wake(joiner)
        thread._joiners.clear()
        if self.trace is not None:
            self.trace("thread_finished", thread=thread, time=self.now)

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #

    def _advance(self, dt: float) -> None:
        if dt < 0:
            raise SimTimeError(f"attempted to advance time by {dt}")
        if dt == 0.0:
            return
        self.now += dt
        ready = self._ready
        ready_state = ThreadState.READY
        for core in self.cores:
            # Inlined Core.advance (which stays in cores.py for direct
            # callers; the virtual-time arithmetic must match it exactly):
            # the method call plus completed-list round trip costs more
            # than the advance itself at high event rates.  The rate is
            # the one ``run`` cached when it last refreshed this core; a
            # busy core is always clean here, because every composition
            # change since then would have marked it dirty and ``run``
            # refreshes every dirty core before it advances the clock.
            heap = core._finish_heap
            n = len(heap)
            if n:
                rate = core._rate
                virtual = core._virtual + dt * rate
                core._virtual = virtual
                core.delivered += dt * rate * n
                core.busy_time += dt
                limit = virtual + WORK_EPSILON
                if heap[0][0] <= limit:
                    while heap and heap[0][0] <= limit:
                        _, _, thread, work = heappop(heap)
                        thread._on_core = None
                        thread.cpu_time += work
                        thread.state = ready_state
                        ready.append((thread, None))
                    if not core._completion_dirty:
                        core._completion_dirty = True
                        cidx = core._cidx
                        if cidx is not None:
                            cidx._dirty.append(core._cpos)
            elif core._spinners:
                # a busy-polling thread keeps the core active with no work
                # in flight
                core.busy_time += dt

    def run(self, until: Optional[float] = None, strict: bool = True) -> float:
        """Run the simulation; return the final simulated time.

        Stops when no further events exist, or at time ``until`` if given.
        With ``strict=True`` (default), running out of events while threads
        are still blocked raises :class:`SimDeadlock` - a clean experiment
        must shut its runtime down so every thread finishes.
        """
        ready = self._ready
        timerq = self._timerq
        cores = self._completions.cores
        instants = self._completions._instants
        dirty = self._completions._dirty
        inf = math.inf
        ready_state = ThreadState.READY
        running_state = ThreadState.RUNNING
        # Least-loaded placement scans a copy of the floating pool sorted by
        # core index: iteration order then IS the tie-break order, so the
        # scan needs one strict compare per core instead of three.  The
        # cache refreshes whenever ``floating_pool`` is rebound (platforms
        # and tests assign a new list; in-place mutation mid-run is not
        # supported).
        pool_cache: Optional[list[Core]] = None
        pool_sorted: list[Core] = []
        while True:
            # Drain every thread runnable at the current instant (dispatch
            # may append more same-instant work; the deque drains to a fixed
            # point before time moves).  The exact-type Compute branch is
            # inlined: it is by far the hottest path in the simulator and a
            # method call per event costs ~15% of the whole loop.
            events = 0
            while ready:
                thread, value = ready.popleft()
                events += 1
                # ``current`` is read only from inside gen.send (sync
                # primitives asking "who is running?"), so it is cleared
                # once after the drain instead of once per event; on an
                # exception it is left pointing at the culprit thread.
                self.current = thread
                try:
                    request = thread.gen.send(value)
                except StopIteration as stop:
                    self._finish(thread, stop.value)
                    continue
                if request.__class__ is Compute:
                    work = request.work
                    if work <= 0.0:
                        # zero-cost segment: never touches a core
                        thread.state = ready_state
                        ready.append((thread, None))
                        continue
                    core = request.core
                    if core is None:
                        core = thread.affinity
                        if core is None:
                            pool = self.floating_pool
                            if pool is not pool_cache:
                                pool_cache = pool
                                pool_sorted = sorted(pool, key=_core_index)
                                if not pool_sorted:
                                    raise SimStateError("engine has an empty floating pool")
                            core = pool_sorted[0]
                            best_load = len(core._finish_heap) + core._spinners
                            for c in pool_sorted:
                                load = len(c._finish_heap) + c._spinners
                                if load < best_load:
                                    core = c
                                    best_load = load
                    # Inlined Core.add (which stays in cores.py for direct
                    # callers and the slow path; bookkeeping must match it
                    # exactly): one method call per compute segment is the
                    # single largest slice of the dispatch budget.
                    if thread._on_core is not None:
                        raise SimStateError(
                            f"{thread.name!r} already running on core "
                            f"{thread._on_core.name!r}"
                        )
                    finish = core._virtual + work
                    thread._on_core = core
                    thread._finish_virtual = finish
                    seq = core._seq + 1
                    core._seq = seq
                    heappush(core._finish_heap, (finish, seq, thread, work))
                    if not core._completion_dirty:
                        core._completion_dirty = True
                        cidx = core._cidx
                        if cidx is not None:
                            cidx._dirty.append(core._cpos)
                    thread.state = running_state
                else:
                    self._dispatch_slow(thread, request)
            self.current = None
            self._events_processed += events

            # Refresh the cores whose composition changed since the last
            # step, then take the earliest completion anywhere.  Per dirty
            # core the rate is computed once (Core._per_thread_rate) and
            # cached for _advance; the instant is
            # ``now + (heap[0][0] - V) / rate`` - one subtraction, one
            # division, one addition, in that order.  That float sequence
            # is part of the bit-identity contract.
            now = self.now
            if dirty:
                for pos in dirty:
                    core = cores[pos]
                    heap = core._finish_heap
                    if heap:
                        rate = core._per_thread_rate()
                        core._rate = rate
                        instants[pos] = now + (heap[0][0] - core._virtual) / rate
                    else:
                        instants[pos] = inf
                    core._completion_dirty = False
                dirty.clear()
            compute_at = min(instants)
            timer_at = self._timer_next

            if timer_at is None and compute_at == inf:
                # Only materialize the blocked-thread list when actually
                # raising: this idle check runs on every engine return and
                # a full thread scan here is pure overhead on the happy path.
                if strict and any(
                    t.state is ThreadState.BLOCKED for t in self.threads
                ):
                    blocked = self.blocked_threads()
                    names = ", ".join(t.name for t in blocked[:12])
                    raise SimDeadlock(
                        f"no events remain but {len(blocked)} thread(s) are blocked: {names}"
                    )
                return self.now

            if timer_at is None or compute_at < timer_at:
                next_at = compute_at
            else:
                next_at = timer_at
            if until is not None and next_at > until:
                self._advance(until - now)
                return self.now

            self._advance(next_at - now)
            # Batched same-instant drain: every timer due at the reached
            # instant fires before any woken thread dispatches; callbacks
            # that chain new timers due at this same instant join the drain
            # (the re-pop loop).
            deadline = self.now + _INSTANT_EPSILON
            if timer_at is not None and timer_at <= deadline:
                fired = 0
                while True:
                    batch = timerq.pop_due(deadline)
                    if not batch:
                        break
                    fired += len(batch)
                    for callback in batch:
                        callback()
                self._timer_next = timerq.peek()
                if fired:
                    self.timers_fired += fired
                    self._drain_batches += 1
                    self._drain_events += fired

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def blocked_threads(self) -> list[SimThread]:
        """Threads currently parked on a mutex/condvar/device/join."""
        return [t for t in self.threads if t.state is ThreadState.BLOCKED]

    def alive_threads(self) -> list[SimThread]:
        return [t for t in self.threads if t.alive]

    @property
    def events_processed(self) -> int:
        """Number of dispatch events handled so far (progress metric)."""
        return self._events_processed

    def core_utilization(self) -> dict[str, float]:
        """Per-core busy fraction over the elapsed simulated time."""
        return {c.name: c.utilization(self.now) for c in self.cores}
