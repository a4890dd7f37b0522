"""Processor-sharing CPU cores and exclusive accelerator devices.

The contention model is the load-bearing piece of this reproduction: every
headline result in the CEDR-API paper (Figs 5-10) is driven by worker,
application, and accelerator-management threads time-sharing a small pool of
ARM cores.  We model each core as an egalitarian processor-sharing server:
when ``k`` threads are runnable on a core of speed ``s``, each progresses at
rate ``s / k``.  This is the fluid limit of the Linux CFS round-robin that
the real CEDR threads experience, and it makes completion times exactly
computable in an event-driven loop (no quantum discretization noise).

Performance: virtual-time accounting
------------------------------------

A naive processor-sharing core decrements every runnable thread's remaining
work on every clock advance - O(runnable) per event, and the dominant cost
of the whole simulator.  Instead each core keeps a *virtual clock* ``V``:
the dedicated-work seconds delivered to each occupant since the core was
created.  A segment of ``w`` work admitted at virtual time ``V0`` finishes
when ``V`` reaches ``V0 + w``; advancing the wall clock by ``dt`` moves
``V`` by ``dt * rate`` once, regardless of how many threads share the core.
Finish instants live in a per-core min-heap, so an advance costs
O(1 + completions log n) instead of O(runnable).

Because the per-thread rate is constant while the core's composition
(runnable set + spinner count) is unchanged, the *absolute* wall-clock
instant of the earliest completion is constant too, and so is the rate
itself.  The engine recomputes both only for *dirty* cores: a core is
marked dirty when a segment is added, a segment finishes, or the spinner
count changes, and it then caches the rate on the core (``Core._rate``)
and the instant in its :class:`CompletionIndex` - the invalidation
protocol the engine's step relies on (see docs/INTERNALS.md,
"Performance").

Devices (FFT/MMULT accelerators, the GPU) are exclusive FIFO servers: one
occupant at a time, queued requests served in arrival order.  The CPU-side
cost of talking to a device (DMA setup, ``cudaMemcpy``) is *not* modelled
here - the runtime charges it as ordinary :class:`Compute` work on the
management thread's host core, which is precisely how the paper explains its
scalability results.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import SimStateError

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Engine
    from .process import SimThread

__all__ = ["Core", "CompletionIndex", "Device"]

#: Remaining-work threshold below which a compute segment counts as finished.
#: Guards against float round-off leaving 1e-18 core-seconds of zombie work.
WORK_EPSILON = 1e-12


class Core:
    """One processor-sharing CPU core.

    ``speed`` is a dimensionless multiplier; kernel cost tables already fold
    in absolute clock rates, so platforms normally leave it at 1.0 and encode
    cross-platform differences (1.2 GHz ARM A53 vs 2.3 GHz Carmel) in the
    cost model.

    ``cs_alpha`` is the context-switch/cache-thrash penalty: with ``k``
    runnable threads the core's *aggregate* delivery rate degrades to
    ``speed / (1 + cs_alpha * (k - 1))``.  Pure processor sharing is
    work-conserving, which would hide the oversubscription cost the paper's
    scalability analysis (Fig. 10) attributes to "each thread waiting for
    longer periods to get access to the CPU core"; the penalty restores it.

    ``spinners`` is the number of busy-polling threads currently parked on
    this core.  CEDR's worker and accelerator-management threads spin on
    their queues, so an *idle* worker still consumes a full processor-sharing
    slot - the mechanism behind the paper's thread-contention findings (API
    threads squeezed by spinning workers in Fig. 6/8, monotone degradation
    with FFT count in Fig. 10a, the 5-CPU minimum in Fig. 10b).  Spinners
    take a share slot but have no work to finish; they vanish from the core
    the instant their queue delivers a task.
    """

    __slots__ = (
        "name",
        "index",
        "speed",
        "cs_alpha",
        "_spinners",
        "delivered",
        "busy_time",
        "_virtual",
        "_finish_heap",
        "_seq",
        "_rate",
        "_completion_dirty",
        "_cidx",
        "_cpos",
    )

    def __init__(
        self,
        name: str,
        index: int,
        speed: float = 1.0,
        cs_alpha: float = 0.0,
        spinners: int = 0,
    ) -> None:
        self.name = name
        self.index = index
        self.speed = speed
        self.cs_alpha = cs_alpha
        self._spinners = spinners
        #: total dedicated-core-seconds delivered (for utilization accounting)
        self.delivered: float = 0.0
        #: wall-seconds during which at least one thread was runnable here
        self.busy_time: float = 0.0
        #: dedicated-work seconds delivered per occupant since creation
        self._virtual: float = 0.0
        #: (finish_virtual, seq, thread, work) min-heap of pending segments.
        #: Doubles as the runnable count: every entry is exactly one active
        #: segment, so ``len(_finish_heap)`` *is* the occupancy - the old
        #: ``_nrun``/``_load`` twin counters were redundant mirrors of it
        #: (and two attribute writes per event on the hot path).  The thread
        #: -> finish-virtual mapping lives on the threads themselves
        #: (``SimThread._on_core`` / ``_finish_virtual``) plus this heap, so
        #: the hot add/complete path never touches a dict.
        self._finish_heap: list[tuple[float, int, "SimThread", float]] = []
        self._seq = 0
        #: per-thread PS rate cached by the engine's refresh; valid while
        #: the core is clean (``_completion_dirty`` False) and busy
        self._rate = 0.0
        #: set when the composition changes; the engine then recomputes
        #: ``_rate`` and the cached completion instant
        self._completion_dirty = True
        #: back-reference into the engine's :class:`CompletionIndex` (None
        #: for standalone cores); the dirty-push half of the invalidation
        #: protocol.
        self._cidx: Optional["CompletionIndex"] = None
        self._cpos = 0

    # identity semantics: cores are placed in dicts/sets by the engine
    # (plain object hash/eq - no overrides needed on a non-dataclass)

    @property
    def spinners(self) -> int:
        return self._spinners

    @spinners.setter
    def spinners(self, value: int) -> None:
        # A spinner arriving/leaving changes the share count, hence the
        # per-thread rate, hence every pending completion instant.
        if value != self._spinners:
            self._spinners = value
            self._mark_completion_dirty()

    def _mark_completion_dirty(self) -> None:
        """Invalidate the cached rate and completion instant and notify
        the engine's :class:`CompletionIndex` (dirty positions are pushed
        exactly once per clean->dirty transition, so the engine's refresh
        touches only the cores whose composition actually changed)."""
        if not self._completion_dirty:
            self._completion_dirty = True
            idx = self._cidx
            if idx is not None:
                idx._dirty.append(self._cpos)

    @property
    def load(self) -> int:
        """Threads currently sharing this core: runnable plus busy-polling
        spinners.  Used for floating-thread placement - an application
        thread migrating onto a core occupied by a spinning CEDR worker
        really does land in a contended slot, which is why the 3-core
        ZCU102 squeezes application threads while the Jetson's spare cores
        do not (paper Figs 6 vs 8).  Derived live from the finish heap."""
        return len(self._finish_heap) + self._spinners

    @property
    def running(self) -> dict["SimThread", float]:
        """Snapshot of thread -> finish-virtual for the active segments.

        Rebuilt from the finish heap on access (each heap entry is exactly
        one active segment); the hot path keeps only the heap and the
        per-thread slots, so this is an introspection view, not storage.
        """
        return {entry[2]: entry[0] for entry in self._finish_heap}

    def add(self, thread: "SimThread", work: float) -> None:
        if thread._on_core is not None:
            raise SimStateError(
                f"{thread.name!r} already running on core {thread._on_core.name!r}"
            )
        finish = self._virtual + work
        thread._on_core = self
        thread._finish_virtual = finish
        self._seq += 1
        heapq.heappush(self._finish_heap, (finish, self._seq, thread, work))
        self._mark_completion_dirty()

    def remaining_work(self, thread: "SimThread") -> float:
        """Dedicated-core seconds left in *thread*'s current segment."""
        if thread._on_core is not self:
            raise KeyError(thread)
        return thread._finish_virtual - self._virtual

    def _per_thread_rate(self) -> float:
        """Dedicated-work seconds delivered per wall second to each of the
        ``k`` runnable threads, including busy-polling spinners in the share
        count and the context-switch penalty.

        The one place the simulator computes the processor-sharing rate
        ``speed / (k * (1 + cs_alpha * (k - 1)))``: :meth:`advance` calls
        it directly, and the engine calls it once per composition change
        and caches the result in ``_rate`` for its clock advances.
        """
        k = len(self._finish_heap) + self._spinners
        return self.speed / (k * (1.0 + self.cs_alpha * (k - 1)))

    def next_completion_in(self) -> Optional[float]:
        """Wall-seconds until the earliest segment here finishes, or None."""
        heap = self._finish_heap
        if not heap:
            return None
        return (heap[0][0] - self._virtual) / self._per_thread_rate()

    def advance(self, dt: float) -> list["SimThread"]:
        """Progress all runnable threads by ``dt`` wall-seconds.

        Returns the threads whose segments completed.  The engine guarantees
        ``dt`` never overshoots the earliest completion, so remaining work
        stays non-negative up to :data:`WORK_EPSILON`.
        """
        if dt == 0.0:
            return []
        heap = self._finish_heap
        n = len(heap)
        if not n:
            if self._spinners:
                # a busy-polling thread keeps the core active (and drawing
                # power) even with no work item in flight
                self.busy_time += dt
            return []
        rate = self._per_thread_rate()
        virtual = self._virtual + dt * rate
        self._virtual = virtual
        self.delivered += dt * rate * n
        self.busy_time += dt
        if heap[0][0] > virtual + WORK_EPSILON:
            return []
        done: list["SimThread"] = []
        limit = virtual + WORK_EPSILON
        while heap and heap[0][0] <= limit:
            _, _, thread, work = heapq.heappop(heap)
            thread._on_core = None
            # Credit the segment's exact work on completion (rather than
            # drip-feeding partial grants every advance): cheaper and free
            # of per-advance rounding drift.
            thread.cpu_time += work
            done.append(thread)
        self._mark_completion_dirty()
        return done

    def utilization(self, elapsed: float) -> float:
        """Fraction of wall time this core had runnable work."""
        return 0.0 if elapsed <= 0 else self.busy_time / elapsed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Core {self.name} load={self.load}>"


class CompletionIndex:
    """Cached absolute completion instants for a fixed set of cores.

    The engine needs "when does the earliest compute segment anywhere
    finish?" on every step.  The index holds one instant per core in a
    plain list (``inf`` = idle) plus the positions of the *dirty* cores -
    those whose runnable set or spinner count changed since the engine
    last looked, pushed once per clean->dirty transition by
    :meth:`Core._mark_completion_dirty` and by the engine's inlined
    ``Core.add``/``Core.advance``.  ``Engine.run`` refreshes the dirty
    positions and takes a C-level ``min`` over the list inline; for the
    small core counts of real platforms (3-12) that beats any vectorized
    form.

    Attaching a core to a second index (e.g. sharing ``Core`` objects
    between two engines) re-points its back-reference; only the most
    recently attached index sees its invalidations.
    """

    __slots__ = ("cores", "_instants", "_dirty")

    def __init__(self, cores: Sequence[Core]) -> None:
        self.cores = list(cores)
        n = len(self.cores)
        self._instants: list[float] = [math.inf] * n
        self._dirty = list(range(n))
        for pos, core in enumerate(self.cores):
            core._cidx = self
            core._cpos = pos
            core._completion_dirty = True


class Device:
    """An exclusive, FIFO-queued accelerator device.

    Two occupancy styles, never mixed on one device by the runtime:

    * **Timed** (:class:`~repro.simcore.process.UseDevice`): the thread
      blocks and the device auto-releases after a fixed duration - a
      fire-and-forget interrupt-driven dispatch.
    * **Held** (:class:`~repro.simcore.process.AcquireDevice` +
      :meth:`release`): the thread owns the device across its own compute
      segments.  This is how CEDR's driverless MMIO management threads work:
      the mgmt thread *polls* the accelerator, so the device stays occupied
      for as long as the (processor-shared, possibly slowed-down) polling
      loop takes - the contention coupling the paper's Fig. 10 exposes.

    The wait queue is a :class:`~collections.deque`: accelerator queues grow
    deep at high injection rates (every frame of every app funnels through
    one FFT IP in the Fig. 5 configuration), and a list's ``pop(0)`` would
    make draining an n-deep queue quadratic.
    """

    __slots__ = ("name", "engine", "occupant", "queue", "busy_time", "served", "_busy_since")

    def __init__(self, name: str, engine: "Engine") -> None:
        self.name = name
        self.engine = engine
        self.occupant: Optional["SimThread"] = None
        #: waiting (thread, duration-or-None) pairs; None = held-style acquire
        self.queue: deque[tuple["SimThread", Optional[float]]] = deque()
        self.busy_time: float = 0.0
        self.served: int = 0
        self._busy_since: float = 0.0

    @property
    def busy(self) -> bool:
        return self.occupant is not None

    def request(self, thread: "SimThread", duration: Optional[float]) -> None:
        """Enqueue *thread*; ``duration=None`` means held-style acquire."""
        if self.occupant is None:
            self._start(thread, duration)
        else:
            self.queue.append((thread, duration))

    def _start(self, thread: "SimThread", duration: Optional[float]) -> None:
        self.occupant = thread
        self._busy_since = self.engine.now
        if duration is None:
            # held-style: grant immediately; owner releases explicitly
            self.engine.wake(thread)
        else:
            self.engine._schedule_timer(duration, self._timed_complete)

    def _timed_complete(self) -> None:
        thread = self.occupant
        if thread is None:  # pragma: no cover - engine invariant
            raise SimStateError(f"device {self.name!r} completed with no occupant")
        self._finish()
        self.engine.wake(thread)

    def release(self, thread: "SimThread") -> None:
        """Held-style release by the current occupant (synchronous call)."""
        if self.occupant is not thread:
            raise SimStateError(
                f"{thread.name!r} released device {self.name!r} held by "
                f"{self.occupant.name if self.occupant else None!r}"
            )
        self._finish()

    def _finish(self) -> None:
        self.occupant = None
        self.busy_time += self.engine.now - self._busy_since
        self.served += 1
        if self.queue:
            nxt, dur = self.queue.popleft()
            self._start(nxt, dur)

    def utilization(self, elapsed: float) -> float:
        """Fraction of wall time the device spent occupied."""
        extra = (self.engine.now - self._busy_since) if self.busy else 0.0
        return 0.0 if elapsed <= 0 else (self.busy_time + extra) / elapsed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "busy" if self.busy else "idle"
        return f"<Device {self.name} {state} q={len(self.queue)}>"
