"""Unit tests for the discrete-event engine."""

import random

import pytest

from repro.simcore import (
    AcquireDevice,
    Block,
    Compute,
    Condition,
    Core,
    Engine,
    Mutex,
    SimDeadlock,
    SimStateError,
    SimTimeError,
    Sleep,
    ThreadState,
    UseDevice,
    Yield,
)


def burn(amount):
    yield Compute(amount)


def test_single_compute_takes_its_work_time():
    eng = Engine(cores=1)
    eng.spawn(burn(0.5), "t")
    assert eng.run() == pytest.approx(0.5)


def test_two_threads_share_one_core_equally():
    eng = Engine(cores=1)
    a = eng.spawn(burn(1.0), "a")
    b = eng.spawn(burn(1.0), "b")
    assert eng.run() == pytest.approx(2.0)
    assert a.finished_at == pytest.approx(2.0)
    assert b.finished_at == pytest.approx(2.0)
    assert a.cpu_time == pytest.approx(1.0)


def test_unequal_work_finishes_in_processor_sharing_order():
    eng = Engine(cores=1)
    short = eng.spawn(burn(0.1), "short")
    long_ = eng.spawn(burn(1.0), "long")
    eng.run()
    # short finishes at 0.2 (half rate while sharing), long at 1.1
    assert short.finished_at == pytest.approx(0.2)
    assert long_.finished_at == pytest.approx(1.1)


def test_two_cores_run_two_threads_in_parallel():
    eng = Engine(cores=2)
    eng.spawn(burn(1.0), "a")
    eng.spawn(burn(1.0), "b")
    assert eng.run() == pytest.approx(1.0)


def test_affinity_pins_thread_to_core():
    eng = Engine(cores=2)
    core0 = eng.cores[0]
    a = eng.spawn(burn(1.0), "a", affinity=core0)
    b = eng.spawn(burn(1.0), "b", affinity=core0)
    assert eng.run() == pytest.approx(2.0)  # forced sharing despite idle core1
    assert eng.cores[1].delivered == 0.0


def test_floating_threads_balance_over_pool():
    eng = Engine(cores=2)
    for i in range(4):
        eng.spawn(burn(1.0), f"t{i}")
    assert eng.run() == pytest.approx(2.0)
    assert eng.cores[0].delivered == pytest.approx(2.0)
    assert eng.cores[1].delivered == pytest.approx(2.0)


def test_floating_pool_restriction_is_respected():
    eng = Engine(cores=2)
    eng.floating_pool = [eng.cores[0]]
    eng.spawn(burn(1.0), "a")
    eng.spawn(burn(1.0), "b")
    eng.run()
    assert eng.cores[1].delivered == 0.0


def test_sleep_advances_wall_time_without_cpu():
    eng = Engine(cores=1)

    def sleeper():
        yield Sleep(0.25)
        yield Compute(0.25)

    t = eng.spawn(sleeper(), "s")
    assert eng.run() == pytest.approx(0.5)
    assert t.cpu_time == pytest.approx(0.25)


def test_zero_work_compute_is_instant():
    eng = Engine(cores=1)

    def zero():
        yield Compute(0.0)
        return "done"

    t = eng.spawn(zero(), "z")
    assert eng.run() == 0.0
    assert t.result == "done"


def test_yield_reschedules_without_time_passing():
    order = []

    def a():
        order.append("a1")
        yield Yield()
        order.append("a2")

    def b():
        order.append("b1")
        yield Yield()
        order.append("b2")

    eng = Engine(cores=1)
    eng.spawn(a(), "a")
    eng.spawn(b(), "b")
    assert eng.run() == 0.0
    assert order == ["a1", "b1", "a2", "b2"]


def test_thread_result_captured_from_return():
    eng = Engine(cores=1)

    def worker():
        yield Compute(0.1)
        return 42

    t = eng.spawn(worker(), "w")
    eng.run()
    assert t.result == 42
    assert t.state is ThreadState.FINISHED
    assert not t.alive


def test_join_returns_result():
    eng = Engine(cores=1)

    def child():
        yield Compute(0.2)
        return "payload"

    def parent():
        c = eng.spawn(child(), "child")
        value = yield from c.join()
        return value

    p = eng.spawn(parent(), "parent")
    eng.run()
    assert p.result == "payload"


def test_join_finished_thread_returns_immediately():
    eng = Engine(cores=1)
    c = eng.spawn(burn(0.1), "child")
    eng.run()

    def parent():
        value = yield from c.join()
        return value

    p = eng.spawn(parent(), "parent")
    eng.run()
    assert p.result is None  # burn returns None
    assert p.finished_at == pytest.approx(0.1)


def test_self_join_rejected():
    eng = Engine(cores=1)
    captured = {}

    def selfish():
        me = eng.current
        try:
            yield from me.join()
        except SimStateError as exc:
            captured["err"] = exc

    eng.spawn(selfish(), "narcissus")
    eng.run()
    assert "err" in captured


def test_run_until_pauses_and_resumes():
    eng = Engine(cores=1)
    t = eng.spawn(burn(1.0), "t")
    eng.run(until=0.4)
    assert eng.now == pytest.approx(0.4)
    assert t.alive
    eng.run()
    assert t.finished_at == pytest.approx(1.0)


def test_call_at_fires_in_order():
    eng = Engine(cores=1)
    hits = []
    eng.call_at(0.2, lambda: hits.append(0.2))
    eng.call_at(0.1, lambda: hits.append(0.1))
    eng.run()
    assert hits == [0.1, 0.2]


def test_call_at_in_the_past_clamps_to_now_and_counts():
    eng = Engine(cores=1)
    eng.call_at(0.5, lambda: None)
    eng.run()
    hits = []
    eng.call_at(0.1, lambda: hits.append(eng.now))
    assert eng.late_timers == 1
    eng.run()
    # clamped to "now" at scheduling time, not replayed at 0.1
    assert hits == [pytest.approx(0.5)]
    assert eng.now == pytest.approx(0.5)


def test_late_call_at_invokes_telemetry_hook():
    eng = Engine(cores=1)
    lates = []
    eng.on_late_timer = lambda: lates.append(eng.now)
    eng.call_at(0.5, lambda: None)
    eng.run()
    eng.call_at(0.25, lambda: None)
    eng.call_at(0.75, lambda: None)  # future timestamps are not late
    eng.run()
    assert eng.late_timers == 1
    assert lates == [pytest.approx(0.5)]


def test_strict_run_raises_on_blocked_threads():
    eng = Engine(cores=1)

    def stuck():
        yield Block()

    eng.spawn(stuck(), "stuck")
    with pytest.raises(SimDeadlock):
        eng.run()


def test_deadlock_message_names_blocked_threads():
    """The strict-mode deadlock report still names every stuck thread.

    The deadlock check is deliberately lazy (the blocked-thread list is
    only materialized when the run actually deadlocks); this pins that the
    diagnostic quality did not lazily evaporate with it.
    """
    eng = Engine(cores=1)

    def stuck():
        yield Block()

    eng.spawn(stuck(), "consumer-a")
    eng.spawn(stuck(), "consumer-b")
    with pytest.raises(SimDeadlock, match=r"2 thread\(s\)") as excinfo:
        eng.run()
    assert "consumer-a" in str(excinfo.value)
    assert "consumer-b" in str(excinfo.value)


def test_non_strict_run_returns_with_blocked_threads():
    eng = Engine(cores=1)

    def stuck():
        yield Block()

    t = eng.spawn(stuck(), "stuck")
    eng.run(strict=False)
    assert eng.blocked_threads() == [t]


def test_wake_non_blocked_thread_rejected():
    eng = Engine(cores=1)
    t = eng.spawn(burn(0.1), "t")
    with pytest.raises(SimStateError):
        eng.wake(t)  # it is READY, not blocked


def test_wake_finished_thread_rejected():
    eng = Engine(cores=1)
    t = eng.spawn(burn(0.1), "t")
    eng.run()
    with pytest.raises(SimStateError):
        eng.wake(t)


def test_negative_compute_rejected():
    with pytest.raises(SimTimeError):
        Compute(-1.0)


def test_negative_sleep_rejected():
    with pytest.raises(SimTimeError):
        Sleep(-0.1)


def test_unknown_request_rejected():
    eng = Engine(cores=1)

    def weird():
        yield "not a request"

    eng.spawn(weird(), "weird")
    with pytest.raises(SimStateError):
        eng.run()


def test_spawn_with_foreign_core_rejected():
    eng = Engine(cores=1)
    foreign = Core(name="foreign", index=99)
    with pytest.raises(SimStateError):
        eng.spawn(burn(0.1), "t", affinity=foreign)


def test_engine_requires_at_least_one_core():
    with pytest.raises(SimStateError):
        Engine(cores=0)


def test_events_processed_counts_dispatches():
    eng = Engine(cores=1)
    eng.spawn(burn(0.1), "a")
    eng.spawn(burn(0.1), "b")
    eng.run()
    assert eng.events_processed >= 2


def test_core_utilization_reported():
    eng = Engine(cores=2)
    eng.spawn(burn(1.0), "a", affinity=eng.cores[0])
    eng.run()
    util = eng.core_utilization()
    assert util["cpu0"] == pytest.approx(1.0)
    assert util["cpu1"] == 0.0


# --------------------------------------------------------------------- #
# the timer queue
# --------------------------------------------------------------------- #

def test_engine_event_core_and_core_impl_are_fixed():
    eng = Engine(cores=1)
    assert (eng.event_core, eng.core_impl) == ("heap", "objects")
    assert (Engine.event_core, Engine.core_impl) == ("heap", "objects")
    with pytest.raises(TypeError):
        Engine(cores=1, event_core="heap")


def test_cancelled_timer_never_fires_and_ties_keep_schedule_order():
    eng = Engine(cores=1)
    hits = []
    eng.call_at(0.2, lambda: hits.append("b"))
    eng.call_at(0.1, lambda: hits.append("a"))
    eng.call_at(0.2, lambda: hits.append("c"))  # equal-when tie via seq
    cancelled = eng.call_at(0.15, lambda: hits.append("dead"))
    assert eng.cancel_timer(cancelled) is True
    assert eng.cancel_timer(cancelled) is False
    eng.run()
    assert hits == ["a", "b", "c"]
    assert eng.now == pytest.approx(0.2)


def test_event_core_stats_schema_and_batching():
    eng = Engine(cores=1)
    hits = []
    for _ in range(3):
        eng.call_at(0.1, lambda: hits.append(eng.now))  # one same-instant batch
    eng.call_at(0.2, lambda: hits.append(eng.now))
    eng.run()
    stats = eng.event_core_stats()
    assert set(stats) == {
        "pending", "occupancy_hwm", "late_timers", "timers_fired",
        "drain_batches", "mean_batch",
    }
    assert stats["pending"] == 0
    assert stats["timers_fired"] == 4
    assert stats["late_timers"] == 0
    assert stats["occupancy_hwm"] == 4
    assert stats["drain_batches"] == 2
    assert stats["mean_batch"] == pytest.approx(2.0)
    assert hits == [pytest.approx(0.1)] * 3 + [pytest.approx(0.2)]


def test_timer_chained_at_the_same_instant_joins_the_drain():
    """A callback scheduling another timer for the instant being drained
    fires it in the same batch, before any woken thread dispatches."""
    eng = Engine(cores=1)
    log = []

    def sleeper():
        yield Sleep(0.1)
        log.append(("thread", eng.now))

    def first():
        log.append(("first", eng.now))
        eng.call_at(eng.now, lambda: log.append(("chained", eng.now)))

    eng.spawn(sleeper(), "s")
    eng.call_at(0.1, first)
    eng.run()
    assert [tag for tag, _ in log] == ["first", "chained", "thread"]
    assert eng.event_core_stats()["drain_batches"] == 1


# --------------------------------------------------------------------- #
# run(until=) resumption, deadlock and exception exits
# --------------------------------------------------------------------- #

def _mixed_workload(engine):
    """A workload touching every dispatch path: pinned + floating compute,
    sleeps, mutex/condvar chains, zero-work requeues, yields, devices,
    spinners, and one late ``call_at``."""
    cores = engine.cores
    cores[0].spinners = 1
    mtx = Mutex(engine)
    cv = Condition(mtx, signal_latency=1e-6)
    shared = {"n": 0}

    def worker(i):
        r = random.Random(1000 + i)
        for _ in range(30):
            yield Compute(r.uniform(1e-6, 5e-4))
            if r.random() < 0.3:
                yield Sleep(r.uniform(1e-6, 1e-3))
            if r.random() < 0.2:
                yield from mtx.acquire()
                shared["n"] += 1
                if shared["n"] % 3 == 0:
                    cv.notify_all()
                mtx.release()
            if r.random() < 0.1:
                yield Compute(0.0)
            if r.random() < 0.1:
                yield Yield()
        yield from mtx.acquire()
        shared["n"] += 1
        cv.notify_all()
        mtx.release()
        return i

    def waiter():
        for _ in range(4):
            yield from mtx.acquire()
            while shared["n"] < 8:
                yield from cv.wait()
            mtx.release()
            yield Compute(2e-4)
        # a stale timestamp: clamped to now and counted as late
        engine.call_at(engine.now - 1e-3, lambda: None)
        return "w"

    threads = []
    for i in range(10):
        aff = cores[i % len(cores)] if i % 3 == 0 else None
        threads.append(engine.spawn(worker(i), name=f"w{i}", affinity=aff))
    threads.append(engine.spawn(waiter(), name="waiter"))

    dev = engine.add_device("fft")

    def devuser(i):
        r = random.Random(77 + i)
        for _ in range(12):
            yield Compute(r.uniform(1e-6, 1e-4))
            yield UseDevice(dev, r.uniform(1e-5, 1e-4))
        yield AcquireDevice(dev)
        yield Compute(1e-5)
        dev.release(engine.current)
        return "d"

    for i in range(2):
        threads.append(engine.spawn(devuser(i), name=f"d{i}"))
    return threads


def _snapshot(engine, threads):
    """Exact observable state: floats as hex so a one-ulp drift fails."""
    return dict(
        now=engine.now.hex(),
        events=engine.events_processed,
        timers=engine.timers_fired,
        late=engine.late_timers,
        cpu=[t.cpu_time.hex() for t in threads],
        states=[t.state.value for t in threads],
        fin=[
            (t.name, None if t.finished_at is None else t.finished_at.hex(), t.result)
            for t in threads
        ],
        delivered=[c.delivered.hex() for c in engine.cores],
        busy=[c.busy_time.hex() for c in engine.cores],
        virt=[c._virtual.hex() for c in engine.cores],
        heaps=[
            sorted((e[0].hex(), e[2].name, e[3].hex()) for e in c._finish_heap)
            for c in engine.cores
        ],
    )


@pytest.mark.parametrize("ncores", [1, 4])
def test_mixed_workload_is_deterministic(ncores):
    snaps = []
    for _ in range(2):
        eng = Engine(cores=ncores, seed=7)
        threads = _mixed_workload(eng)
        eng.run()
        snaps.append(_snapshot(eng, threads))
    assert snaps[0] == snaps[1]
    assert snaps[0]["late"] == 1
    assert all(state == "finished" for state in snaps[0]["states"])


def _stepped_trail(step):
    eng = Engine(cores=3, seed=9)
    threads = _mixed_workload(eng)
    t, trail = 0.0, []
    while any(th.alive for th in threads):
        t += step
        eng.run(until=t)
        if any(th.alive for th in threads):
            assert eng.now == t  # the clock stops exactly at ``until``
        trail.append(_snapshot(eng, threads))
    return threads, trail


@pytest.mark.parametrize("step", [7.3e-4, 1.1e-5, 0.013])
def test_until_stepping_resumes_where_it_stopped(step):
    """run(until=...) hands a partial advance to _advance and resumes with
    live heaps and pending timers.  Stepping is itself deterministic (every
    intermediate snapshot repeats bit-for-bit), and it ends where the
    uninterrupted run does: the same events, timers, late timers, results
    and thread states, with float state equal up to the round-off of the
    split advances."""
    threads, trail = _stepped_trail(step)
    assert _stepped_trail(step)[1] == trail

    eng = Engine(cores=3, seed=9)
    straight_threads = _mixed_workload(eng)
    eng.run()
    stepped = trail[-1]
    straight = _snapshot(eng, straight_threads)
    for key in ("events", "timers", "late", "states", "heaps"):
        assert stepped[key] == straight[key], key
    assert [f[2] for f in stepped["fin"]] == [f[2] for f in straight["fin"]]
    assert float.fromhex(stepped["now"]) == pytest.approx(eng.now, rel=1e-12)
    for key in ("cpu", "delivered", "busy", "virt"):
        got = [float.fromhex(x) for x in stepped[key]]
        want = [float.fromhex(x) for x in straight[key]]
        assert got == pytest.approx(want, rel=1e-9), key


def test_deadlock_exit_leaves_consistent_state():
    def holder(mtx):
        yield from mtx.acquire()
        yield Sleep(10.0)

    def victim(mtx):
        yield Compute(1e-6)
        yield from mtx.acquire()

    eng = Engine(cores=1)
    mtx = Mutex(eng)
    h = eng.spawn(holder(mtx), name="holder")
    v = eng.spawn(victim(mtx), name="victim")
    with pytest.raises(SimDeadlock, match="1 thread\\(s\\) are blocked: victim"):
        eng.run()
    assert eng.now == pytest.approx(10.0)
    assert h.state is ThreadState.FINISHED
    assert v.state is ThreadState.BLOCKED
    assert v.cpu_time == pytest.approx(1e-6)
    assert eng.timers_fired == 1
    assert all(not c._finish_heap for c in eng.cores)
    assert eng.current is None
    # a non-strict rerun reports the same state instead of raising
    assert eng.run(strict=False) == pytest.approx(10.0)
    assert eng.blocked_threads() == [v]


def test_exception_escape_leaves_unresumed_threads_ready():
    """A thread body raising mid-drain propagates out of run(); siblings
    whose resume never ran stay on the ready queue, the culprit stays in
    ``current``, and no core keeps a stale segment."""

    class Boom(RuntimeError):
        pass

    def bomb():
        yield Compute(1e-4)
        raise Boom()

    def burn_n(n, amount):
        for _ in range(n):
            yield Compute(amount)

    eng = Engine(cores=1, seed=1)
    b = eng.spawn(bomb(), name="bomb", affinity=eng.cores[0])
    survivors = [
        eng.spawn(burn_n(3, 1e-4), name=f"s{i}", affinity=eng.cores[0])
        for i in range(3)
    ]
    with pytest.raises(Boom):
        eng.run()
    assert eng.now == pytest.approx(4e-4)
    assert eng.current is b
    assert [t.state for t in survivors] == [ThreadState.READY] * 3
    assert [t.cpu_time for t in survivors] == [pytest.approx(1e-4)] * 3
    assert [t for t, _ in eng._ready] == survivors
    assert eng.cores[0]._finish_heap == []
    assert all(t._on_core is None for t in survivors)
