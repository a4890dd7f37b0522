"""The cached processor-sharing rate and the inlined engine step.

Each core stores its per-thread PS rate (``Core._rate``) whenever the
engine recomputes its completion instant, and ``Engine._advance`` reads
that cache instead of re-deriving the rate.  The cache is only sound if
every composition change (segment added, segment finished, spinner parked
or left) marks the core dirty and the engine refreshes every dirty core
before it moves the clock.  The scenario below mixes all of those changes
- floating and pinned compute, busy-polling workers parking on and leaving
their ``SimQueue``, held and timed device use - and checks the cache at
every clock advance and from a chained timer, then pins the run's
observable floats exactly.
"""

from __future__ import annotations

from repro.simcore import (
    AcquireDevice,
    Compute,
    Core,
    Engine,
    SimQueue,
    Sleep,
    UseDevice,
)

#: thread -> finish instant, and core -> (delivered, busy_time), recorded
#: on an engine that evaluated the rate formula at every advance
EXPECTED_FINISH = {
    "producer": 0.07384781853702907,
    "worker0": 0.08271171346037716,
    "worker1": 0.07932115187036243,
    "mgmt": 0.03909866091198769,
    "dma": 0.03561381739324892,
    "float0": 0.027369727998068714,
    "float1": 0.03926544279086967,
    "float2": 0.052036863249895045,
    "float3": 0.059469894168197174,
    "float4": 0.06982210210511669,
}
EXPECTED_CORES = {
    "c0": (0.0729, 0.08231171346037715),
    "c1": (0.07179999999999993, 0.060964930889086694),
    "c2": (0.05170000000000002, 0.07772115187036241),
}


def _scenario(on_step=None):
    """Build and run the mixed scenario; returns the engine and threads."""
    cores = [
        Core("c0", 0, speed=1.0, cs_alpha=0.06),
        Core("c1", 1, speed=1.25, cs_alpha=0.06),
        Core("c2", 2, speed=1.5, cs_alpha=0.0),
    ]
    eng = Engine(cores=cores)
    eng.floating_pool = cores[:2]
    dev = eng.add_device("fft0")
    queues = [SimQueue(eng, name=f"mbox{i}") for i in range(2)]

    def worker(i, core):
        # a CEDR worker: spins (one PS share slot) while its mailbox is empty
        while True:
            core.spinners += 1
            try:
                item = yield from queues[i].get()
            finally:
                core.spinners -= 1
            if item is None:
                return
            # the sleeps make the spinner leave and re-park at instants
            # where nothing else changes on its core
            yield Sleep(0.0002)
            yield Compute(item)
            yield Sleep(0.0001)

    def producer():
        for k in range(12):
            yield Compute(0.0011 * (k % 4 + 1))
            yield from queues[k % 2].put(0.003 + 0.0007 * k)
            if k % 3 == 2:
                yield Sleep(0.0023)
        for q in queues:
            yield from q.put(None)

    def mgmt():
        # held-style accelerator management: poll on the host core while
        # holding the device
        for k in range(5):
            yield AcquireDevice(dev)
            yield Compute(0.0009 + 0.0002 * k)
            dev.release(eng.current)
            yield Compute(0.0004)
            yield Sleep(0.004)

    def dma():
        for k in range(4):
            yield UseDevice(dev, 0.0017 * (k + 1))
            yield Compute(0.0013)

    def floating(k):
        for m in range(6):
            yield Compute(0.0005 * (k + 1) + 0.0003 * m)
            yield Sleep(0.0011 * k + 0.0004 * m)

    threads = [eng.spawn(producer(), "producer")]
    threads.append(eng.spawn(worker(0, cores[0]), "worker0", affinity=cores[0]))
    threads.append(eng.spawn(worker(1, cores[2]), "worker1", affinity=cores[2]))
    threads.append(eng.spawn(mgmt(), "mgmt", affinity=cores[2]))
    threads.append(eng.spawn(dma(), "dma"))
    threads.extend(eng.spawn(floating(k), f"float{k}") for k in range(5))

    if on_step is not None:
        original = eng._advance

        def advance(dt):
            on_step(eng)
            original(dt)

        eng._advance = advance

        def tick():
            on_step(eng, clean_only=True)
            if eng.now < 0.1:
                eng.call_at(eng.now + 0.00037, tick)

        eng.call_at(0.0, tick)
    eng.run()
    return eng, threads


def _check_rates(eng, clean_only=False):
    for core in eng.cores:
        if not core._finish_heap:
            continue
        if clean_only and core._completion_dirty:
            # a timer fires after the advance: a core that just finished a
            # segment (or whose spinners changed) waits for the next refresh
            continue
        assert not core._completion_dirty, f"{core.name} advanced while dirty"
        assert core._rate == core._per_thread_rate(), core.name


def test_cached_rate_matches_formula_at_every_step():
    steps = []

    def on_step(eng, clean_only=False):
        steps.append(eng.now)
        _check_rates(eng, clean_only)

    eng, threads = _scenario(on_step)
    assert len(steps) > 200  # every kind of composition change happened
    assert all(t.finished_at is not None for t in threads)


def test_mixed_scenario_outputs_pinned_exactly():
    eng, threads = _scenario(_check_rates)
    assert {t.name: t.finished_at for t in threads} == EXPECTED_FINISH
    assert {c.name: (c.delivered, c.busy_time) for c in eng.cores} == EXPECTED_CORES
