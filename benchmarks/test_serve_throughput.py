"""Sustained-service throughput of the open-stream serve tier.

A half-second of simulated service under a near-capacity Poisson load
(100 apps/s of the radar+comms mix, zero shed at steady state) exercises
the full serve stack per arrival: generator timer chain, admission
decision, instance construction, runtime submission, SLO accounting, and
graceful drain.  The measured statistic is engine dispatch events per
wall second - directly comparable to ``engine_event_throughput``, but
with the scheduler and service bookkeeping in the loop.

Unlike the optimization cells in ``baseline.json``, the serve cell is a
regression *floor*: there is no pre/post pair, so ``required_speedup``
is below 1 and the assertion reads "service mode must stay within 2x of
the recorded rate".  ``REPRO_PERF_CHECK=0`` skips it.

The window is timing-only, so every instance of an app shares one stand-in
input: a host-independent count assertion fails the smoke if input
synthesis ever returns to once per arrival.
"""

import collections

from repro.apps import PulseDoppler, WifiTx
from repro.platforms import zcu102
from repro.runtime import CedrRuntime, RuntimeConfig
from repro.serve import ArrivalSpec, ServeConfig, ServeDriver, TenantSpec


def test_serve_sustained_throughput(benchmark, check_throughput, monkeypatch):
    """Engine dispatch rate with the full service tier in the loop."""

    synthesized: collections.Counter = collections.Counter()
    for cls in (PulseDoppler, WifiTx):
        def counted(self, rng, _original=cls.make_input):
            synthesized[id(self)] += 1
            return _original(self, rng)

        monkeypatch.setattr(cls, "make_input", counted)

    serve = ServeConfig(
        tenants=(TenantSpec(
            "clients",
            ArrivalSpec.make("poisson", rate=100.0),
            (PulseDoppler(batch=16), WifiTx(n_packets=20, batch=4)),
        ),),
        duration=0.5,
    )

    def run():
        platform = zcu102(n_cpu=3, n_fft=1).build(seed=0)
        runtime = CedrRuntime(platform, RuntimeConfig(scheduler="heft_rt",
                                                      execute_kernels=False))
        driver = ServeDriver(runtime, serve, seed=0)
        runtime.start()
        driver.arm()
        runtime.run()
        result = driver.result()
        # steady state: the load is admissible, nothing sheds, all complete
        assert result.shed == 0
        assert result.completed == result.offered > 40
        return runtime.engine.events_processed

    events = benchmark(run)
    assert events > 10000
    # at most one input per app, however many rounds the benchmark ran
    assert len(synthesized) <= 2 and max(synthesized.values()) == 1
    check_throughput("serve_sustained_throughput", benchmark, events)
