"""Benchmark workloads: fixed lists of simulation cells, built from a seed.

A workload is a list of :class:`Cell` objects that the harness runs back to
back (a closed loop on the host: the next cell starts when the previous one
returns).  Every cell goes through a public entry point of the simulator -
``repro.experiments.run_once`` for batch cells, ``repro.serve.serve_once``
for the service window - so the benchmark times what a user runs.

Construction is a pure function of the workload seed: the same seed gives
equal cell lists (see ``test_perfbench.py``).  The batch cells use the
paper's periodic injection with noise-free cost tables, so their modelled
schedule does not depend on the seed; the seed changes the synthesized
input payloads (checked numerically on ``kernels-on``) and, on
``serve-observed``, the Poisson arrival and fault streams.

Why each workload exists is recorded in ``README.md`` next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

__all__ = [
    "WORKLOADS",
    "DEFAULT_SEED",
    "HELD_OUT_SEED",
    "Cell",
    "build_workload",
]

#: seed used when ``--seed`` is not given
DEFAULT_SEED = 0
#: seed that no tuning used; a later performance claim must also hold here
HELD_OUT_SEED = 7919

#: fault stream seed of the service window, fixed so that the fault
#: timeline is the same for every arrival seed
SERVE_FAULT_SEED = 17
#: service windows per ``serve-observed`` pass
SERVE_WINDOWS = 3


@dataclass(frozen=True)
class Cell:
    """One simulation cell: a public entry point plus its arguments.

    ``kind`` is ``"run"`` (``run_once``) or ``"serve"`` (``serve_once``).
    For a run cell ``batch`` holds ``(workload, mode, rate_mbps)``; for a
    serve cell ``serve`` holds the ``ServeConfig``.  ``config=None`` on a
    run cell takes ``run_once``'s own default configuration, the one the
    figure drivers use.
    """

    cell_id: str
    kind: str
    platform: Any
    scheduler: str
    seed: int
    execute: bool = False
    batch: Optional[tuple] = None
    serve: Any = None
    config: Any = None
    #: applications whose instances and inputs are recorded for the
    #: functional check (``kernels-on`` only)
    recorded_apps: tuple = ()

    def run(self):
        """Run the cell to completion; returns its RunResult/ServeResult."""
        if self.kind == "serve":
            from repro.serve import serve_once

            return serve_once(self.platform, self.serve, seed=self.seed, config=self.config)
        from repro.experiments import run_once

        workload, mode, rate = self.batch
        return run_once(
            self.platform, workload, mode, rate, self.scheduler,
            seed=self.seed, execute=self.execute, config=self.config,
        )

    def prepare(self) -> dict:
        """Bring the cell to the point where it is ready to run.

        This is the set-up a cold process pays before its first cell:
        ``PlatformConfig.build``, ``CedrRuntime`` construction and the
        workload's instantiation (for a serve cell, arming the service
        driver's arrival streams).  It mirrors the first steps of
        ``run_once``/``serve_once`` and returns the runtime's effective
        engine selection.
        """
        from repro.runtime import CedrRuntime, RuntimeConfig

        if self.config is None:
            config = RuntimeConfig(scheduler=self.scheduler, execute_kernels=self.execute)
        else:
            config = self.config.with_scheduler(self.scheduler)
        instance = self.platform.build(seed=self.seed)
        runtime = CedrRuntime(instance, config)
        if self.kind == "serve":
            from repro.serve import ServeDriver

            ServeDriver(runtime, self.serve, self.seed).arm()
        else:
            workload, mode, rate = self.batch
            workload.instantiate(mode, rate, self.seed)
        return {
            "event_core": runtime.engine.event_core,
            "core_impl": runtime.engine.core_impl,
        }


def _recording(base: type) -> type:
    """Subclass of application class *base* that records its instances.

    ``make_instance`` synthesizes inputs exactly as the base class does
    (same RNG draws, same order), then keeps ``(instance, inputs)`` so the
    harness can compare each result with ``reference(inputs)`` after the
    cell returns.
    """

    class Recorded(base):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            self.made: list = []

        def make_instance(self, mode, rng, variant=None, inputs=None):
            if inputs is None:
                inputs = self.make_input(rng)
            inst = super().make_instance(mode, rng, variant, inputs=inputs)
            self.made.append((inst, inputs))
            return inst

    Recorded.__name__ = Recorded.__qualname__ = f"Recorded{base.__name__}"
    return Recorded


def _api_batch(seed: int) -> list[Cell]:
    from repro.experiments.fig10_scalability import JETSON_RATE_MBPS, ZCU_RATE_MBPS
    from repro.experiments.fig9_versatility import av_workload_scaled
    from repro.platforms import jetson, zcu102
    from repro.workload import radar_comms_workload

    av = av_workload_scaled()
    return [
        Cell("fig5-api-rr-200", "run", zcu102(n_cpu=3, n_fft=1), "rr", seed,
             batch=(radar_comms_workload(), "api", 200.0)),
        Cell("fig10a-zcu102-8fft-heft_rt", "run", zcu102(n_cpu=3, n_fft=8), "heft_rt", seed,
             batch=(av, "api", ZCU_RATE_MBPS)),
        Cell("fig10b-jetson-5cpu-heft_rt", "run", jetson(n_cpu=5, n_gpu=1), "heft_rt", seed,
             batch=(av, "api", JETSON_RATE_MBPS)),
    ]


def _dag_batch(seed: int) -> list[Cell]:
    from repro.platforms import zcu102
    from repro.workload import radar_comms_workload

    rc = radar_comms_workload()
    platform = zcu102(n_cpu=3, n_fft=1)
    return [
        Cell("dag-etf-2000", "run", platform, "etf", seed, batch=(rc, "dag", 2000.0)),
        Cell("dag-heft_rt-2000", "run", platform, "heft_rt", seed, batch=(rc, "dag", 2000.0)),
        Cell("fig5-dag-rr-200", "run", platform, "rr", seed, batch=(rc, "dag", 200.0)),
    ]


def _kernels_on(seed: int) -> list[Cell]:
    from repro.apps import PulseDoppler, WifiTx
    from repro.platforms import zcu102
    from repro.workload import radar_comms_workload

    pd, tx = _recording(PulseDoppler)(), _recording(WifiTx)()
    return [
        Cell("api-etf-2000-kernels", "run", zcu102(n_cpu=3, n_fft=1), "etf", seed,
             execute=True, batch=(radar_comms_workload(pd=pd, tx=tx), "api", 2000.0),
             recorded_apps=(pd, tx)),
    ]


def _serve_observed(seed: int) -> list[Cell]:
    from repro.apps import PulseDoppler, WifiTx
    from repro.faults.model import FaultConfig, FaultKind
    from repro.platforms import zcu102
    from repro.runtime import RuntimeConfig
    from repro.serve import ArrivalSpec, ServeConfig, TenantSpec
    from repro.telemetry import TelemetryConfig

    serve = ServeConfig(
        tenants=(
            TenantSpec(
                "tenant",
                ArrivalSpec.make("poisson", rate=60.0),
                apps=(PulseDoppler(batch=16), WifiTx(n_packets=20, batch=4)),
            ),
        ),
        duration=2.0,
        scheduler="heft_rt",
    )
    config = RuntimeConfig(
        scheduler="heft_rt",
        execute_kernels=False,
        audit=True,
        faults=FaultConfig(
            rate=2.0, seed=SERVE_FAULT_SEED,
            kinds=(FaultKind.TRANSIENT, FaultKind.HANG),
        ),
        telemetry=TelemetryConfig(sample_interval_s=0.01),
    )
    # three windows per pass, on the repository's trial-seed grid, so one
    # pass averages over arrival patterns instead of timing a single draw
    return [
        Cell(f"serve-poisson60-faults-telemetry-audit-{t}", "serve",
             zcu102(n_cpu=3, n_fft=1), "heft_rt", seed + 1000 * t,
             serve=serve, config=config)
        for t in range(SERVE_WINDOWS)
    ]


#: workload name -> cell-list factory ``(seed) -> list[Cell]``
WORKLOADS: dict[str, Callable[[int], list[Cell]]] = {
    "api-batch": _api_batch,
    "dag-batch": _dag_batch,
    "kernels-on": _kernels_on,
    "serve-observed": _serve_observed,
}


def build_workload(name: str, seed: int) -> list[Cell]:
    """The cell list of workload *name* for *seed*."""
    try:
        factory = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None
    return factory(seed)
