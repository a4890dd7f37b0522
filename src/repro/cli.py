"""Command-line interface: run workloads and regenerate paper figures.

The real CEDR ships command-line tools (``sub_dag`` and friends) that
submit applications to the daemon over IPC.  This module is the
reproduction's equivalent front end::

    python -m repro list
    python -m repro run --platform zcu102 --fft 2 --apps PD:3,TX:3 \\
        --mode api --scheduler heft_rt --rate 200
    python -m repro run --platform jetson --apps LD:1,PD:2 --trace out.json
    python -m repro run --apps PD:2 --metrics-out out/metrics --metrics-interval 0.01
    python -m repro scenario run examples/scenarios/radar_zcu102.toml
    python -m repro figure fig5
    python -m repro figure fig10a --trials 2
    python -m repro telemetry

``run`` prints the paper's three metrics for the run (plus optional energy
and a Chrome trace dump); ``scenario`` validates/lists/executes declarative
TOML/JSON experiment documents; ``figure`` prints the regenerated series
tables of the requested evaluation figure; ``telemetry`` prints the metric
catalog the telemetry subsystem exports (names, types, bucket ladders).

Every extension axis the CLI exposes - platforms, applications, workload
presets, schedulers, arrival processes, fault kinds, figures - is driven
by the corresponding :mod:`repro.registry` registry, so argparse choices,
``repro list`` output, and dispatch are all one table, and third-party
plugins appear everywhere at once.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.apps import APPS, available_apps
from repro.metrics import RunResult
from repro.platforms import (
    PLATFORMS,
    available_platforms,
    estimate_energy,
    make_platform,
)
from repro.runtime import CedrRuntime, RuntimeConfig
from repro.runtime.trace import write_chrome_trace
from repro.sched import available_schedulers
from repro.serve.admission import ADMISSION_POLICIES
from repro.workload import WorkloadEntry, WorkloadSpec

__all__ = ["main", "build_parser"]

MODES = ("dag", "api")

#: platform parameters the oracle sweeps use (match the figure configs)
AUDIT_PLATFORM_PARAMS = {
    "zcu102": (("cpu", 3), ("fft", 1)),
    "jetson": (("cpu", 3),),
    "zcu102-biglittle": (("cpu", 3), ("fft", 1), ("little", 4), ("mmult", 0)),
}

# --------------------------------------------------------------------- #
# shared option groups (one definition, every subcommand)
# --------------------------------------------------------------------- #


def _add_platform_options(parser, *, params: bool = True,
                          help: str = "") -> None:
    """The ``--platform`` family shared by run/serve/audit."""
    parser.add_argument("--platform", choices=available_platforms(),
                        default="zcu102", help=help or None)
    if not params:
        return
    parser.add_argument("--cpu", type=int, default=None,
                        help="CPU worker PEs (platform default if omitted)")
    parser.add_argument("--fft", type=int, default=1,
                        help="FFT accelerators (ZCU102)")
    parser.add_argument("--mmult", type=int, default=0,
                        help="MMULT accelerators (ZCU102)")
    parser.add_argument("--little", type=int, default=4,
                        help="LITTLE cores (zcu102-biglittle only)")
    parser.add_argument("--gpu", type=int, default=None,
                        help="GPU accelerators (jetson only)")


def _add_mode_option(parser) -> None:
    parser.add_argument("--mode", choices=MODES, default="api")


def _add_admission_options(parser, *, default: str = "shed",
                           caps: bool = True) -> None:
    """The admission-control block shared by serve and ``audit diff``."""
    parser.add_argument("--admission", choices=ADMISSION_POLICIES,
                        default=default,
                        help="policy for arrivals the system cannot take")
    parser.add_argument("--slo-ms", type=float, default=50.0,
                        help="per-tenant response-time objective, ms")
    if not caps:
        return
    parser.add_argument("--max-in-system", type=int, default=32,
                        help="admitted-but-unfinished cap across tenants")
    parser.add_argument("--queue-cap", type=int, default=16,
                        help="per-tenant hold-queue bound (block policy)")
    parser.add_argument("--quota-rate", type=float, default=0.0,
                        help="per-tenant token-bucket refill, arrivals/s "
                             "(0 = unlimited)")


def _add_cache_options(parser) -> None:
    """The sweep-cache block shared by figure and ``scenario run``."""
    cache = parser.add_mutually_exclusive_group()
    cache.add_argument("--cache", action="store_true",
                       help="reuse previously simulated sweep cells from the "
                            "content-addressed cache (default dir "
                            ".repro-cache/; see also $REPRO_CACHE)")
    cache.add_argument("--no-cache", action="store_true",
                       help="force caching off, overriding $REPRO_CACHE")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="cache directory (implies --cache)")


def build_parser() -> argparse.ArgumentParser:
    from repro.experiments import available_figures

    parser = argparse.ArgumentParser(
        prog="repro",
        description="CEDR-API reproduction: run emulated DSSoC workloads "
                    "and regenerate the paper's figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list every registered plugin axis "
                                "(platforms, apps, schedulers, ...)")

    run = sub.add_parser("run", help="run a workload and print its metrics")
    _add_platform_options(run)
    run.add_argument("--apps", default="PD:2,TX:2",
                     help="comma list of NAME:COUNT (apps: %s)"
                          % ",".join(available_apps()))
    _add_mode_option(run)
    run.add_argument("--scheduler", default="heft_rt")
    run.add_argument("--rate", type=float, default=200.0, help="injection rate, Mbps")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--timing-only", action="store_true",
                     help="skip functional kernel execution")
    run.add_argument("--energy", action="store_true", help="print an energy estimate")
    run.add_argument("--trace", metavar="PATH", default=None,
                     help="write a Chrome trace (chrome://tracing) to PATH")
    run.add_argument("--gantt", action="store_true",
                     help="print an ASCII Gantt chart of the schedule")
    run.add_argument("--verbose", action="store_true",
                     help="also print simulator perf counters "
                          "(events processed per wall second)")
    run.add_argument("--perf-json", metavar="PATH", default=None,
                     help="dump the runtime's PerfCounters snapshot "
                          "(incl. fault/retry counters) as JSON to PATH")
    run.add_argument("--fault-rate", type=float, default=0.0,
                     help="per-PE fault rate, faults per simulated second "
                          "(0 disables fault injection)")
    run.add_argument("--fault-seed", type=int, default=None,
                     help="fault-schedule seed (default: derive from --seed)")
    run.add_argument("--fault-kinds", default="transient,hang,slowdown",
                     help="comma list of fault kinds to inject "
                          "(transient,hang,failstop,slowdown)")
    run.add_argument("--max-retries", type=int, default=3,
                     help="per-task retry budget before the app is failed")
    run.add_argument("--metrics-out", metavar="BASE", default=None,
                     help="enable telemetry and write BASE.json + BASE.prom "
                          "(Prometheus exposition format) at shutdown")
    run.add_argument("--metrics-interval", type=float, default=0.0,
                     help="periodic telemetry snapshot interval, simulated "
                          "seconds (0 = final snapshot only; implies "
                          "telemetry collection even without --metrics-out)")
    run.add_argument("--audit", action="store_true",
                     help="enable the online schedule auditor: every "
                          "scheduling round and task completion is checked "
                          "against the invariant catalog as it happens, and "
                          "the full catalog replays at shutdown")
    run.add_argument("--logbook", metavar="PATH", default=None,
                     help="write the run's logbook dump (schema-versioned "
                          "JSON) to PATH; audit it later with "
                          "'repro audit PATH'")

    serve = sub.add_parser(
        "serve",
        help="run the open-stream service mode for a fixed duration",
        description="Promote the runtime into a service: seeded arrival "
                    "streams feed an admission controller that submits "
                    "applications to the live daemon for --duration "
                    "simulated seconds, then drains gracefully and prints "
                    "the per-tenant SLO ledger.",
    )
    _add_platform_options(serve)
    serve.add_argument("--apps", default="PD:1,TX:1",
                       help="app mix cycled round-robin per tenant, comma "
                            "list of NAME:COUNT (apps: %s)"
                            % ",".join(available_apps()))
    serve.add_argument("--duration", type=float, default=0.5,
                       help="service window, simulated seconds")
    serve.add_argument("--arrival", default="poisson:rate=100",
                       help="arrival process per tenant, KIND:k=v,... "
                            "(kinds: poisson, periodic, bursty, diurnal, "
                            "trace); each tenant gets an independent stream "
                            "of this process")
    serve.add_argument("--tenants", type=int, default=1,
                       help="number of identically configured tenants")
    _add_admission_options(serve, default="shed")
    _add_mode_option(serve)
    serve.add_argument("--scheduler", default="heft_rt")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--audit", action="store_true",
                       help="run with the online schedule auditor enabled")

    audit = sub.add_parser(
        "audit",
        help="audit a saved logbook, or diff paired sweep configurations",
        description="With a logbook path: replay the invariant catalog "
                    "over a saved run ('repro audit out/logbook.json'). "
                    "With the literal target 'diff': run one sweep under "
                    "paired configurations (serial vs --jobs, cached vs "
                    "uncached, scalar vs cost-table estimates, telemetry "
                    "on/off, audit on/off, and optionally flag-built "
                    "vs declarative scenario) and require bit-identical "
                    "results.",
    )
    audit.add_argument("target",
                       help="path to a logbook JSON dump, or 'diff' to run "
                            "the differential oracle")
    _add_platform_options(audit, params=False,
                          help="diff only: platform for the oracle sweep")
    audit.add_argument("--apps", default="PD:1,TX:1",
                       help="diff only: workload, comma list of NAME:COUNT")
    _add_mode_option(audit)
    audit.add_argument("--scheduler", default="etf")
    audit.add_argument("--rates", type=int, default=4,
                       help="diff only: injection-rate grid points")
    audit.add_argument("--trials", type=int, default=2)
    audit.add_argument("--seed", type=int, default=0)
    audit.add_argument("--jobs", type=int, default=2,
                       help="diff only: worker processes for the --jobs "
                            "pairing")
    audit.add_argument("--variants", default=None,
                       help="diff only: comma list of pairings to run "
                            "(default: all of jobs,cache,scalar,telemetry,"
                            "audit)")
    audit.add_argument("--execute", action="store_true",
                       help="diff only: execute kernels functionally "
                            "instead of timing-only")
    audit.add_argument("--scenario", action="store_true",
                       help="diff only: add the 'scenario' pairing - build "
                            "the equivalent declarative ScenarioSpec and "
                            "require it to reproduce the flag-built sweep "
                            "bit-for-bit")
    audit.add_argument("--serve", action="store_true",
                       help="diff only: run the serve-mode oracle instead "
                            "of the batch one (pairings: "
                            "jobs,cache,scalar,audit)")
    audit.add_argument("--duration", type=float, default=0.2,
                       help="diff --serve only: service window, simulated "
                            "seconds")
    audit.add_argument("--arrival", default="poisson:rate=150",
                       help="diff --serve only: arrival process, "
                            "KIND:k=v,...")
    _add_admission_options(audit, default="block", caps=False)

    tel = sub.add_parser(
        "telemetry",
        help="print the telemetry metric catalog (names, types, buckets)",
    )
    tel.add_argument("--json", action="store_true",
                     help="emit the catalog as JSON instead of a table")

    scenario = sub.add_parser(
        "scenario",
        help="validate, list, or run declarative scenario specs",
        description="Scenario documents (.toml/.json) name platform + "
                    "workload + scheduler + faults + admission + telemetry "
                    "+ seeds declaratively; 'run' executes one through the "
                    "exact same code paths as the flag-driven commands "
                    "(bit-identical, per 'repro audit diff --scenario').",
    )
    scn_sub = scenario.add_subparsers(dest="scenario_command", required=True)
    scn_run = scn_sub.add_parser("run", help="execute one scenario document")
    scn_run.add_argument("spec", help="path to a .toml/.json scenario document")
    scn_run.add_argument("--trials", type=int, default=None,
                         help="override the spec's trial count")
    scn_run.add_argument("--seed", type=int, default=None,
                         help="override the spec's base seed")
    scn_run.add_argument("--jobs", type=int, default=None,
                         help="worker processes for the trial sweep "
                              "(-1 = all cores; default: $REPRO_JOBS or "
                              "serial)")
    scn_run.add_argument("--audit", action="store_true",
                         help="force the online schedule auditor on, "
                              "overriding the spec's [engine] audit flag")
    _add_cache_options(scn_run)
    scn_validate = scn_sub.add_parser(
        "validate", help="validate scenario documents without running them")
    scn_validate.add_argument("specs", nargs="+",
                              help="scenario document paths")
    scn_list = scn_sub.add_parser(
        "list", help="list scenario documents with digests")
    scn_list.add_argument("paths", nargs="*", default=["examples/scenarios"],
                          help="spec files or directories to scan "
                               "(default: examples/scenarios)")

    corpus = sub.add_parser(
        "corpus",
        help="adversarial scenario corpus: generate, parity-run, report, "
             "minimize",
        description="A seeded generator emits random-but-valid scenario "
                    "documents (app mixes, PE pools, arrival processes, "
                    "fault storms); 'run' executes every registered "
                    "scheduler over every spec with the online auditor "
                    "armed and reports dominance/violation tables; failing "
                    "cells are shrunk by a delta-debugging minimizer into "
                    "counterexample artifacts.",
    )
    cor_sub = corpus.add_subparsers(dest="corpus_command", required=True)

    def _add_generate_options(p) -> None:
        p.add_argument("--n", type=int, default=None,
                       help="corpus size (default: $REPRO_CORPUS_N or 8)")
        p.add_argument("--seed", type=int, default=0,
                       help="corpus seed - with the config, the whole "
                            "identity of the corpus")
        p.add_argument("--kind", choices=("mixed", "run", "serve"),
                       default="mixed",
                       help="restrict generated spec kinds (default mixed)")
        p.add_argument("--platforms", default=None,
                       help="comma-separated platform subset "
                            "(default: all registered)")

    cor_gen = cor_sub.add_parser(
        "generate", help="emit corpus spec documents (JSON)")
    _add_generate_options(cor_gen)
    cor_gen.add_argument("--out", default=None,
                         help="directory for one .json document per spec "
                              "(default: print digests only)")

    cor_run = cor_sub.add_parser(
        "run", help="run every scheduler over a corpus, auditor armed")
    _add_generate_options(cor_run)
    cor_run.add_argument("--specs", default=None,
                         help="directory (or file) of scenario documents to "
                              "use instead of generating")
    cor_run.add_argument("--schedulers", default=None,
                         help="comma-separated scheduler subset "
                              "(default: all registered)")
    cor_run.add_argument("--jobs", type=int, default=None,
                         help="worker processes, one corpus cell each "
                              "(-1 = all cores; default: $REPRO_JOBS or "
                              "serial)")
    cor_run.add_argument("--report", default="corpus-report.json",
                         help="machine-readable report path")
    cor_run.add_argument("--artifacts", default="corpus-artifacts",
                         help="directory for minimized counterexamples")
    cor_run.add_argument("--anomaly-factor", type=float, default=5.0,
                         help="flag a scheduler doing this many times worse "
                              "than the cell's best (default 5)")
    cor_run.add_argument("--no-minimize", action="store_true",
                         help="skip counterexample minimization of failing "
                              "cells")
    cor_run.add_argument("--minimize-budget", type=int, default=120,
                         help="max probes per minimized counterexample")

    cor_rep = cor_sub.add_parser(
        "report", help="summarize a saved corpus report")
    cor_rep.add_argument("report", help="path to a corpus-report.json")
    cor_rep.add_argument("--json", action="store_true",
                         help="re-emit the normalized JSON instead of the "
                              "summary table")

    cor_min = cor_sub.add_parser(
        "minimize", help="shrink one failing spec to a counterexample")
    cor_min.add_argument("spec", help="path to a .toml/.json scenario "
                                      "document that fails under audit")
    cor_min.add_argument("--scheduler", default=None,
                         help="scheduler to fail under (default: the "
                              "spec's own)")
    cor_min.add_argument("--artifacts", default="corpus-artifacts",
                         help="directory for the minimized counterexample")
    cor_min.add_argument("--budget", type=int, default=200,
                         help="max probes (default 200)")

    fig = sub.add_parser("figure", help="regenerate one evaluation figure")
    fig.add_argument("id", choices=available_figures())
    fig.add_argument("--rates", type=int, default=6, help="injection-rate grid points")
    fig.add_argument("--trials", type=int, default=1)
    fig.add_argument("--seed", type=int, default=0)
    fig.add_argument("--jobs", type=int, default=None,
                     help="worker processes for the sweep (-1 = all cores; "
                          "default: $REPRO_JOBS or serial)")
    fig.add_argument("--fault-seed", type=int, default=None,
                     help="resilience figure only: pin one fault schedule "
                          "across trials (default: derive from trial seeds)")
    fig.add_argument("--duration", type=float, default=None,
                     help="saturation figure only: service window per cell, "
                          "simulated seconds")
    _add_cache_options(fig)
    fig.add_argument("--audit", action="store_true",
                     help="run every sweep cell with the online schedule "
                          "auditor on (sets $REPRO_AUDIT so --jobs worker "
                          "processes inherit it); any invariant violation "
                          "fails the figure")
    return parser


def _parse_apps(spec: str) -> list[tuple[str, int]]:
    out = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, count = part.partition(":")
        name = name.upper()
        if name not in APPS:
            raise SystemExit(
                f"unknown application {name!r}; options: {sorted(APPS.names())}"
            )
        try:
            n = int(count) if count else 1
        except ValueError:
            raise SystemExit(f"bad count in {part!r}") from None
        if n < 1:
            raise SystemExit(f"count must be >= 1 in {part!r}")
        out.append((name, n))
    if not out:
        raise SystemExit("empty --apps specification")
    return out


def _make_platform(args) -> object:
    """Build the platform from the shared ``--platform`` option group.

    Only the flags the registered platform actually accepts are forwarded
    (``--fft`` exists for every subcommand but only reaches platforms that
    declare an ``fft`` parameter), so plugin platforms work with the stock
    option group.
    """
    entry = PLATFORMS.get(args.platform)
    flags = {
        "cpu": args.cpu,
        "fft": args.fft,
        "mmult": args.mmult,
        "little": args.little,
        "gpu": getattr(args, "gpu", None),
    }
    params = {
        k: v for k, v in flags.items() if k in entry.params and v is not None
    }
    try:
        return entry.build_config(**params)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _cmd_list() -> int:
    from repro.experiments import available_figures
    from repro.faults import available_fault_kinds
    from repro.serve import available_arrivals
    from repro.workload import available_workloads

    print("platforms  :", ", ".join(available_platforms()))
    print("apps       :", ", ".join(available_apps()))
    print("workloads  :", ", ".join(available_workloads()))
    print("schedulers :", ", ".join(available_schedulers()))
    print("arrivals   :", ", ".join(available_arrivals()))
    print("fault kinds:", ", ".join(available_fault_kinds()))
    print("admission  :", ", ".join(ADMISSION_POLICIES))
    print("figures    :", ", ".join(available_figures()))
    return 0


def _cmd_run(args) -> int:
    entries = tuple(
        WorkloadEntry(APPS.get(name).factory(), count)
        for name, count in _parse_apps(args.apps)
    )
    workload = WorkloadSpec(name="cli", entries=entries)
    platform_cfg = _make_platform(args)
    platform = platform_cfg.build(seed=args.seed)
    faults = None
    if args.fault_rate > 0.0:
        from repro.faults import FaultConfig

        try:
            faults = FaultConfig(
                rate=args.fault_rate,
                seed=args.fault_seed,
                kinds=FaultConfig.parse_kinds(args.fault_kinds),
                max_retries=args.max_retries,
            )
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
    telemetry_cfg = None
    if args.metrics_out or args.metrics_interval > 0.0:
        from repro.telemetry import TelemetryConfig

        try:
            telemetry_cfg = TelemetryConfig(sample_interval_s=args.metrics_interval)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
    runtime = CedrRuntime(
        platform,
        RuntimeConfig(
            scheduler=args.scheduler,
            execute_kernels=not args.timing_only,
            faults=faults,
            telemetry=telemetry_cfg,
            audit=args.audit,
        ),
    )
    runtime.start()
    for app, arrival in workload.instantiate(args.mode, args.rate, args.seed):
        runtime.submit(app, at=arrival)
    runtime.seal()
    runtime.run()
    result = RunResult.from_runtime(runtime)

    print(f"platform  : {platform_cfg.name}  mode={args.mode}  "
          f"scheduler={args.scheduler}  rate={args.rate:g} Mbps")
    print(f"apps      : {result.n_apps} completed, {result.tasks_completed} tasks, "
          f"makespan {result.makespan * 1e3:.2f} ms")
    print(f"exec time : {result.mean_exec_time * 1e3:.2f} ms/app  "
          f"(per app type: "
          + ", ".join(f"{k} {result.mean_exec_time_of(k)*1e3:.2f}"
                      for k in sorted(result.exec_times_by_app)) + ")")
    print(f"overheads : runtime {result.runtime_overhead_per_app * 1e3:.3f} ms/app, "
          f"scheduling {result.sched_overhead_per_app * 1e3:.3f} ms/app "
          f"({result.sched_rounds} rounds, ready depth mean "
          f"{result.ready_depth_mean:.1f} / max {result.ready_depth_max})")
    print(f"placement : {result.pe_task_histogram}")
    if faults is not None:
        print(f"faults    : {result.faults_injected} injected, "
              f"{result.task_failures} task failures, {result.retries} retries, "
              f"{result.tasks_lost} tasks lost, {result.n_failed} apps failed "
              f"(goodput {result.goodput:.2f}, MTTR "
              f"{result.mean_time_to_recovery * 1e3:.2f} ms)")
    if args.audit:
        # the run drained without the online auditor raising; count the
        # checks it performed so "nothing fired" is distinguishable from
        # "nothing ran"
        print(f"audit     : ok ({runtime.auditor.checks} online checks, "
              f"full catalog verified at shutdown)")
    if args.logbook:
        path = runtime.logbook.save(args.logbook)
        print(f"logbook   : wrote {path} (audit offline with "
              f"'repro audit {path}')")
    if args.metrics_out:
        from repro.telemetry import write_metrics

        json_path, prom_path = write_metrics(args.metrics_out, runtime.telemetry)
        print(f"metrics   : wrote {json_path} and {prom_path}")
    if args.perf_json:
        import json

        with open(args.perf_json, "w", encoding="utf-8") as fh:
            json.dump(runtime.counters.snapshot(), fh, indent=2, sort_keys=True)
        print(f"perf json : wrote {args.perf_json}")
    if args.verbose:
        counters = runtime.counters
        print(f"perf      : {runtime.engine.events_processed} engine events in "
              f"{counters.wall_seconds * 1e3:.1f} ms wall "
              f"({counters.events_per_wall_sec:,.0f} events/s)")
    if args.energy:
        energy = estimate_energy(platform)
        print(f"energy    : {energy.total_j:.2f} J "
              f"(cpu {energy.cpu_j:.2f} + little {energy.little_j:.2f} + "
              f"accel {energy.accel_j:.2f} + static {energy.static_j:.2f}), "
              f"avg {energy.average_power_w:.2f} W")
    if args.trace:
        path = write_chrome_trace(args.trace, runtime)
        print(f"trace     : wrote {path} (open in chrome://tracing or Perfetto)")
    if args.gantt:
        from repro.metrics import render_gantt

        print()
        print(render_gantt(runtime))
    return 0


def _serve_config_from_args(args):
    """Build the ServeConfig shared by ``repro serve`` and ``audit --serve``."""
    from repro.serve import AdmissionConfig, ArrivalSpec, ServeConfig, TenantSpec

    try:
        arrival = ArrivalSpec.parse(args.arrival)
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"bad --arrival: {exc}") from None
    apps = tuple(
        APPS.get(name).factory()
        for name, count in _parse_apps(args.apps)
        for _ in range(count)
    )
    n_tenants = getattr(args, "tenants", 1)
    if n_tenants < 1:
        raise SystemExit(f"--tenants must be >= 1, got {n_tenants}")
    admission = AdmissionConfig(
        policy=getattr(args, "admission", "shed"),
        max_in_system=getattr(args, "max_in_system", 32),
        queue_cap=getattr(args, "queue_cap", 16),
        quota_rate=getattr(args, "quota_rate", 0.0),
    )
    try:
        return ServeConfig(
            tenants=tuple(
                TenantSpec(
                    f"tenant{i}" if n_tenants > 1 else "tenant",
                    arrival, apps=apps, slo_s=args.slo_ms / 1e3,
                )
                for i in range(n_tenants)
            ),
            duration=args.duration,
            admission=admission,
            mode=getattr(args, "mode", "api"),
            scheduler=getattr(args, "scheduler", "heft_rt"),
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _cmd_serve(args) -> int:
    """Run one open-stream service window and print the SLO ledger."""
    from repro.serve import serve_once

    serve = _serve_config_from_args(args)
    config = RuntimeConfig(
        scheduler=args.scheduler,
        execute_kernels=False,
        audit=args.audit,
    )
    result = serve_once(_make_platform(args), serve, seed=args.seed, config=config)

    print(f"platform  : {args.platform}  mode={args.mode}  "
          f"scheduler={args.scheduler}  window {serve.duration:g} s")
    print(f"arrivals  : {args.arrival} x {len(serve.tenants)} tenant(s), "
          f"{serve.offered_rate:g} apps/s nominal offered load")
    print(f"admission : {serve.admission.policy}, in-system cap "
          f"{serve.admission.max_in_system}, queue cap "
          f"{serve.admission.queue_cap}")
    print(f"service   : {result.offered} offered, {result.admitted} admitted, "
          f"{result.shed} shed, {result.degraded} degraded, "
          f"{result.completed} completed "
          f"({result.throughput:.1f} apps/s, {result.late_arrivals} late)")
    print(f"slo       : p99 response {result.p99_response_s * 1e3:.2f} ms, "
          f"{result.slo_violations} violations, "
          f"goodput {result.goodput:.1f} apps/s within "
          f"{args.slo_ms:g} ms")
    print(f"drain     : graceful (every admitted app completed; "
          f"makespan {result.run.makespan * 1e3:.2f} ms, in-system "
          f"high-water {result.in_system_hwm})")
    for t in result.tenants:
        print(f"  {t.name:<10} offered {t.offered:>4}  admitted "
              f"{t.admitted:>4}  shed {t.shed:>4}  held {t.held:>4}  "
              f"completed {t.completed:>4}  p99 "
              f"{t.p99_response_s * 1e3:8.2f} ms  violations "
              f"{t.slo_violations:>4}")
    return 0


def _cmd_telemetry(args) -> int:
    """Print the metric catalog the telemetry subsystem exports."""
    from repro.telemetry import CedrTelemetry, TelemetryConfig

    telemetry = CedrTelemetry(TelemetryConfig(), pe_names=())
    families = telemetry.registry.families()
    if args.json:
        import json

        catalog = [
            {
                "name": fam.name,
                "type": fam.kind,
                "labels": list(fam.label_names),
                "help": fam.help,
                **({"buckets": list(fam.bounds)} if fam.bounds is not None else {}),
            }
            for fam in families
        ]
        print(json.dumps(catalog, indent=2))
        return 0
    width = max(len(fam.name) for fam in families)
    for fam in families:
        labels = "{%s}" % ",".join(fam.label_names) if fam.label_names else ""
        print(f"{fam.name:<{width}}  {fam.kind:<9}  {labels:<11}  {fam.help}")
        if fam.bounds is not None:
            bounds = ", ".join(f"{b:g}" for b in fam.bounds)
            print(f"{'':<{width}}  {'':<9}  {'':<11}  buckets: {bounds}, +Inf")
    return 0


def _cmd_audit(args) -> int:
    """Dispatch ``repro audit <logbook.json>`` / ``repro audit diff``."""
    if args.target == "diff":
        return _cmd_audit_diff(args)
    from repro.audit import audit_logbook
    from repro.runtime import Logbook

    try:
        logbook = Logbook.load(args.target)
    except FileNotFoundError:
        raise SystemExit(f"no logbook at {args.target!r}") from None
    except ValueError as exc:
        raise SystemExit(f"cannot load {args.target!r}: {exc}") from None
    report = audit_logbook(logbook)
    print(report.summary())
    for violation in report.violations:
        print(f"  - {violation}")
    return 0 if report.ok else 1


def _audit_scenario_template(args):
    """The declarative twin of the flag-built oracle sweep.

    Field-for-field mirror of what ``_cmd_audit_diff`` /
    ``_cmd_audit_diff_serve`` build from flags, as a
    :class:`~repro.scenario.ScenarioSpec` - the oracle's ``scenario``
    variant then proves the two routes bit-identical.
    """
    from repro.scenario import AppCount, ScenarioSpec, ServeSection

    apps = tuple(AppCount(name, count) for name, count in _parse_apps(args.apps))
    common = dict(
        name="audit-diff",
        seed=args.seed,
        trials=args.trials,
        platform=args.platform,
        platform_params=AUDIT_PLATFORM_PARAMS[args.platform],
        scheduler=args.scheduler,
        mode=args.mode,
    )
    if args.serve:
        return ScenarioSpec(
            kind="serve",
            serve=ServeSection(
                duration=args.duration,
                arrival=args.arrival,
                tenants=1,
                slo_ms=args.slo_ms,
                apps=apps,
                policy=args.admission,
            ),
            **common,
        )
    return ScenarioSpec(
        kind="run",
        workload_name="audit-diff",
        apps=apps,
        execute=args.execute,
        **common,
    )


def _cmd_audit_diff(args) -> int:
    """Run the differential oracle and print its per-variant verdicts."""
    from repro.audit import DEFAULT_VARIANTS, SERVE_VARIANTS, diff_run
    from repro.workload import paper_injection_rates

    available = SERVE_VARIANTS if args.serve else DEFAULT_VARIANTS
    if args.scenario:
        available = (*available, "scenario")
    if args.variants is None:
        variants = available
    else:
        variants = tuple(
            v.strip() for v in args.variants.split(",") if v.strip()
        )
        unknown = set(variants) - set(available)
        if unknown:
            raise SystemExit(
                f"unknown variant(s) {sorted(unknown)}; "
                f"options: {','.join(available)}"
            )
        if args.scenario and "scenario" not in variants:
            variants = (*variants, "scenario")
    scenario = _audit_scenario_template(args) if args.scenario else None
    if args.serve:
        return _cmd_audit_diff_serve(args, variants, scenario)
    entries = tuple(
        WorkloadEntry(APPS.get(name).factory(), count)
        for name, count in _parse_apps(args.apps)
    )
    workload = WorkloadSpec(name="audit-diff", entries=entries)
    report = diff_run(
        _make_audit_platform(args.platform),
        workload,
        args.mode,
        list(paper_injection_rates(n=args.rates)),
        args.scheduler,
        trials=args.trials,
        base_seed=args.seed,
        execute=args.execute,
        jobs=args.jobs,
        variants=variants,
        scenario=scenario,
    )
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_audit_diff_serve(args, variants, scenario=None) -> int:
    """The serve-mode leg of ``repro audit diff`` (``--serve``)."""
    from repro.audit import diff_serve

    serve = _serve_config_from_args(args)
    report = diff_serve(
        _make_audit_platform(args.platform),
        serve,
        trials=args.trials,
        base_seed=args.seed,
        jobs=args.jobs,
        variants=variants,
        scenario=scenario,
    )
    print(report.summary())
    return 0 if report.ok else 1


def _make_audit_platform(name: str):
    """Platform defaults for the oracle sweep (match the figure configs)."""
    return make_platform(name, **dict(AUDIT_PLATFORM_PARAMS[name]))


def _scenario_paths(raw_paths) -> list:
    """Expand ``scenario list`` arguments into spec files, sorted."""
    from pathlib import Path

    out = []
    for raw in raw_paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(sorted(p for p in path.iterdir()
                              if p.suffix.lower() in (".toml", ".json")))
        else:
            out.append(path)
    return out


def _cmd_scenario_validate(args) -> int:
    from repro.scenario import ScenarioError, load_scenario

    failed = 0
    for raw in args.specs:
        try:
            spec = load_scenario(raw)
        except ScenarioError as exc:
            print(f"FAIL {raw}: {exc}")
            failed += 1
            continue
        print(f"ok   {raw}: {spec.describe()}  [digest {spec.digest()[:12]}]")
    return 1 if failed else 0


def _cmd_scenario_list(args) -> int:
    from repro.scenario import ScenarioError, load_scenario

    paths = _scenario_paths(args.paths)
    if not paths:
        print(f"no scenario documents found under: {', '.join(args.paths)}")
        return 1
    rc = 0
    for path in paths:
        try:
            spec = load_scenario(path)
        except ScenarioError as exc:
            print(f"{path}: INVALID ({exc})")
            rc = 1
            continue
        print(f"{path}: {spec.describe()}  [digest {spec.digest()[:12]}]")
    return rc


def _cmd_scenario_run(args) -> int:
    import dataclasses

    from repro.experiments import SweepCache, resolve_cache
    from repro.scenario import ScenarioError, load_scenario, run_scenario

    try:
        spec = load_scenario(args.spec)
    except ScenarioError as exc:
        raise SystemExit(str(exc)) from None
    if args.audit:
        spec = dataclasses.replace(spec, audit=True)
    if args.no_cache:
        if args.cache_dir is not None:
            raise SystemExit("--cache-dir conflicts with --no-cache")
        cache = False
    elif args.cache_dir is not None:
        cache = SweepCache(args.cache_dir)
    elif args.cache:
        cache = SweepCache()
    else:
        cache = resolve_cache(None)
    trials = spec.trials if args.trials is None else args.trials
    base_seed = spec.seed if args.seed is None else args.seed
    results = run_scenario(
        spec, trials=trials, base_seed=base_seed, n_jobs=args.jobs, cache=cache
    )
    n = len(results)
    print(f"scenario  : {spec.name} [{spec.kind}]  digest {spec.digest()[:12]}"
          f"  ({args.spec})")
    print(f"platform  : {spec.platform}  mode={spec.mode}  "
          f"scheduler={spec.scheduler}")
    print(f"trials    : {n} (base seed {base_seed}"
          + (", audited" if spec.audit else "") + ")")

    def mean(xs):
        return sum(xs) / n

    if spec.kind == "serve":
        print(f"service   : {spec.serve.arrival} x {spec.serve.tenants} "
              f"tenant(s), {spec.serve.duration:g} s window, "
              f"admission {spec.serve.policy}")
        print(f"per trial : offered {mean([r.offered for r in results]):.1f}, "
              f"admitted {mean([r.admitted for r in results]):.1f}, "
              f"shed {mean([r.shed for r in results]):.1f}, "
              f"completed {mean([r.completed for r in results]):.1f}")
        print(f"slo       : p99 response "
              f"{mean([r.p99_response_s for r in results]) * 1e3:.2f} ms, "
              f"violations {mean([r.slo_violations for r in results]):.1f}, "
              f"goodput {mean([r.goodput for r in results]):.1f} apps/s "
              f"within {spec.serve.slo_ms:g} ms")
    else:
        print(f"workload  : {spec.preset or ','.join(f'{a.name}:{a.count}' for a in spec.apps)}"
              f" @ {spec.rate_mbps:g} Mbps")
        print(f"apps      : {results[0].n_apps} per trial, makespan mean "
              f"{mean([r.makespan for r in results]) * 1e3:.2f} ms")
        print(f"exec time : {mean([r.mean_exec_time for r in results]) * 1e3:.2f}"
              f" ms/app")
        print(f"overheads : runtime "
              f"{mean([r.runtime_overhead_per_app for r in results]) * 1e3:.3f}"
              f" ms/app, scheduling "
              f"{mean([r.sched_overhead_per_app for r in results]) * 1e3:.3f}"
              f" ms/app")
    if cache:
        print(f"cache     : {cache.stats.summary()} "
              f"({cache.stats.stores} stored in {cache.root})")
    return 0


def _cmd_scenario(args) -> int:
    if args.scenario_command == "run":
        return _cmd_scenario_run(args)
    if args.scenario_command == "validate":
        return _cmd_scenario_validate(args)
    if args.scenario_command == "list":
        return _cmd_scenario_list(args)
    raise AssertionError(
        f"unhandled scenario command {args.scenario_command!r}"
    )  # pragma: no cover


CORPUS_N_ENV = "REPRO_CORPUS_N"


def _corpus_config(args):
    """Translate the shared generate options into a CorpusConfig."""
    import os

    from repro.corpus import CorpusConfig

    if args.n is not None:
        n = args.n
    else:
        raw = os.environ.get(CORPUS_N_ENV, "").strip()
        try:
            n = int(raw) if raw else 8
        except ValueError:
            raise SystemExit(
                f"{CORPUS_N_ENV} must be an integer corpus size, got {raw!r}"
            ) from None
    platforms = tuple(
        p.strip() for p in (args.platforms or "").split(",") if p.strip()
    )
    run_fraction = {"mixed": 0.7, "run": 1.0, "serve": 0.0}[args.kind]
    try:
        return CorpusConfig(n=n, run_fraction=run_fraction, platforms=platforms)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _corpus_generate(args):
    from repro.corpus import generate_corpus

    config = _corpus_config(args)
    try:
        return generate_corpus(config, seed=args.seed)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _cmd_corpus_generate(args) -> int:
    from pathlib import Path

    specs = _corpus_generate(args)
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    for spec in specs:
        line = f"{spec.digest()[:12]}  {spec.describe()}"
        if out_dir is not None:
            path = spec.save(out_dir / f"{spec.name}.json")
            line += f"  -> {path}"
        print(line)
    return 0


def _corpus_load_specs(path_arg: str):
    from pathlib import Path

    from repro.scenario import ScenarioError, load_scenario

    path = Path(path_arg)
    if path.is_dir():
        paths = sorted(
            p for p in path.iterdir() if p.suffix.lower() in (".toml", ".json")
        )
    else:
        paths = [path]
    if not paths:
        raise SystemExit(f"no scenario documents under {path}")
    specs = []
    for p in paths:
        try:
            specs.append(load_scenario(p))
        except ScenarioError as exc:
            raise SystemExit(str(exc)) from None
    return specs


def _cmd_corpus_run(args) -> int:
    from repro.corpus import minimize_spec, run_corpus, write_artifacts

    if args.specs is not None:
        specs = _corpus_load_specs(args.specs)
        seed = None
    else:
        specs = _corpus_generate(args)
        seed = args.seed
    schedulers = None
    if args.schedulers:
        schedulers = [s.strip() for s in args.schedulers.split(",") if s.strip()]
    try:
        report = run_corpus(
            specs,
            schedulers,
            n_jobs=args.jobs,
            anomaly_factor=args.anomaly_factor,
            seed=seed,
        )
    except ValueError as exc:  # unknown scheduler, bad job count
        raise SystemExit(str(exc)) from None
    path = report.save(args.report)
    print(report.summary())
    print(f"\nreport    : {path}")
    failures = report.failures()
    if failures and not args.no_minimize:
        by_spec = {spec.digest(): spec for spec in specs}
        minimized = set()
        for cell in failures:
            key = (cell.digest, cell.scheduler)
            if key in minimized:
                continue
            minimized.add(key)
            result = minimize_spec(
                by_spec[cell.digest],
                scheduler=cell.scheduler,
                budget=args.minimize_budget,
            )
            cell_dir = write_artifacts(result, args.artifacts)
            print(
                f"minimized : {cell.name} x {cell.scheduler} "
                f"[{result.status} {result.code}] -> {cell_dir}"
            )
    return 1 if failures else 0


def _cmd_corpus_report(args) -> int:
    from repro.corpus import CorpusReport

    try:
        report = CorpusReport.load(args.report)
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    if args.json:
        print(report.to_json(), end="")
    else:
        print(report.summary())
    return 0 if report.ok else 1


def _cmd_corpus_minimize(args) -> int:
    from repro.corpus import minimize_spec, write_artifacts
    from repro.scenario import ScenarioError, load_scenario

    try:
        spec = load_scenario(args.spec)
    except ScenarioError as exc:
        raise SystemExit(str(exc)) from None
    try:
        result = minimize_spec(
            spec, scheduler=args.scheduler, budget=args.budget
        )
    except ValueError as exc:  # spec does not fail
        raise SystemExit(str(exc)) from None
    cell_dir = write_artifacts(result, args.artifacts)
    print(f"failure   : {result.status} {result.code}")
    print(f"shrunk    : {len(result.steps)} step(s), "
          f"{result.evaluations} probe(s)")
    for step in result.steps:
        print(f"  - {step}")
    print(f"artifacts : {cell_dir}")
    print(f"reproduce : python -m repro scenario run {cell_dir / 'minimized.json'}")
    return 0


def _cmd_corpus(args) -> int:
    if args.corpus_command == "generate":
        return _cmd_corpus_generate(args)
    if args.corpus_command == "run":
        return _cmd_corpus_run(args)
    if args.corpus_command == "report":
        return _cmd_corpus_report(args)
    if args.corpus_command == "minimize":
        return _cmd_corpus_minimize(args)
    raise AssertionError(
        f"unhandled corpus command {args.corpus_command!r}"
    )  # pragma: no cover


def _resolve_figure_cache(args):
    """Translate the figure cache flags into a SweepCache / False / None."""
    from repro.experiments import SweepCache, resolve_cache

    if args.no_cache:
        if args.cache_dir is not None:
            raise SystemExit("--cache-dir conflicts with --no-cache")
        return False
    if args.cache_dir is not None:
        return SweepCache(args.cache_dir)
    if args.cache:
        return SweepCache()
    # no explicit flag: honour $REPRO_CACHE, but pin one handle for the whole
    # figure so hit/miss counters aggregate across its nested sweeps
    return resolve_cache(None)


def _cmd_figure(args) -> int:
    import os

    from repro.experiments import AUDIT_ENV, FIGURES, configure_cache

    cache = _resolve_figure_cache(args)
    # pin the handle process-wide so every sweep a figure driver makes goes
    # through it (and its hit/miss counters), then restore on the way out
    previous_cache = configure_cache(cache)
    previous_audit = os.environ.get(AUDIT_ENV)
    if args.audit:
        # the env var (not a config edit) so --jobs pool workers inherit it
        os.environ[AUDIT_ENV] = "1"
    try:
        code = FIGURES.get(args.id).render(args)
    finally:
        configure_cache(previous_cache)
        if args.audit:
            if previous_audit is None:
                os.environ.pop(AUDIT_ENV, None)
            else:
                os.environ[AUDIT_ENV] = previous_audit
    if cache:
        print(f"\ncache     : {cache.stats.summary()} "
              f"({cache.stats.stores} stored in {cache.root})")
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "telemetry":
        return _cmd_telemetry(args)
    if args.command == "audit":
        return _cmd_audit(args)
    if args.command == "scenario":
        return _cmd_scenario(args)
    if args.command == "corpus":
        return _cmd_corpus(args)
    if args.command == "figure":
        return _cmd_figure(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
