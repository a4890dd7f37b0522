"""The benchmark's metric catalog; ``BENCHMARK.json`` is generated from it.

``python3 perfbench/run.py --write-manifest`` rewrites ``BENCHMARK.json``
from this module, and ``test_perfbench.py`` checks that the two agree and
that every metric named here is emitted.
"""

from __future__ import annotations

__all__ = [
    "COMMAND", "PATHS", "RUN_SECONDS", "WORKLOAD_WHY", "END_TO_END", "PER_LAYER",
    "PROFILE_PACKAGES", "SIM_METRICS", "LAYER_SELF_METRIC", "manifest",
]

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
#: measured seconds per run (timed passes; set-up and the untimed warm-up
#: pass come on top)
RUN_SECONDS = 18

WORKLOAD_WHY = {
    "api-batch": "API-mode timing-only Fig. 5/10a/10b cells: engine loop and depth-1 rounds dominate",
    "dag-batch": "DAG-mode radar-comms cells with deep etf/heft_rt rounds: the only workload exercising dag",
    "kernels-on": "API etf 2000 Mbps with real kernels checked against references: kernels and NumPy",
    "serve-observed": "three Poisson serve windows with faults, telemetry and audit on: serve/faults/telemetry/audit",
}

#: (name, unit, better, bound).  Host-time metrics only: the modelled
#: (simulated) metrics and fail_ratio are printed and checked but are not
#: bounded here.  Bounds follow the measured run-to-run spread, which host
#: speed phases of +-25% dominate; setup_s keeps the largest - see README.md.
END_TO_END = [
    ("tasks_per_s", "1/s", "higher", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

#: modelled quantities printed with every untraced run (simulated time)
SIM_METRICS = [
    ("sim_exec_ms_per_app", "ms"),
    ("sim_sched_us_per_app", "us"),
    ("sim_runtime_us_per_app", "us"),
    ("sim_makespan_s", "s"),
    ("sim_p99_response_ms", "ms"),
    ("sim_goodput_per_s", "1/s"),
]

PROFILE_PACKAGES = (
    "simcore", "runtime", "sched", "platforms", "core", "kernels", "apps", "workload",
    "dag", "serve", "faults", "telemetry", "audit", "metrics", "numpy", "builtins", "other",
)

#: (name, unit, better); values are per pass over the workload's cell list
PER_LAYER = [
    ("simcore.events", "count", "lower"),
    ("simcore.ns_per_event", "ns", "lower"),
    ("simcore.loop_self_s", "s", "lower"),
    ("simcore.timers", "count", "lower"),
    ("simcore.spawns", "count", "lower"),
    ("simcore.core_util_mean", "ratio", "higher"),
    ("runtime.init_s", "s", "lower"),
    ("runtime.tasks", "count", "higher"),
    ("runtime.ready_depth_mean", "task", "lower"),
    ("runtime.ready_depth_max", "task", "lower"),
    ("runtime.self_s", "s", "lower"),
    ("sched.rounds", "count", "lower"),
    ("sched.tasks_per_round", "task", "higher"),
    ("sched.self_s", "s", "lower"),
    ("sched.us_per_round", "us", "lower"),
    ("sched.helper_calls", "count", "lower"),
    ("platforms.build_s", "s", "lower"),
    ("platforms.cost_table_calls", "count", "lower"),
    ("platforms.cost_table_s", "s", "lower"),
    ("platforms.cost_rows", "count", "lower"),
    ("platforms.self_s", "s", "lower"),
    ("core.api_calls", "count", "lower"),
    ("kernels.calls", "count", "lower"),
    ("kernels.self_s", "s", "lower"),
    ("kernels.bytes_in", "bytes", "lower"),
    ("kernels.bit_reverse_calls", "count", "lower"),
    ("kernels.bitrev_distinct_ratio", "ratio", "higher"),
    ("workload.instantiate_s", "s", "lower"),
    ("workload.self_s", "s", "lower"),
    ("dag.build_s", "s", "lower"),
    ("dag.self_s", "s", "lower"),
    ("serve.arrivals", "count", "higher"),
    ("serve.admission_s", "s", "lower"),
    ("serve.shed_ratio", "ratio", "lower"),
    ("serve.self_s", "s", "lower"),
    ("faults.injected", "count", "lower"),
    ("faults.retries", "count", "lower"),
    ("faults.useful_ratio", "ratio", "higher"),
    ("faults.self_s", "s", "lower"),
    ("telemetry.calls", "count", "lower"),
    ("telemetry.self_s", "s", "lower"),
    ("telemetry.samples", "count", "lower"),
    ("audit.checks", "count", "lower"),
    ("audit.self_s", "s", "lower"),
    ("metrics.extract_s", "s", "lower"),
    ("metrics.self_s", "s", "lower"),
    *[(f"profile.{pkg}.share", "ratio", "lower") for pkg in PROFILE_PACKAGES],
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

#: the per-layer metric holding each traced layer's self time; these plus
#: ``trace.unattributed_s`` sum to ``trace.wall_s``
LAYER_SELF_METRIC = {
    "simcore": "simcore.loop_self_s",
    "runtime": "runtime.self_s",
    "sched": "sched.self_s",
    "platforms": "platforms.self_s",
    "kernels": "kernels.self_s",
    "workload": "workload.self_s",
    "dag": "dag.self_s",
    "serve": "serve.self_s",
    "faults": "faults.self_s",
    "telemetry": "telemetry.self_s",
    "audit": "audit.self_s",
    "metrics": "metrics.self_s",
}


def manifest() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOAD_WHY.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
