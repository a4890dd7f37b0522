#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the CEDR simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload api-batch [--seed 0] [--seconds 10] [--trace 0]
    python3 perfbench/run.py --write-manifest      # regenerate BENCHMARK.json

One run builds the named workload's cell list from ``--seed``, runs it once
untimed (warm-up, functional references, expected digests), then repeats
the list back to back for ``--seconds`` seconds in this one process.

* ``--trace 0`` reports the end-to-end metrics: ``tasks_per_s`` (median
  over passes of simulated tasks completed per host second), ``setup_s``
  (median over fresh interpreters of the time to bring the first cell to
  ready-to-run) and ``peak_rss_mb``.  It also prints the modelled
  (simulated-time) metrics, ``fail_ratio`` and ``sim_digest``.  Passes and
  set-up probes rotate over the CPUs the process may use.
* ``--trace 1`` alternates untraced and traced passes, wrapping the public
  functions of every ``repro`` layer from outside (see ``tracer.py``), and
  adds one cProfile pass; it reports the per-layer metrics of the traced
  pass with the median wall time and writes every span to ``.perfbench/``.

Human-readable lines go first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The full record
(fingerprint, per-cell times, failures) is written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import cProfile
import gzip
import hashlib
import json
import os
import platform as host_platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# this file's directory is first on sys.path when it runs as a script
import catalog
from harness import Harness, digest, sim_metrics
from tracer import Tracer
from workloads import DEFAULT_SEED, build_workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

#: environment variables that change how ``repro`` runs; cleared so every
#: run is hermetic (no sweep cache, no worker pool, default engine)
HERMETIC_ENV = (
    "REPRO_CACHE", "REPRO_JOBS", "REPRO_AUDIT", "REPRO_EVENT_CORE",
    "REPRO_CORE_IMPL", "REPRO_JIT",
)
#: cold-interpreter set-up samples per run (after one unmeasured warm-up
#: that compiles bytecode)
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 120
#: fewest timed passes a run makes, however long a pass takes
MIN_PASSES = 3


def _fail_setup(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _probe_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in HERMETIC_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def _pin(i: int, cpus: list) -> None:
    """Pin this process (and the children it starts) to the i-th CPU, cyclically.

    The vCPUs of a shared host are slowed independently by their neighbours,
    so consecutive samples rotate over every CPU this process may use and a
    run averages their states instead of riding one of them.
    """
    os.sched_setaffinity(0, {cpus[i % len(cpus)]})


def measure_setup(workload: str, seed: int, cpus: list) -> tuple[list[float], dict]:
    """Cold-start set-up times (seconds) of fresh interpreters."""
    samples, last = [], {}
    probe = BENCH_DIR / "setup_probe.py"
    for i in range(SETUP_SAMPLES + 1):
        _pin(i, cpus)
        launched = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(probe), workload, str(seed)],
            cwd=ROOT, env=_probe_env(), capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        if i > 0:
            samples.append(last["ready"] - launched)
    return samples, last


def fingerprint() -> dict:
    """Host and source identity recorded with every result."""
    import numpy

    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        src_hash.update(str(path.relative_to(SRC)).encode())
        src_hash.update(path.read_bytes())
    return {
        "python": host_platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": host_platform.machine(),
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


def _profile_package(filename: str, funcname: str) -> str:
    if filename == "~":
        return "numpy" if "numpy" in funcname else "builtins"
    path = filename.replace("\\", "/")
    if "/numpy/" in path:
        return "numpy"
    marker = "/repro/"
    if marker in path:
        head = path.rsplit(marker, 1)[1].split("/", 1)[0]
        if head in catalog.PROFILE_PACKAGES:
            return head
    return "other"


def profile_shares(profile: cProfile.Profile) -> dict[str, float]:
    """cProfile self time aggregated by package, as shares of the total."""
    totals = dict.fromkeys(catalog.PROFILE_PACKAGES, 0.0)
    for (filename, _, funcname), row in pstats.Stats(profile).stats.items():
        totals[_profile_package(filename, funcname)] += row[2]
    whole = sum(totals.values()) or 1.0
    return {f"profile.{pkg}.share": t / whole for pkg, t in totals.items()}


def layer_metrics(tracer, stats) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see README.md)."""
    runs = [getattr(r, "run", r) for r in stats.results]
    serves = [r for r in stats.results if hasattr(r, "run")]
    calls, values = tracer.calls, tracer.values
    layer_self = tracer.layer_self_s()
    rounds = calls["sched.schedule"]
    depth_rounds = sum(r.sched_rounds for r in runs)
    tasks = sum(r.tasks_completed for r in runs)
    task_failures = sum(r.task_failures for r in runs)
    injected = sum(r.faults_injected for r in runs)
    offered = sum(s.offered for s in serves)
    bitrev_calls = calls["kernels.bit_reverse_indices"]
    out = {
        "simcore.events": values["simcore.events"],
        "simcore.timers": calls["simcore.Engine.call_at"],
        "simcore.spawns": calls["simcore.Engine.spawn"],
        "simcore.core_util_mean": values["simcore.util_sum"] / max(1, values["simcore.runs"]),
        "runtime.init_s": tracer.incl_s("runtime.CedrRuntime.__init__"),
        "runtime.tasks": tasks,
        "runtime.ready_depth_mean": (
            sum(r.ready_depth_mean * r.sched_rounds for r in runs) / depth_rounds
            if depth_rounds else 0.0
        ),
        "runtime.ready_depth_max": max((r.ready_depth_max for r in runs), default=0),
        "sched.rounds": rounds,
        "sched.tasks_per_round": values["sched.tasks"] / rounds if rounds else 0.0,
        "sched.us_per_round": 1e6 * tracer.incl_s("sched.schedule") / rounds if rounds else 0.0,
        "sched.helper_calls": tracer.calls_with_prefix("sched.helper."),
        "platforms.build_s": tracer.incl_s("platforms.build"),
        "platforms.cost_table_calls": tracer.calls_with_prefix("platforms.CostTable."),
        "platforms.cost_table_s": tracer.self_s("platforms.CostTable."),
        "platforms.cost_rows": values["platforms.cost_rows"],
        "core.api_calls": calls["core.api_call"],
        "kernels.calls": calls["kernels.call"],
        "kernels.bytes_in": values["kernels.bytes_in"],
        "kernels.bit_reverse_calls": bitrev_calls,
        "kernels.bitrev_distinct_ratio": (
            len(tracer.bitrev_lengths) / bitrev_calls if bitrev_calls else 0.0
        ),
        "workload.instantiate_s": tracer.incl_s("workload.instantiate"),
        "dag.build_s": tracer.incl_s("dag.build"),
        "serve.arrivals": offered,
        "serve.admission_s": tracer.incl_s("serve.admission"),
        "serve.shed_ratio": sum(s.shed for s in serves) / offered if offered else 0.0,
        "faults.injected": injected,
        "faults.retries": sum(r.retries for r in runs),
        # 0 when the fault layer did no work, like every other fault metric
        "faults.useful_ratio": tasks / (tasks + task_failures) if injected else 0.0,
        "telemetry.calls": tracer.calls_with_prefix("telemetry."),
        "telemetry.samples": sum(len(r.telemetry["samples"]) for r in runs if r.telemetry),
        "audit.checks": calls["audit.check"],
        "metrics.extract_s": tracer.incl_s("metrics.from_runtime"),
        "trace.wall_s": stats.wall_s,
        "trace.unattributed_s": stats.wall_s - sum(layer_self.values()),
    }
    for layer, metric in catalog.LAYER_SELF_METRIC.items():
        out[metric] = layer_self[layer]
    return out


def _median_pass(passes: list):
    """The pass whose wall time is the (lower) median."""
    return sorted(passes, key=lambda p: p[0].wall_s)[(len(passes) - 1) // 2]


def run_untraced(harness, seconds: float, cpus: list) -> list:
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        _pin(len(passes), cpus)
        passes.append(harness.run_pass())
    return passes


def run_traced(harness, seconds: float):
    """Alternate untraced and traced passes, then one cProfile pass."""
    tracer = Tracer()

    def traced_call(cell):
        tracer.cell = cell.cell_id
        return cell.run()

    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
        untraced.append(harness.run_pass())
        tracer.install()
        tracer.reset()
        # spans are kept for the first traced pass only, which bounds memory;
        # the accumulators cover every traced pass
        tracer.recording = not traced
        try:
            stats = harness.run_pass(call=traced_call, keep_results=True)
            traced.append((stats, layer_metrics(tracer, stats)))
            stats.results.clear()
        finally:
            tracer.uninstall()
    profile = cProfile.Profile()
    harness.run_pass(call=lambda cell: profile.runcall(cell.run))
    return untraced, traced, tracer, profile_shares(profile)


def write_spans(tracer, path: Path) -> None:
    with gzip.open(path, "wt") as fh:
        for name, start, end, parent, cell in tracer.spans:
            fh.write(json.dumps([name, start, end, parent, cell]) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json from catalog.py and exit")
    args = parser.parse_args(argv)

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(catalog.manifest(), indent=2) + "\n")
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail_setup(f"no simulator sources under {SRC}; run from a full checkout")
    if args.workload not in catalog.WORKLOAD_WHY:
        return _fail_setup(f"--workload must be one of {sorted(catalog.WORKLOAD_WHY)}")

    for name in HERMETIC_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    from repro.experiments import configure_cache

    configure_cache(False)
    seed = DEFAULT_SEED if args.seed is None else args.seed
    seconds = catalog.RUN_SECONDS if args.seconds is None else args.seconds
    record = {
        "workload": args.workload, "seed": seed, "seconds": seconds, "trace": args.trace,
        "fingerprint": fingerprint(),
    }

    setup_samples = []
    traced_digest_ok = True
    cpus = sorted(os.sched_getaffinity(0))
    if not args.trace:
        setup_samples, probe = measure_setup(args.workload, seed, cpus)
        probe.pop("ready")
        record["setup_probe"] = {"samples_s": setup_samples, **probe}

    cells = build_workload(args.workload, seed)
    harness = Harness(cells)
    warm = harness.warm_up()
    # the engine selection the runtime really used, from a fresh copy of the
    # first cell (preparing a harness cell would leave instances behind)
    record["engine"] = build_workload(args.workload, seed)[0].prepare()
    sim = sim_metrics(warm.results) if not harness.failures else {}
    sim_digest = digest(warm.digests)

    if args.trace:
        untraced, traced, tracer, shares = run_traced(harness, seconds)
        stats, metrics = _median_pass(traced)
        untraced_wall = statistics.median(p.wall_s for p in untraced)
        events = metrics["simcore.events"]
        metrics["simcore.ns_per_event"] = 1e9 * untraced_wall / events if events else 0.0
        metrics["trace.overhead_ratio"] = (
            statistics.median(p.wall_s for p, _ in traced) / untraced_wall
        )
        metrics.update(shares)
        # every traced cell is also checked against its warm-up digest
        traced_digest_ok = {digest(p.digests) for p, _ in traced} == {sim_digest}
        record["traced_sim_digest_equal"] = traced_digest_ok
        passes = untraced
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{seed}.jsonl.gz"
        write_spans(tracer, spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        record["traced_passes"] = len(traced)
        units = {n: u for n, u, _ in catalog.PER_LAYER}
    else:
        passes = run_untraced(harness, seconds, cpus)
        os.sched_setaffinity(0, set(cpus))
        metrics = {
            "tasks_per_s": statistics.median(p.tasks_per_s for p in passes),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {n: u for n, u, _, _ in catalog.END_TO_END}

    fail_ratio = harness.failed / harness.attempted
    record.update({
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "cell_ids": [c.cell_id for c in cells],
        "cell_s_median": [
            statistics.median(p.cell_s[i] for p in passes) for i in range(len(cells))
        ],
        "sim_metrics": sim,
        "sim_digest": sim_digest,
        "fail_ratio": fail_ratio,
        "failures": harness.failures,
        "metrics": metrics,
    })
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n"
    )

    sim_units = dict(catalog.SIM_METRICS)
    fp = record["fingerprint"]
    print(f"workload {args.workload}  seed {seed}  trace {args.trace}  "
          f"{len(passes)} passes of {len(cells)} cells  "
          f"engine {record['engine']['event_core']}/{record['engine']['core_impl']}")
    print(f"host python {fp['python']} numpy {fp['numpy']} nproc {fp['nproc']} "
          f"commit {fp['commit'] or '-'} src {fp['src_sha256'][:16]}")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {units[name]}")
    for name, value in sim.items():
        print(f"  {name:<32} {value:>16.6g} {sim_units[name]} (simulated)")
    print(f"  {'fail_ratio':<32} {fail_ratio:>16.6g} ratio")
    print(f"  sim_digest {sim_digest}")
    if args.trace:
        print(f"  traced sim_digest equals untraced: {traced_digest_ok}")
    for cell_id, reason in harness.failures:
        print(f"FAILED {cell_id}: {reason}", file=sys.stderr)

    expected = set(units)
    if set(metrics) != expected:
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ expected)}")
    print(json.dumps({
        "correct": not harness.failures and traced_digest_ok,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
