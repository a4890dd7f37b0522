"""Differential oracle: one workload, paired configurations, zero drift.

The sweep machinery promises that a run is a *pure function* of its cell
tuple - which is what licenses the process pool, the content-addressed
cache, the schedulers' interned-row rounds, and telemetry's observe-only
contract.  This module tests that promise by construction: it runs the
same (rate x trial) grid under paired configurations that must be
indistinguishable -

``jobs``        serial vs ``--jobs`` process-pool sharding
``cache``       uncached vs cold-store vs warm-hit sweep cache
``scalar``      scalar ``estimate(task, pe)`` vs cost-table row rounds
``telemetry``   telemetry off vs on (identical outside the snapshot field)
``audit``       online auditor off vs on
``scenario``    flag-driven sweep vs the equivalent declarative
                :class:`~repro.scenario.ScenarioSpec` (opt-in: pass a
                ``scenario=`` template)

- and diffs every :class:`~repro.metrics.RunResult` field-by-field,
bit-exactly.  :func:`diff_results` / :func:`assert_identical` are the
reusable helpers the bit-identity tests build on; :func:`diff_run` is the
full paired-run driver behind ``repro audit diff``.
"""

from __future__ import annotations

import dataclasses
import tempfile
from typing import Optional, Sequence

from repro.experiments.cache import SweepCache
from repro.experiments.common import run_trials
from repro.metrics import RunResult
from repro.platforms import PlatformConfig
from repro.runtime import RuntimeConfig
from repro.workload import WorkloadSpec

__all__ = [
    "diff_results",
    "diff_serve_results",
    "assert_identical",
    "VariantOutcome",
    "OracleReport",
    "DEFAULT_VARIANTS",
    "SERVE_VARIANTS",
    "diff_run",
    "diff_serve",
]

#: every paired configuration :func:`diff_run` knows how to produce.
DEFAULT_VARIANTS = ("jobs", "cache", "scalar", "telemetry", "audit")

#: the paired configurations :func:`diff_serve` covers.  ``telemetry`` is
#: omitted: a serve cell's config carries no sampler by default and the
#: embedded ``RunResult.telemetry`` field is the only thing it would touch.
SERVE_VARIANTS = ("jobs", "cache", "scalar", "audit")

_RESULT_FIELDS = tuple(f.name for f in dataclasses.fields(RunResult))


def diff_results(
    a: RunResult,
    b: RunResult,
    *,
    ignore: Sequence[str] = (),
) -> list[str]:
    """Names of ``RunResult`` fields where *a* and *b* differ, bit-exactly.

    Frozen-dataclass ``==`` answers *whether* two results drifted; this
    answers *where*, which is what a failing determinism test needs to
    print.  ``ignore`` excludes fields that differ by design (the
    ``telemetry`` snapshot when comparing an instrumented run against a
    bare one).
    """
    unknown = set(ignore) - set(_RESULT_FIELDS)
    if unknown:
        raise KeyError(f"ignore names unknown RunResult fields: {sorted(unknown)}")
    return [
        name
        for name in _RESULT_FIELDS
        if name not in ignore and getattr(a, name) != getattr(b, name)
    ]


def assert_identical(
    results: Sequence[Sequence[RunResult]],
    labels: Sequence[str],
    *,
    ignore: Sequence[str] = (),
) -> None:
    """Assert several result lists are cell-wise bit-identical.

    ``results[0]`` is the reference; every other list must match it cell
    for cell.  The failure message names the variant, the cell, and the
    drifted fields - the part the four hand-rolled ``assert a == b``
    patterns never reported.
    """
    reference, ref_label = results[0], labels[0]
    for candidate, label in zip(results[1:], labels[1:]):
        assert len(candidate) == len(reference), (
            f"{label} produced {len(candidate)} results, "
            f"{ref_label} produced {len(reference)}"
        )
        for i, (a, b) in enumerate(zip(reference, candidate)):
            fields = diff_results(a, b, ignore=ignore)
            assert not fields, (
                f"{label} drifted from {ref_label} at cell {i} in "
                f"field(s) {fields}: "
                + "; ".join(
                    f"{name}: {getattr(a, name)!r} != {getattr(b, name)!r}"
                    for name in fields[:3]
                )
            )


def diff_serve_results(a, b) -> list[str]:
    """Drifted field names between two ``ServeResult``s, bit-exactly.

    The embedded batch result is descended into so a failure names the
    actual drifted measurement (``run.makespan``) instead of just ``run``.
    """
    from repro.serve.driver import ServeResult

    fields: list[str] = []
    for f in dataclasses.fields(ServeResult):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if va == vb:
            continue
        if f.name == "run":
            fields.extend(f"run.{name}" for name in diff_results(va, vb))
        else:
            fields.append(f.name)
    return fields


@dataclasses.dataclass(frozen=True)
class VariantOutcome:
    """One paired configuration's agreement with the serial baseline."""

    variant: str
    cells: int
    #: (cell index, drifted field names) per disagreeing cell.
    mismatches: tuple[tuple[int, tuple[str, ...]], ...] = ()
    #: extra bookkeeping failures (cache hit/miss accounting, etc.).
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.notes

    def describe(self) -> str:
        if self.ok:
            return f"{self.variant:<10} ok ({self.cells} cells bit-identical)"
        parts = [
            f"cell {i}: {', '.join(fields)}" for i, fields in self.mismatches
        ]
        parts.extend(self.notes)
        return f"{self.variant:<10} FAIL ({'; '.join(parts)})"


@dataclasses.dataclass(frozen=True)
class OracleReport:
    """Outcome of one :func:`diff_run` sweep."""

    label: str
    cells: int
    outcomes: tuple[VariantOutcome, ...]

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def summary(self) -> str:
        head = (
            f"differential oracle [{self.label}]: {self.cells} cells x "
            f"{len(self.outcomes)} variants"
        )
        return "\n".join([head, *(f"  {o.describe()}" for o in self.outcomes)])


def _compare(
    variant: str,
    baseline: list[RunResult],
    candidate: list[RunResult],
    *,
    ignore: Sequence[str] = (),
    notes: Sequence[str] = (),
) -> VariantOutcome:
    mismatches = []
    for i, (a, b) in enumerate(zip(baseline, candidate)):
        fields = diff_results(a, b, ignore=ignore)
        if fields:
            mismatches.append((i, tuple(fields)))
    if len(candidate) != len(baseline):
        notes = (*notes, f"{len(candidate)} cells vs {len(baseline)}")
    return VariantOutcome(
        variant=variant,
        cells=len(baseline),
        mismatches=tuple(mismatches),
        notes=tuple(notes),
    )


def diff_run(
    platform: PlatformConfig,
    workload: WorkloadSpec,
    mode: str,
    rates: Sequence[float],
    scheduler: str,
    *,
    trials: int = 2,
    base_seed: int = 0,
    execute: bool = False,
    config: Optional[RuntimeConfig] = None,
    jobs: int = 2,
    cache_dir: Optional[str] = None,
    variants: Sequence[str] = DEFAULT_VARIANTS,
    scenario=None,
) -> OracleReport:
    """Run one grid under every paired configuration and diff the results.

    The baseline is the plain serial, uncached, telemetry-free, scalar-free
    sweep; each variant flips exactly one knob and must reproduce it
    bit-for-bit.  The ``cache`` variant additionally audits the cache's own
    books: a cold pass must miss-and-store every cell, a warm pass must hit
    every cell without simulating anything.

    The opt-in ``scenario`` variant takes a run-kind
    :class:`~repro.scenario.ScenarioSpec` template, sweeps it across the
    same rate grid via :func:`~repro.scenario.run_scenario`, and requires
    the declarative route to reproduce the flag-built baseline bit-for-bit
    - the proof behind ``repro audit diff --scenario``.
    """
    unknown = set(variants) - set(DEFAULT_VARIANTS) - {"scenario"}
    if unknown:
        raise KeyError(
            f"unknown oracle variant(s) {sorted(unknown)}; "
            f"available: {(*DEFAULT_VARIANTS, 'scenario')}"
        )
    if "scenario" in variants:
        if scenario is None:
            raise ValueError(
                "the 'scenario' variant needs a ScenarioSpec template "
                "(pass scenario=...)"
            )
        if scenario.kind != "run":
            raise ValueError(
                f"diff_run needs a run-kind scenario, got {scenario.kind!r}"
            )
    base_config = (
        config
        if config is not None
        else RuntimeConfig(scheduler=scheduler, execute_kernels=execute)
    )

    def grid(
        cfg: RuntimeConfig, n_jobs: int = 1, cache=False
    ) -> list[RunResult]:
        out: list[RunResult] = []
        for rate in rates:
            out.extend(
                run_trials(
                    platform, workload, mode, rate, scheduler,
                    trials=trials, base_seed=base_seed, execute=execute,
                    config=cfg, n_jobs=n_jobs, cache=cache,
                )
            )
        return out

    baseline = grid(base_config)
    outcomes: list[VariantOutcome] = []
    for variant in variants:
        if variant == "jobs":
            outcomes.append(
                _compare(variant, baseline, grid(base_config, n_jobs=jobs))
            )
        elif variant == "cache":
            with tempfile.TemporaryDirectory() as scratch:
                root = cache_dir or scratch
                cold_cache = SweepCache(root)
                cold = grid(base_config, cache=cold_cache)
                warm_cache = SweepCache(root)
                warm = grid(base_config, cache=warm_cache)
                notes = []
                n = len(baseline)
                if not (
                    cold_cache.stats.misses == cold_cache.stats.stores == n
                ):
                    notes.append(
                        f"cold pass expected {n} misses+stores, saw "
                        f"{cold_cache.stats}"
                    )
                if warm_cache.stats.hits != n or warm_cache.stats.misses != 0:
                    notes.append(
                        f"warm pass expected {n} pure hits, saw "
                        f"{warm_cache.stats}"
                    )
                outcome = _compare(variant, baseline, cold, notes=notes)
                warm_outcome = _compare(variant, baseline, warm)
                outcomes.append(
                    dataclasses.replace(
                        outcome,
                        mismatches=outcome.mismatches + warm_outcome.mismatches,
                    )
                )
        elif variant == "scalar":
            cfg = dataclasses.replace(base_config, scalar_estimates=True)
            outcomes.append(_compare(variant, baseline, grid(cfg)))
        elif variant == "telemetry":
            cfg = base_config.with_telemetry(0.0)
            outcomes.append(
                _compare(
                    variant, baseline, grid(cfg), ignore=("telemetry",)
                )
            )
        elif variant == "audit":
            cfg = dataclasses.replace(base_config, audit=True)
            outcomes.append(_compare(variant, baseline, grid(cfg)))
        elif variant == "scenario":
            from repro.scenario import run_scenario

            declarative: list[RunResult] = []
            for rate in rates:
                cell = dataclasses.replace(scenario, rate_mbps=float(rate))
                declarative.extend(
                    run_scenario(cell, trials=trials, base_seed=base_seed)
                )
            outcomes.append(_compare(variant, baseline, declarative))
    return OracleReport(
        label=f"{platform.name}/{workload.name}/{mode}/{scheduler}",
        cells=len(baseline),
        outcomes=tuple(outcomes),
    )


def _compare_serve(
    variant: str,
    baseline: list,
    candidate: list,
    *,
    notes: Sequence[str] = (),
) -> VariantOutcome:
    mismatches = []
    for i, (a, b) in enumerate(zip(baseline, candidate)):
        fields = diff_serve_results(a, b)
        if fields:
            mismatches.append((i, tuple(fields)))
    if len(candidate) != len(baseline):
        notes = (*notes, f"{len(candidate)} cells vs {len(baseline)}")
    return VariantOutcome(
        variant=variant,
        cells=len(baseline),
        mismatches=tuple(mismatches),
        notes=tuple(notes),
    )


def diff_serve(
    platform: PlatformConfig,
    serve,
    *,
    trials: int = 2,
    base_seed: int = 0,
    config: Optional[RuntimeConfig] = None,
    jobs: int = 2,
    cache_dir: Optional[str] = None,
    variants: Sequence[str] = SERVE_VARIANTS,
    scenario=None,
) -> OracleReport:
    """The serve-mode differential oracle behind ``repro audit diff --serve``.

    Open-stream service runs add three determinism hazards batch sweeps do
    not have: admission decisions fed back from live runtime signals (ready
    depth, online p99), hold-queue release interleaved with completions,
    and an expiry/seal race against in-flight work.  This runs one
    ``(serve config, trial seed)`` grid under every paired configuration in
    *variants* and diffs each :class:`~repro.serve.driver.ServeResult` -
    SLO ledger and embedded batch result both - bit-exactly against the
    serial baseline.

    Like :func:`diff_run`, the opt-in ``scenario`` variant replays a
    serve-kind :class:`~repro.scenario.ScenarioSpec` template over the
    same trial grid and requires bit-identity with the flag-built config.
    """
    from repro.serve.driver import serve_trials

    unknown = set(variants) - set(SERVE_VARIANTS) - {"scenario"}
    if unknown:
        raise KeyError(
            f"unknown serve oracle variant(s) {sorted(unknown)}; "
            f"available: {(*SERVE_VARIANTS, 'scenario')}"
        )
    if "scenario" in variants:
        if scenario is None:
            raise ValueError(
                "the 'scenario' variant needs a ScenarioSpec template "
                "(pass scenario=...)"
            )
        if scenario.kind != "serve":
            raise ValueError(
                f"diff_serve needs a serve-kind scenario, got {scenario.kind!r}"
            )
    base_config = (
        config
        if config is not None
        else RuntimeConfig(scheduler=serve.scheduler, execute_kernels=False)
    )

    def grid(cfg: RuntimeConfig, n_jobs: int = 1, cache=False) -> list:
        return serve_trials(
            platform, serve,
            trials=trials, base_seed=base_seed,
            config=cfg, n_jobs=n_jobs, cache=cache,
        )

    baseline = grid(base_config)
    outcomes: list[VariantOutcome] = []
    for variant in variants:
        if variant == "jobs":
            outcomes.append(
                _compare_serve(variant, baseline, grid(base_config, n_jobs=jobs))
            )
        elif variant == "cache":
            with tempfile.TemporaryDirectory() as scratch:
                root = cache_dir or scratch
                cold_cache = SweepCache(root)
                cold = grid(base_config, cache=cold_cache)
                warm_cache = SweepCache(root)
                warm = grid(base_config, cache=warm_cache)
                notes = []
                n = len(baseline)
                if not (
                    cold_cache.stats.misses == cold_cache.stats.stores == n
                ):
                    notes.append(
                        f"cold pass expected {n} misses+stores, saw "
                        f"{cold_cache.stats}"
                    )
                if warm_cache.stats.hits != n or warm_cache.stats.misses != 0:
                    notes.append(
                        f"warm pass expected {n} pure hits, saw "
                        f"{warm_cache.stats}"
                    )
                outcome = _compare_serve(variant, baseline, cold, notes=notes)
                warm_outcome = _compare_serve(variant, baseline, warm)
                outcomes.append(
                    dataclasses.replace(
                        outcome,
                        mismatches=outcome.mismatches + warm_outcome.mismatches,
                    )
                )
        elif variant == "scalar":
            cfg = dataclasses.replace(base_config, scalar_estimates=True)
            outcomes.append(_compare_serve(variant, baseline, grid(cfg)))
        elif variant == "audit":
            cfg = dataclasses.replace(base_config, audit=True)
            outcomes.append(_compare_serve(variant, baseline, grid(cfg)))
        elif variant == "scenario":
            from repro.scenario import run_scenario

            declarative = run_scenario(
                scenario, trials=trials, base_seed=base_seed
            )
            outcomes.append(_compare_serve(variant, baseline, declarative))
    tenant_names = "+".join(t.name for t in serve.tenants)
    return OracleReport(
        label=f"{platform.name}/serve[{tenant_names}]/{serve.scheduler}",
        cells=len(baseline),
        outcomes=tuple(outcomes),
    )
