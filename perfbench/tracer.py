"""Per-layer tracing from outside the program.

:class:`Tracer` replaces public functions of each ``repro`` package with
thin wrappers for the duration of a traced pass and restores the originals
afterwards; nothing inside ``src/`` knows it is being traced.  A wrapper
either records a span (name, start, end, parent span, cell id) or, for
generator functions whose body runs later inside the simulator, only counts
the call.  A layer's self time is the time of its spans minus the part that
their child spans cover, accumulated online with a span stack; the spans
themselves stay in memory and are written out by the harness at the end.

Layers are this repository's packages.  The daemon, worker and
application coroutine bodies run inside ``Engine.run`` and no public
function covers them, so their time is part of ``simcore.loop_self_s``; the
benchmark's cProfile pass splits it by package.  Time outside every span
(``run_once``'s own lines) is ``trace.unattributed_s``, so layer self times
plus it sum to the traced wall time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from typing import Any, Callable, Optional

__all__ = ["LAYERS", "Tracer"]

#: layers with spans, in report order
LAYERS = (
    "simcore", "runtime", "sched", "platforms", "kernels", "workload", "dag",
    "serve", "faults", "telemetry", "audit", "metrics",
)

_SCHED_HELPERS = ("candidate_mask", "estimate_matrix", "free_vector", "greedy_earliest_finish")
_COST_TABLE_METHODS = (
    "row", "task_row", "rows_for", "estimate_rows", "support_rows", "support_row",
    "support_cells", "mean_estimate", "lookup", "__call__",
)


def _payload_bytes(obj: Any) -> int:
    """Bytes of the NumPy operands in a kernel argument (tuples recursed)."""
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_payload_bytes(x) for x in obj)
    return 0


class Tracer:
    """Installs span/count wrappers on the simulator's public functions."""

    def __init__(self) -> None:
        self.clock = time.perf_counter_ns
        #: open spans: [start_ns, child_ns, span_id, name]
        self._stack: list[list] = []
        self._next_id = 0
        self._depth: Counter = Counter()
        self._patches: list[tuple[Any, str, Any]] = []
        self._kernel_wrappers: dict[tuple, Callable] = {}
        #: finished spans (name, start_ns, end_ns, parent_id, cell_id)
        self.spans: list[tuple] = []
        self.recording = True
        self.cell: Optional[str] = None
        #: self time per layer and per span name
        self.self_ns: Counter = Counter()
        self.name_self_ns: Counter = Counter()
        #: outermost-call inclusive time per span name
        self.incl_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.values: Counter = Counter()
        self.bitrev_lengths: set = set()

    # ------------------------------------------------------------------ #
    # accumulators (per pass)
    # ------------------------------------------------------------------ #

    def reset(self) -> None:
        """Zero every accumulator in place (at the start of each pass)."""
        for acc in (self.self_ns, self.name_self_ns, self.incl_ns, self.calls,
                    self.values, self.bitrev_lengths):
            acc.clear()

    # ------------------------------------------------------------------ #
    # wrappers
    # ------------------------------------------------------------------ #

    def _span(self, name: str, layer: str, fn: Callable,
              before: Optional[Callable] = None,
              after: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            depth = tracer._depth
            token = before(args, kwargs) if before is not None else None
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            depth[name] += 1
            frame = [tracer.clock(), 0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
                depth[name] -= 1
                duration = end - frame[0]
                tracer.self_ns[layer] += duration - frame[1]
                tracer.name_self_ns[name] += duration - frame[1]
                tracer.calls[name] += 1
                if not depth[name]:
                    tracer.incl_ns[name] += duration
                if stack:
                    stack[-1][1] += duration
                if tracer.recording:
                    parent = stack[-1][2] if stack else None
                    tracer.spans.append((name, frame[0], end, parent, tracer.cell))
            if after is not None:
                after(args, kwargs, result, token)
            return result

        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, name: str, layer: str, fn: Callable, **hooks) -> Callable:
        """Span for a plain function; call count for a generator function
        (its body runs later, inside the simulator's coroutine loop)."""
        if inspect.isgeneratorfunction(fn):
            return self._counter(name, fn)
        return self._span(name, layer, fn, **hooks)

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #

    def _patch_attr(self, owner: Any, attr: str, new: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _method(self, cls: type, attr: str, layer: str, name: Optional[str] = None, **hooks) -> None:
        raw = cls.__dict__.get(attr)
        if raw is None:
            return
        name = name or f"{layer}.{cls.__name__}.{attr}"
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self._wrap(name, layer, raw.__func__, **hooks))
        elif inspect.isfunction(raw):
            new = self._wrap(name, layer, raw, **hooks)
        else:
            return
        self._patch_attr(cls, attr, new)

    def _methods(self, cls: type, layer: str, attrs=None, **hooks) -> None:
        if attrs is None:
            attrs = [a for a in cls.__dict__ if not a.startswith("_")]
        for attr in attrs:
            self._method(cls, attr, layer, **hooks)

    def _function(self, module: Any, attr: str, layer: str, name: Optional[str] = None,
                  wrapper: Optional[Callable] = None, **hooks) -> None:
        """Wrap a module-level function everywhere ``repro`` imported it."""
        original = getattr(module, attr)
        new = wrapper or self._wrap(name or f"{layer}.{attr}", layer, original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            if mod.__dict__.get(attr) is original:
                self._patch_attr(mod, attr, new)

    def install(self) -> None:
        """Wrap the public functions of every layer (a no-op while installed)."""
        if self._patches:
            return
        import repro.audit.online as audit_online
        import repro.dag.app as dag_app
        import repro.dag.builder as dag_builder
        import repro.dag.schema as dag_schema
        import repro.kernels.fft as kernels_fft
        import repro.kernels.registry as kernels_registry
        import repro.sched.base as sched_base
        from repro.apps.base import CedrApplication
        from repro.core.api import CedrClient
        from repro.core.spec import API_SPECS
        from repro.faults.inject import FaultInjector
        from repro.metrics.measures import RunResult
        from repro.platforms.platform import PlatformConfig
        from repro.platforms.timing import CostTable, TimingModel
        from repro.runtime.daemon import CedrRuntime
        from repro.sched import SCHEDULERS
        from repro.serve.admission import AdmissionController
        from repro.serve.driver import ServeDriver
        from repro.simcore.engine import Engine
        from repro.telemetry.runtime_metrics import CedrTelemetry
        from repro.telemetry.sampler import SnapshotSampler
        from repro.workload.workload import WorkloadSpec

        values = self.values
        resolved: set = set()

        # simcore: the loop as a span, timers and spawns as counts
        def run_before(args, kwargs):
            return args[0].events_processed

        def run_after(args, kwargs, result, before):
            engine = args[0]
            values["simcore.events"] += engine.events_processed - before
            util = engine.core_utilization()
            values["simcore.util_sum"] += sum(util.values()) / max(1, len(util))
            values["simcore.runs"] += 1

        self._method(Engine, "run", "simcore", name="simcore.Engine.run",
                     before=run_before, after=run_after)
        for attr in ("call_at", "spawn"):
            self._patch_attr(Engine, attr, self._counter(f"simcore.Engine.{attr}",
                                                         Engine.__dict__[attr]))

        # runtime
        self._methods(CedrRuntime, "runtime", ["__init__", "start", "submit", "seal",
                                               "cancel", "post", "push_ready_from_app",
                                               "mean_estimate"])

        def runtime_run_after(args, kwargs, result, token):
            # one run() per cell: the cell's interned cost-table rows
            values["platforms.cost_rows"] += args[0].cost_table.n_rows

        self._method(CedrRuntime, "run", "runtime", after=runtime_run_after)

        # sched: every registered scheduler's round plus the batched helpers
        def sched_before(args, kwargs):
            values["sched.tasks"] += len(args[1])

        for _, cls in SCHEDULERS.items():
            for attr, name, hooks in (
                ("schedule", "sched.schedule", {"before": sched_before}),
                ("round_cost", "sched.round_cost", {}),
                ("compatible", "sched.helper.compatible", {}),
            ):
                # patch the class the call resolves to, once
                owner = next(k for k in cls.__mro__ if attr in k.__dict__)
                if (owner, attr) not in resolved:
                    resolved.add((owner, attr))
                    self._method(owner, attr, "sched", name=name, **hooks)
        for attr in _SCHED_HELPERS:
            self._function(sched_base, attr, "sched", name=f"sched.helper.{attr}")

        # platforms
        self._method(PlatformConfig, "build", "platforms", name="platforms.build")
        self._methods(CostTable, "platforms", _COST_TABLE_METHODS)
        self._methods(TimingModel, "platforms", ["cpu_seconds", "accel_parts", "estimate"])

        # core: libCEDR calls are generators, counted per call
        for spec in API_SPECS.values():
            for attr in (spec.name, spec.name + "_nb"):
                self._patch_attr(CedrClient, attr,
                                 self._counter("core.api_call", CedrClient.__dict__[attr]))

        # kernels: the callables the worker gets from implementation_for
        def kernel_before(args, kwargs):
            values["kernels.bytes_in"] += _payload_bytes(args)

        original_impl_for = kernels_registry.implementation_for

        @functools.wraps(original_impl_for)
        def implementation_for(api, kind):
            # implementations are module-level entries of KERNEL_IMPLS, so
            # one wrapper per entry stays valid for the whole pass
            impl = original_impl_for(api, kind)
            key = (api, kind)
            if key not in self._kernel_wrappers:
                self._kernel_wrappers[key] = self._span(
                    "kernels.call", "kernels", impl, before=kernel_before)
            return self._kernel_wrappers[key]

        self._function(kernels_registry, "implementation_for", "kernels",
                       wrapper=implementation_for)

        def bitrev_before(args, kwargs):
            self.bitrev_lengths.add(args[0] if args else kwargs.get("n"))

        self._function(kernels_fft, "bit_reverse_indices", "kernels",
                       name="kernels.bit_reverse_indices", before=bitrev_before)

        # workload / apps
        self._method(WorkloadSpec, "instantiate", "workload", name="workload.instantiate")
        self._methods(CedrApplication, "workload", ["make_instance"])

        # dag
        self._methods(dag_builder.DagBuilder, "dag", ["build", "build_raw"],
                      name="dag.build")
        self._function(dag_app, "parse_dag", "dag", name="dag.build")
        self._function(dag_schema, "validate_spec", "dag", name="dag.validate_spec")
        self._method(dag_app.DagProgram, "instantiate", "dag", name="dag.DagProgram.instantiate")

        # serve
        self._methods(ServeDriver, "serve", ["arm", "result", "_on_arrival", "_on_app_finished"])
        self._methods(AdmissionController, "serve", name="serve.admission")

        # faults
        self._methods(FaultInjector, "faults", ["arm", "disarm", "end_slowdown", "_fire"])

        # telemetry
        self._methods(CedrTelemetry, "telemetry", name="telemetry.call")
        self._methods(SnapshotSampler, "telemetry", ["arm", "disarm", "_tick"],
                      name="telemetry.call")

        # audit
        self._methods(audit_online.OnlineAuditor, "audit", ["on_round", "on_complete",
                                                            "final_check"],
                      name="audit.check")

        # metrics
        self._method(RunResult, "from_runtime", "metrics", name="metrics.from_runtime")

    def uninstall(self) -> None:
        """Restore every original function, in reverse patch order."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._kernel_wrappers.clear()

    # ------------------------------------------------------------------ #
    # reading the accumulators
    # ------------------------------------------------------------------ #

    def calls_with_prefix(self, prefix: str) -> int:
        return sum(n for name, n in self.calls.items() if name.startswith(prefix))

    def incl_s(self, prefix: str) -> float:
        return sum(ns for name, ns in self.incl_ns.items() if name.startswith(prefix)) / 1e9

    def self_s(self, prefix: str) -> float:
        return sum(ns for name, ns in self.name_self_ns.items() if name.startswith(prefix)) / 1e9

    def layer_self_s(self) -> dict[str, float]:
        return {layer: self.self_ns.get(layer, 0) / 1e9 for layer in LAYERS}
