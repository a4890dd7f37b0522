"""Run a workload's cells, check their outputs, and summarize them.

The harness owns everything the benchmark checks:

* a cell fails on any exception (an unfinished application and an audit
  violation both raise), on a functional mismatch against the
  application's ``reference`` (``kernels-on``), on a broken admission
  ledger (``serve-observed``), and on modelled outputs that differ from the
  first run of the same cell and seed;
* ``sim_digest`` hashes every modelled output of a pass (the full
  ``RunResult``/``ServeResult`` and, with kernels on, every application
  result), so a change that only speeds up the simulator must leave it
  unchanged.
"""

from __future__ import annotations

import dataclasses
import enum
import gc
import hashlib
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = ["canon", "digest", "Harness", "PassStats", "sim_metrics"]


def canon(obj: Any) -> Any:
    """JSON-able canonical form of a model output (floats exact, as hex)."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, enum.Enum):
        return canon(obj.value)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__type__": type(obj).__name__,
            **{f.name: canon(getattr(obj, f.name)) for f in dataclasses.fields(obj)},
        }
    if isinstance(obj, dict):
        return [[canon(k), canon(v)] for k, v in sorted(obj.items(), key=lambda kv: repr(kv[0]))]
    if isinstance(obj, (list, tuple)):
        return [canon(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((canon(x) for x in obj), key=repr)
    if callable(obj):
        return getattr(obj, "__qualname__", type(obj).__qualname__)
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy is a dependency of repro
        np = None
    if np is not None and isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        return {
            "dtype": str(data.dtype),
            "shape": list(data.shape),
            "sha256": hashlib.sha256(data.tobytes()).hexdigest(),
        }
    if np is not None and isinstance(obj, np.generic):
        return canon(obj.item())
    if hasattr(obj, "__dict__"):
        return {"__type__": type(obj).__name__, **{k: canon(v) for k, v in sorted(vars(obj).items())}}
    return repr(obj)


def digest(obj: Any) -> str:
    """SHA-256 of :func:`canon` of *obj*."""
    text = json.dumps(canon(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _run_result(result: Any) -> Any:
    """The RunResult inside a cell result (a ServeResult carries one)."""
    return getattr(result, "run", result)


@dataclass
class PassStats:
    """Host timing and modelled outputs of one pass over the cell list."""

    wall_s: float = 0.0
    tasks: int = 0
    cell_s: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    results: list = field(default_factory=list)

    @property
    def tasks_per_s(self) -> float:
        return self.tasks / self.wall_s if self.wall_s > 0 else 0.0


class Harness:
    """Runs the cells of one workload pass by pass and checks every result.

    The first pass (:meth:`warm_up`) is not timed: it fills lazy imports and
    caches, computes the functional references, and records each cell's
    digest, which later passes must reproduce.
    """

    def __init__(self, cells: list) -> None:
        self.cells = cells
        self.expected: dict[str, str] = {}
        self._refs: dict[tuple, tuple] = {}
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def warm_up(self) -> PassStats:
        return self.run_pass(keep_results=True)

    def run_pass(self, call: Optional[Callable] = None, keep_results: bool = False) -> PassStats:
        """Run every cell once; ``call(cell)`` replaces ``cell.run()``
        (the traced and profiled passes wrap it).  Results are dropped
        after checking unless *keep_results*, so memory does not grow with
        the number of passes."""
        stats = PassStats()
        for cell in self.cells:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                result = cell.run() if call is None else call(cell)
            except Exception:  # a failing cell is counted, never fatal
                elapsed = time.perf_counter() - t0
                self._fail(stats, cell, "raised:\n" + traceback.format_exc())
                stats.wall_s += elapsed
                stats.cell_s.append(elapsed)
                continue
            elapsed = time.perf_counter() - t0
            stats.wall_s += elapsed
            stats.cell_s.append(elapsed)
            # everything below is outside the timed region
            try:
                outputs, reason = self._check(cell, result)
            except Exception:
                outputs, reason = None, "check raised:\n" + traceback.format_exc()
            cell_digest = digest([result, outputs])
            expected = self.expected.setdefault(cell.cell_id, cell_digest)
            if reason is None and cell_digest != expected:
                reason = f"modelled outputs differ between repeats of seed {cell.seed}"
            if reason is not None:
                self._fail(stats, cell, reason)
            else:
                stats.digests.append(cell_digest)
            stats.tasks += _run_result(result).tasks_completed
            if keep_results:
                stats.results.append(result)
            del result
            # every cell starts from a collected heap, which steadies both
            # its timing and the process's peak RSS
            gc.collect()
        return stats

    def _fail(self, stats: PassStats, cell, reason: str) -> None:
        self.failures.append((cell.cell_id, reason))
        stats.digests.append("failed")

    def _check(self, cell, result) -> tuple[Any, Optional[str]]:
        """Functional and ledger checks; returns (outputs, failure reason)."""
        if cell.kind == "serve":
            if result.offered != result.admitted + result.shed:
                return None, (
                    f"admission ledger: offered {result.offered} != admitted "
                    f"{result.admitted} + shed {result.shed}"
                )
            return None, None
        outputs = []
        for a, app in enumerate(cell.recorded_apps):
            made, app.made = app.made, []
            for i, (inst, inputs) in enumerate(made):
                key = (cell.cell_id, a, i)
                in_digest = digest(inputs)
                if key not in self._refs or self._refs[key][0] != in_digest:
                    self._refs[key] = (in_digest, app.reference(inputs))
                reason = _compare(app.name, inst.result, self._refs[key][1])
                if reason is not None:
                    return None, f"{app.name}#{i}: {reason}"
                outputs.append(inst.result)
        return outputs, None


def _compare(app_name: str, got: Any, ref: Any) -> Optional[str]:
    """Functional equivalence with the single-threaded reference."""
    import numpy as np

    if got is None:
        return "no result (kernels did not execute)"
    if app_name == "PD":
        if got.range_bin != ref.range_bin or got.doppler_bin != ref.doppler_bin:
            return (
                f"detection ({got.range_bin}, {got.doppler_bin}) != reference "
                f"({ref.range_bin}, {ref.doppler_bin})"
            )
        return None
    if app_name == "TX":
        if not np.allclose(got, ref, atol=1e-8):
            return "frame differs from reference beyond atol=1e-8"
        return None
    raise ValueError(f"no functional check for application {app_name!r}")


def sim_metrics(results: list) -> dict[str, float]:
    """The paper's modelled quantities over one pass (simulated time).

    Per-application figures are pooled over every application of every
    cell; ``sim_makespan_s`` sums the cells' makespans.  Serve cells add
    the p99 response time over all their completions and their mean
    goodput.
    """
    runs = [_run_result(r) for r in results]
    n_apps = sum(r.n_apps for r in runs)
    exec_times = [t for r in runs for t in r.exec_times]
    out = {
        "sim_exec_ms_per_app": 1e3 * math.fsum(exec_times) / max(1, len(exec_times)),
        "sim_sched_us_per_app": 1e6 * math.fsum(r.sched_overhead_s for r in runs) / max(1, n_apps),
        "sim_runtime_us_per_app": 1e6 * math.fsum(r.runtime_overhead_s for r in runs) / max(1, n_apps),
        "sim_makespan_s": math.fsum(r.makespan for r in runs),
    }
    serves = [r for r in results if hasattr(r, "run")]
    if serves:
        pooled = sorted(t for s in serves for tenant in s.tenants for t in tenant.response_times)
        # nearest-rank p99, as ServeResult.p99_response_s computes it
        rank = max(0, -(-99 * len(pooled) // 100) - 1)
        out["sim_p99_response_ms"] = 1e3 * pooled[rank] if pooled else 0.0
        out["sim_goodput_per_s"] = math.fsum(s.goodput for s in serves) / len(serves)
    return out
