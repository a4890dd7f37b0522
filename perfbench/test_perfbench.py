"""Self-tests of the benchmark.

Run from the repository root with ``python3 -m pytest perfbench -q``.  The
end-to-end tests launch ``run.py`` with ``--seconds 0`` (the minimum of
three timed passes), so the whole file takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for path in (str(ROOT / "src"), str(BENCH_DIR)):
    if path not in sys.path:
        sys.path.insert(0, path)

import catalog  # noqa: E402
from harness import _compare, canon, digest  # noqa: E402
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, build_workload  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------- #
# workload construction
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_is_a_pure_function_of_the_seed(name):
    assert canon(build_workload(name, 3)) == canon(build_workload(name, 3))


def _inputs_digest(name: str, seed: int) -> str:
    """Digest of every synthesized input of a workload's cells."""
    cells = build_workload(name, seed)
    inputs = []
    for cell in cells:
        if cell.kind == "run":
            workload, mode, rate = cell.batch
            workload.instantiate(mode, rate, cell.seed)
            inputs.extend(inp for app in cell.recorded_apps for _, inp in app.made)
    return digest([inputs, [c.seed for c in cells]])


def test_inputs_come_from_the_seed():
    assert _inputs_digest("kernels-on", 5) == _inputs_digest("kernels-on", 5)
    assert _inputs_digest("kernels-on", 5) != _inputs_digest("kernels-on", 6)
    assert _inputs_digest("serve-observed", 5) != _inputs_digest("serve-observed", 6)


def test_default_and_held_out_seeds_differ():
    assert DEFAULT_SEED != HELD_OUT_SEED


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError, match="unknown workload"):
        build_workload("no-such-workload", 0)


# --------------------------------------------------------------------- #
# checks
# --------------------------------------------------------------------- #


def test_functional_check_catches_a_wrong_result():
    import numpy as np

    from repro.apps import PulseDoppler, WifiTx

    rng = np.random.default_rng(0)
    pd, tx = PulseDoppler(), WifiTx(n_packets=4)
    pd_in, tx_in = pd.make_input(rng), tx.make_input(rng)
    pd_ref, tx_ref = pd.reference(pd_in), tx.reference(tx_in)
    assert _compare("PD", pd_ref, pd_ref) is None
    assert _compare("TX", tx_ref.copy(), tx_ref) is None
    wrong = type(pd_ref)(**{**vars(pd_ref), "range_bin": pd_ref.range_bin + 1})
    assert "detection" in _compare("PD", wrong, pd_ref)
    assert "frame differs" in _compare("TX", tx_ref + 1.0, tx_ref)
    assert "no result" in _compare("TX", None, tx_ref)


def test_digest_is_exact_on_floats():
    assert digest([0.1 + 0.2]) != digest([0.3])
    assert digest({"b": 1, "a": 2.0}) == digest({"a": 2.0, "b": 1})


# --------------------------------------------------------------------- #
# the manifest and the emitted metrics
# --------------------------------------------------------------------- #


def test_benchmark_json_matches_the_catalog():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == catalog.manifest()
    assert sorted(catalog.WORKLOAD_WHY) == sorted(WORKLOADS)
    assert [m for m in catalog.END_TO_END if m[0] == "setup_s"] == [
        ("setup_s", "s", "lower", max(m[3] for m in catalog.END_TO_END))
    ]


def test_end_to_end_run_emits_every_metric():
    proc, result = _run("--workload", "kernels-on", "--seconds", "0", "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {name: unit for name, unit, _, _ in catalog.END_TO_END}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, _ in catalog.SIM_METRICS[:4]:
        assert name in proc.stdout
    assert "fail_ratio" in proc.stdout and "sim_digest" in proc.stdout


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_emits_every_layer_metric(name):
    proc, result = _run("--workload", name, "--seconds", "0", "--trace", "1")
    assert result["correct"], proc.stderr
    assert "traced sim_digest equals untraced: True" in proc.stdout
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        n: u for n, u, _ in catalog.PER_LAYER
    }
    # layer self times plus the unattributed rest make up the traced wall time
    layer_total = sum(metrics[m] for m in catalog.LAYER_SELF_METRIC.values())
    assert layer_total + metrics["trace.unattributed_s"] == pytest.approx(
        metrics["trace.wall_s"], rel=1e-9
    )
    assert all(metrics[m] >= 0 for m in catalog.LAYER_SELF_METRIC.values())
    assert metrics["trace.overhead_ratio"] > 0
    assert sum(metrics[f"profile.{p}.share"] for p in catalog.PROFILE_PACKAGES) == (
        pytest.approx(1.0)
    )
    assert metrics["simcore.events"] > 0 and metrics["sched.rounds"] > 0
    observed = ("serve.arrivals", "faults.injected", "telemetry.calls", "audit.checks")
    if name == "serve-observed":
        assert all(metrics[m] > 0 for m in observed)
    else:
        assert all(metrics[m] == 0 for m in observed)
    assert (metrics["kernels.calls"] > 0) == (name == "kernels-on")
    assert (metrics["dag.build_s"] > 0) == (name == "dag-batch")


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "api-batch", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
