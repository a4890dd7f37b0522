"""Speed-up of the planned radix-2 FFT over rebuilding its tables per call.

``repro.kernels.fft`` caches each size's bit-reversal permutation and
twiddle vectors in a read-only plan, so a transform does only the
butterflies.  This benchmark times the planned :func:`~repro.kernels.fft.fft`
against a frozen copy of the unplanned transform on single-row inputs of
the two transform lengths in perfbench's ``kernels-on`` workload,
``(1, 128)`` and ``(1, 256)``, and asserts the unplanned/planned ratio against ``min_ratio`` in
``baseline.json``.  Both sides are timed interleaved (best-of over
alternating blocks) so machine noise hits them equally; the ratio is
self-relative and needs no host-specific re-recording.  Set
``REPRO_PERF_CHECK=0`` to skip the assertion entirely.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.kernels import fft as F


def _unplanned_fft(x):
    """The forward transform as it was before plans, rebuilding the
    bit-reversal permutation and every twiddle vector on each call."""
    x = np.asarray(x)
    n = x.shape[-1]
    y = np.ascontiguousarray(x, dtype=np.complex128)[..., F.bit_reverse_indices(n)]
    half = 1
    lead = y.shape[:-1]
    while half < n:
        step = half * 2
        twiddle = np.exp(-1.0 * 2j * np.pi * np.arange(half) / step)
        y = y.reshape(*lead, n // step, step)
        even = y[..., :half]
        odd = y[..., half:] * twiddle
        y = np.concatenate((even + odd, even - odd), axis=-1).reshape(*lead, n)
        half = step
    return y


def _interleaved_best(planned, unplanned, x, blocks: int = 60, inner: int = 50):
    """Best per-call time for each side, alternating so noise is shared."""
    best_planned = best_unplanned = float("inf")
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(inner):
            unplanned(x)
        t1 = time.perf_counter()
        for _ in range(inner):
            planned(x)
        t2 = time.perf_counter()
        best_unplanned = min(best_unplanned, (t1 - t0) / inner)
        best_planned = min(best_planned, (t2 - t1) / inner)
    return best_planned, best_unplanned


@pytest.mark.parametrize("n", [128, 256])
def test_planned_fft_beats_unplanned(n, perf_baseline):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(1, n)) + 1j * rng.normal(size=(1, n))
    # smoke both sides (and build the plan) before timing
    assert F.fft(x).tobytes() == _unplanned_fft(x).tobytes()
    best_planned, best_unplanned = _interleaved_best(F.fft, _unplanned_fft, x)
    ratio = best_unplanned / best_planned
    print(
        f"\n(1, {n}) fft: unplanned {best_unplanned * 1e6:.1f}us, "
        f"planned {best_planned * 1e6:.1f}us, speed-up {ratio:.2f}x"
    )
    if os.environ.get("REPRO_PERF_CHECK", "1") == "0":
        return
    entry = perf_baseline["kernel_fft_plan_speedup"]
    assert ratio >= entry["min_ratio"], (
        f"planned fft speed-up {ratio:.2f}x on (1, {n}) is below the "
        f"{entry['min_ratio']:g}x floor recorded in benchmarks/baseline.json "
        f"(measured {entry['measured_ratio'][str(n)]:g}x at recording time)"
    )
