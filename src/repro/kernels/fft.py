"""Fast Fourier Transform kernels.

Two interchangeable implementations back the ``fft``/``ifft`` libCEDR APIs:

* :func:`fft` / :func:`ifft` - an iterative radix-2 Cooley-Tukey transform
  written from scratch (vectorized over butterflies with NumPy, per the
  hpc-parallel guide's "vectorize the loops" rule).  This plays the role of
  the portable C/C++ implementation every libCEDR API must provide.
* :func:`fft_accel` / :func:`ifft_accel` - thin wrappers over ``numpy.fft``
  standing in for the Xilinx FFT IP / cuFFT paths.  Functionally equivalent
  (tests assert agreement to 1e-8), differing only in provenance, exactly
  like the heterogeneous implementations a libCEDR module registers.

Both operate on the last axis and broadcast over leading axes, so a P x N
pulse matrix transforms all P pulses in one call.

The radix-2 transform's per-size set-up - the bit-reversal permutation and
one twiddle vector per stage - is a *plan* built once per ``(n, inverse)``
by :func:`_plan` (an LRU cache of 64 plans) and stored read-only, so a call
does only the data-dependent butterflies.  The twiddles come from the same
expression and the butterflies run the same floating-point operations in
the same order as an unplanned transform, so results are bit-identical to
rebuilding the tables on every call.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "is_power_of_two",
    "bit_reverse_indices",
    "fft",
    "ifft",
    "fft_accel",
    "ifft_accel",
]


def is_power_of_two(n: int) -> bool:
    """True iff *n* is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def bit_reverse_indices(n: int) -> np.ndarray:
    """Bit-reversal permutation of ``range(n)`` for radix-2 reordering."""
    if not is_power_of_two(n):
        raise ValueError(f"bit reversal needs a power-of-two length, got {n}")
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.uint64)
    rev = np.zeros_like(idx)
    for _ in range(bits):
        rev = (rev << np.uint64(1)) | (idx & np.uint64(1))
        idx >>= np.uint64(1)
    return rev.astype(np.intp)


def _transform_length(x: np.ndarray) -> int:
    """Length of the last axis, which every transform here runs along."""
    if x.ndim == 0:
        raise ValueError(f"FFT input must have at least one axis, got shape {x.shape}")
    return x.shape[-1]


@functools.lru_cache(maxsize=64)
def _plan(n: int, inverse: bool) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The per-size set-up of a radix-2 transform: the bit-reversal
    permutation and one twiddle vector per stage, all read-only."""
    perm = bit_reverse_indices(n)
    perm.flags.writeable = False
    sign = 1.0 if inverse else -1.0
    twiddles = []
    half = 1
    while half < n:
        step = half * 2
        twiddle = np.exp(sign * 2j * np.pi * np.arange(half) / step)
        twiddle.flags.writeable = False
        twiddles.append(twiddle)
        half = step
    return perm, tuple(twiddles)


def _fft_core(x: np.ndarray, inverse: bool) -> np.ndarray:
    x = np.asarray(x)
    n = _transform_length(x)
    if not is_power_of_two(n):
        raise ValueError(
            f"radix-2 FFT requires a power-of-two length, got {n}; "
            "the emulated FFT IP has the same restriction"
        )
    perm, twiddles = _plan(n, inverse)
    y = np.ascontiguousarray(x, dtype=np.complex128)[..., perm]
    lead = y.shape[:-1]
    for twiddle in twiddles:
        half = twiddle.size
        step = half * 2
        y = y.reshape(*lead, n // step, step)
        even = y[..., :half]
        odd = y[..., half:] * twiddle
        # Stack butterflies in place of a per-k Python loop: one vectorized
        # pass per stage, log2(n) stages total.
        y = np.concatenate((even + odd, even - odd), axis=-1).reshape(*lead, n)
    if inverse:
        y /= n
    return y


def fft(x: np.ndarray) -> np.ndarray:
    """Forward DFT of the last axis (from-scratch radix-2, CPU reference)."""
    return _fft_core(x, inverse=False)


def ifft(x: np.ndarray) -> np.ndarray:
    """Inverse DFT of the last axis (from-scratch radix-2, CPU reference)."""
    return _fft_core(x, inverse=True)


def fft_accel(x: np.ndarray) -> np.ndarray:
    """Forward DFT as computed by the emulated FFT IP / CUDA module."""
    x = np.asarray(x)
    if not is_power_of_two(_transform_length(x)):
        raise ValueError("the emulated FFT IP only supports power-of-two sizes")
    return np.fft.fft(x, axis=-1)


def ifft_accel(x: np.ndarray) -> np.ndarray:
    """Inverse DFT as computed by the emulated FFT IP / CUDA module."""
    x = np.asarray(x)
    if not is_power_of_two(_transform_length(x)):
        raise ValueError("the emulated FFT IP only supports power-of-two sizes")
    return np.fft.ifft(x, axis=-1)
