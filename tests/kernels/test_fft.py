"""FFT kernel tests: the from-scratch radix-2 transform vs numpy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import fft as F

pow2_sizes = st.sampled_from([2, 4, 8, 16, 64, 128, 256, 1024])


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_is_power_of_two():
    assert F.is_power_of_two(1)
    assert F.is_power_of_two(1024)
    assert not F.is_power_of_two(0)
    assert not F.is_power_of_two(3)
    assert not F.is_power_of_two(-4)


def test_bit_reverse_is_a_permutation():
    for n in (2, 8, 64, 256):
        idx = F.bit_reverse_indices(n)
        assert sorted(idx.tolist()) == list(range(n))


def test_bit_reverse_is_an_involution():
    idx = F.bit_reverse_indices(128)
    assert np.array_equal(idx[idx], np.arange(128))


def test_bit_reverse_rejects_non_pow2():
    with pytest.raises(ValueError):
        F.bit_reverse_indices(12)


@given(n=pow2_sizes, seed=st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_fft_matches_numpy(n, seed):
    x = random_complex(np.random.default_rng(seed), n)
    assert np.allclose(F.fft(x), np.fft.fft(x), atol=1e-8)


@given(n=pow2_sizes, seed=st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_ifft_roundtrip_is_identity(n, seed):
    x = random_complex(np.random.default_rng(seed), n)
    assert np.allclose(F.ifft(F.fft(x)), x, atol=1e-10)


@given(seed=st.integers(0, 2**31))
@settings(max_examples=20, deadline=None)
def test_fft_linearity(seed):
    rng = np.random.default_rng(seed)
    x = random_complex(rng, 128)
    y = random_complex(rng, 128)
    a, b = 2.5, -1.25 + 0.5j
    assert np.allclose(F.fft(a * x + b * y), a * F.fft(x) + b * F.fft(y), atol=1e-8)


@given(seed=st.integers(0, 2**31))
@settings(max_examples=20, deadline=None)
def test_parseval_energy_preserved(seed):
    x = random_complex(np.random.default_rng(seed), 256)
    time_energy = np.sum(np.abs(x) ** 2)
    freq_energy = np.sum(np.abs(F.fft(x)) ** 2) / 256
    assert np.isclose(time_energy, freq_energy, rtol=1e-10)


def test_batched_transform_matches_per_row(rng):
    x = random_complex(rng, (7, 64))
    batched = F.fft(x)
    rows = np.stack([F.fft(row) for row in x])
    assert np.allclose(batched, rows, atol=1e-10)
    assert np.allclose(batched, np.fft.fft(x, axis=-1), atol=1e-8)


def test_three_dimensional_batch(rng):
    x = random_complex(rng, (2, 3, 32))
    assert np.allclose(F.fft(x), np.fft.fft(x, axis=-1), atol=1e-8)


def test_real_input_promoted(rng):
    x = rng.normal(size=64)
    assert np.allclose(F.fft(x), np.fft.fft(x), atol=1e-8)


def test_dc_impulse_spectra():
    delta = np.zeros(16, dtype=complex)
    delta[0] = 1.0
    assert np.allclose(F.fft(delta), np.ones(16), atol=1e-12)
    const = np.ones(16, dtype=complex)
    spec = F.fft(const)
    assert np.isclose(spec[0], 16)
    assert np.allclose(spec[1:], 0, atol=1e-12)


def test_non_pow2_rejected():
    with pytest.raises(ValueError):
        F.fft(np.zeros(12, dtype=complex))
    with pytest.raises(ValueError):
        F.ifft(np.zeros(7, dtype=complex))


def test_accel_variants_match_reference(rng):
    x = random_complex(rng, (4, 256))
    assert np.allclose(F.fft_accel(x), F.fft(x), atol=1e-8)
    assert np.allclose(F.ifft_accel(x), F.ifft(x), atol=1e-8)


def test_accel_variants_enforce_pow2():
    with pytest.raises(ValueError):
        F.fft_accel(np.zeros(10, dtype=complex))
    with pytest.raises(ValueError):
        F.ifft_accel(np.zeros(10, dtype=complex))


@pytest.mark.parametrize("fn", [F.fft, F.ifft, F.fft_accel, F.ifft_accel])
def test_zero_dim_input_rejected_with_shape(fn):
    with pytest.raises(ValueError, match=r"shape \(\)"):
        fn(np.float64(3.0))


# --------------------------------------------------------------------- #
# plans: bit-identity with the unplanned transform, read-only tables
# --------------------------------------------------------------------- #

def _unplanned_fft_core(x, inverse):
    """The radix-2 transform as it was before plans, rebuilding the
    bit-reversal permutation and every twiddle vector on each call.
    Frozen as the bit-identity reference: keep it as it is."""
    x = np.asarray(x)
    n = x.shape[-1]
    y = np.ascontiguousarray(x, dtype=np.complex128)[..., F.bit_reverse_indices(n)]
    sign = 1.0 if inverse else -1.0
    half = 1
    lead = y.shape[:-1]
    while half < n:
        step = half * 2
        twiddle = np.exp(sign * 2j * np.pi * np.arange(half) / step)
        y = y.reshape(*lead, n // step, step)
        even = y[..., :half]
        odd = y[..., half:] * twiddle
        y = np.concatenate((even + odd, even - odd), axis=-1).reshape(*lead, n)
        half = step
    if inverse:
        y /= n
    return y


PLAN_SIZES = [1 << k for k in range(13)]  # 1 .. 4096
LEADING_SHAPES = [(), (1,), (3,), (2, 3)]


def _plan_input(rng, kind, shape):
    if kind == "complex":
        return random_complex(rng, shape)
    if kind == "real":
        return rng.normal(size=shape)
    if kind == "int":  # small integers: exact zeros exercise signed-zero results
        return rng.integers(-3, 4, size=shape)
    # non-contiguous: the transpose of a C-ordered array of the reversed shape
    return random_complex(rng, shape[::-1]).T


@pytest.mark.parametrize("inverse", [False, True], ids=["fft", "ifft"])
@pytest.mark.parametrize("kind", ["complex", "real", "int", "transposed"])
def test_planned_transform_is_bit_identical_to_unplanned(kind, inverse):
    rng = np.random.default_rng(13)
    transform = F.ifft if inverse else F.fft
    for n in PLAN_SIZES:
        for lead in LEADING_SHAPES:
            x = _plan_input(rng, kind, (*lead, n))
            expected = _unplanned_fft_core(x, inverse)
            got = transform(x)
            assert got.shape == expected.shape and got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes(), (n, lead)


def test_plan_is_built_once_per_size_and_direction():
    assert F._plan(64, False) is F._plan(64, False)
    assert F._plan(64, False) is not F._plan(64, True)


@pytest.mark.parametrize("inverse", [False, True])
def test_plan_arrays_are_read_only(inverse):
    perm, twiddles = F._plan(256, inverse)
    assert len(twiddles) == 8
    for table in (perm, *twiddles):
        with pytest.raises(ValueError):
            table[0] = 0


def test_bit_reverse_indices_stays_fresh_and_writable(rng):
    x = random_complex(rng, 128)
    before = F.fft(x)  # builds the plan for n = 128
    idx = F.bit_reverse_indices(128)
    idx[:] = 0  # the caller's own copy: must not reach the cached plan
    assert not np.array_equal(F.bit_reverse_indices(128), idx)
    assert F.fft(x).tobytes() == before.tobytes()
