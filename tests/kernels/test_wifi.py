"""WiFi baseband kernel tests: scrambler, FEC, interleaver, modulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import wifi

bit_arrays = st.lists(st.integers(0, 1), min_size=1, max_size=200).map(
    lambda bits: np.array(bits, dtype=np.uint8)
)
seeds7 = st.integers(min_value=1, max_value=127)


# --------------------------------------------------------------------- #
# scrambler
# --------------------------------------------------------------------- #

@given(bits=bit_arrays, seed=seeds7)
@settings(max_examples=50, deadline=None)
def test_scrambler_is_an_involution(bits, seed):
    assert np.array_equal(wifi.scramble(wifi.scramble(bits, seed), seed), bits)


def test_scrambler_seed_changes_output():
    bits = np.zeros(64, dtype=np.uint8)
    a = wifi.scramble(bits, seed=0b1011101)
    b = wifi.scramble(bits, seed=0b0000001)
    assert not np.array_equal(a, b)


def test_scrambler_whitens_constant_input():
    bits = np.zeros(1024, dtype=np.uint8)
    out = wifi.scramble(bits)
    density = out.mean()
    assert 0.4 < density < 0.6  # LFSR output is balanced


def test_scrambler_rejects_bad_seed():
    with pytest.raises(ValueError):
        wifi.scramble(np.zeros(8, dtype=np.uint8), seed=0)
    with pytest.raises(ValueError):
        wifi.scramble(np.zeros(8, dtype=np.uint8), seed=128)


def test_scrambler_rejects_non_bits():
    with pytest.raises(ValueError):
        wifi.scramble(np.array([0, 2, 1], dtype=np.uint8))


# --------------------------------------------------------------------- #
# convolutional code + Viterbi
# --------------------------------------------------------------------- #

@given(bits=bit_arrays)
@settings(max_examples=30, deadline=None)
def test_fec_roundtrip_terminated(bits):
    coded = wifi.conv_encode(bits)
    assert coded.size == 2 * (bits.size + 6)
    assert np.array_equal(wifi.viterbi_decode(coded), bits)


@given(bits=st.lists(st.integers(0, 1), min_size=16, max_size=96).map(
    lambda b: np.array(b, dtype=np.uint8)))
@settings(max_examples=30, deadline=None)
def test_fec_roundtrip_packet_mode(bits):
    coded = wifi.conv_encode(bits, terminate=False)
    assert coded.size == 2 * bits.size
    assert np.array_equal(wifi.viterbi_decode(coded, terminated=False), bits)


def test_viterbi_corrects_isolated_bit_errors(rng):
    bits = rng.integers(0, 2, 48).astype(np.uint8)
    coded = wifi.conv_encode(bits)
    corrupted = coded.copy()
    corrupted[10] ^= 1
    corrupted[60] ^= 1  # two well-separated hard errors
    assert np.array_equal(wifi.viterbi_decode(corrupted), bits)


def test_viterbi_rejects_odd_length():
    with pytest.raises(ValueError):
        wifi.viterbi_decode(np.zeros(7, dtype=np.uint8))


def test_encoder_output_is_binary(rng):
    coded = wifi.conv_encode(rng.integers(0, 2, 64).astype(np.uint8))
    assert set(np.unique(coded)) <= {0, 1}


# --------------------------------------------------------------------- #
# interleaver
# --------------------------------------------------------------------- #

@given(
    n_blocks=st.integers(1, 4),
    n_cbps=st.sampled_from([16, 48, 128, 192]),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=30, deadline=None)
def test_interleaver_roundtrip(n_blocks, n_cbps, seed):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, n_blocks * n_cbps).astype(np.uint8)
    out = wifi.interleave(bits, n_cbps)
    assert np.array_equal(wifi.deinterleave(out, n_cbps), bits)


def test_interleaver_is_a_permutation():
    n = 128
    marked = np.arange(n) % 2  # not used for perm check, just type
    perm_in = np.arange(n)
    out = wifi.interleave((perm_in % 2).astype(np.uint8), n)
    assert out.size == n
    # spreading property: adjacent input bits are not adjacent in output
    spread = wifi._interleave_perm(n)
    assert sorted(spread.tolist()) == list(range(n))
    gaps = np.abs(np.diff(np.argsort(spread)))
    assert gaps.min() >= 8  # adjacent coded bits separated by >= n/16


def test_interleaver_length_errors():
    with pytest.raises(ValueError):
        wifi.interleave(np.zeros(100, dtype=np.uint8), 48)
    with pytest.raises(ValueError):
        wifi.interleave(np.zeros(24, dtype=np.uint8), 24)  # not /16


# --------------------------------------------------------------------- #
# modulation + OFDM assembly
# --------------------------------------------------------------------- #

@given(
    scheme=st.sampled_from(["bpsk", "qpsk", "16qam"]),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=30, deadline=None)
def test_modulation_roundtrip(scheme, seed):
    rng = np.random.default_rng(seed)
    k = {"bpsk": 1, "qpsk": 2, "16qam": 4}[scheme]
    bits = rng.integers(0, 2, 24 * k).astype(np.uint8)
    symbols = wifi.modulate(bits, scheme)
    assert symbols.size == 24
    assert np.array_equal(wifi.demodulate_hard(symbols, scheme), bits)


def test_constellations_have_unit_average_power():
    for name, const in wifi.MODULATIONS.items():
        power = np.mean(np.abs(const) ** 2)
        assert power == pytest.approx(1.0), name


def test_modulate_errors():
    with pytest.raises(KeyError):
        wifi.modulate(np.zeros(4, dtype=np.uint8), "8psk")
    with pytest.raises(ValueError):
        wifi.modulate(np.zeros(3, dtype=np.uint8), "qpsk")


def test_ofdm_grid_layout(rng):
    symbols = (rng.normal(size=64) + 1j * rng.normal(size=64)) / np.sqrt(2)
    grid = wifi.ofdm_modulate(symbols)
    assert grid.shape == (wifi.N_SUBCARRIERS,)
    assert np.allclose(grid[wifi.PILOT_CARRIERS], wifi.PILOT_VALUE)
    assert np.allclose(grid[wifi.DATA_CARRIERS], symbols)
    used = set(wifi.DATA_CARRIERS.tolist()) | set(wifi.PILOT_CARRIERS.tolist())
    unused = [i for i in range(wifi.N_SUBCARRIERS) if i not in used]
    assert np.allclose(grid[unused], 0.0)
    assert 0 in unused  # DC stays null


def test_ofdm_wrong_symbol_count_rejected(rng):
    with pytest.raises(ValueError):
        wifi.ofdm_modulate(np.zeros(63, dtype=complex))


def test_cyclic_prefix_is_cyclic(rng):
    sym = rng.normal(size=128) + 1j * rng.normal(size=128)
    out = wifi.add_cyclic_prefix(sym, 32)
    assert out.shape == (160,)
    assert np.allclose(out[:32], sym[-32:])
    assert np.allclose(out[32:], sym)


def test_cyclic_prefix_bounds():
    sym = np.zeros(64, dtype=complex)
    with pytest.raises(ValueError):
        wifi.add_cyclic_prefix(sym, 0)
    with pytest.raises(ValueError):
        wifi.add_cyclic_prefix(sym, 65)


# --------------------------------------------------------------------- #
# cached tables and input validation
# --------------------------------------------------------------------- #

def test_conv_encode_empty_payload():
    for terminate, size in ((False, 0), (True, 2 * 6)):
        coded = wifi.conv_encode(np.array([], np.uint8), terminate=terminate)
        assert coded.dtype == np.uint8
        assert coded.size == size
    assert not wifi.conv_encode(np.array([], np.uint8)).any()  # tail is all zeros


def test_parity_table_matches_the_loop():
    values = np.arange(1 << wifi._K)
    assert wifi._PARITY.dtype == np.uint8
    assert np.array_equal(wifi._PARITY, wifi._parity(values))
    assert wifi._PARITY.tolist() == [bin(v).count("1") % 2 for v in range(128)]


def test_cached_tables_are_read_only():
    for table in (wifi._PARITY, wifi._lfsr_sequence(64, 93), wifi._interleave_perm(128)):
        with pytest.raises(ValueError):
            table[0] = 1


@pytest.mark.parametrize(
    "bits",
    [
        np.array([0, 1, 1], np.uint8),
        np.array([0, 2], np.uint8),
        np.array([True, False]),
        np.array([0.0, 1.0]),
        np.array([0.5, 1.0]),
        np.array([np.nan, 1.0]),
        np.array([2, 0]),
        np.array([-1, 0]),
        np.array([1 + 1j]),
        np.array(["0", "1"]),
        np.array(["a"]),
        np.array([0, 1], dtype=object),
        np.array([1.0, True], dtype=object),
        np.array([0, "a"], dtype=object),
        np.array([None, 1], dtype=object),
        np.array([], np.uint8),
        np.array([], np.float64),
    ],
    ids=lambda a: f"{a.dtype}:{a.tolist()}",
)
def test_as_bits_accepts_what_isin_accepted(bits):
    isin_accepts = not bits.size or bool(np.isin(bits, (0, 1)).all())
    try:
        out = wifi._as_bits(bits)
    except ValueError:
        assert not isin_accepts
    else:
        assert isin_accepts
        assert out.dtype == np.uint8 and out.shape == bits.shape


def test_outputs_do_not_alias_cached_tables(rng):
    bits = rng.integers(0, 2, 128).astype(np.uint8)
    scrambled = wifi.scramble(bits)
    interleaved = wifi.interleave(bits, 128)
    expected_s, expected_i = scrambled.copy(), interleaved.copy()
    scrambled ^= 1
    interleaved ^= 1
    assert np.array_equal(wifi.scramble(bits), expected_s)
    assert np.array_equal(wifi.interleave(bits, 128), expected_i)
    deinterleaved = wifi.deinterleave(expected_i, 128)
    deinterleaved ^= 1
    assert np.array_equal(wifi.deinterleave(expected_i, 128), bits)
