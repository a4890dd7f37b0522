"""WiFi TX baseband kernels (scramble - encode - interleave - modulate - IFFT).

The paper's WiFi TX application "generates packets of 64 bits and prepares
for transmission over an arbitrary channel through scrambler, encoder,
modulation, and forward error correction processes", finishing with a
128-point inverse FFT per packet.  The stage kernels below follow the
802.11a signal chain those names refer to:

* scrambler - 7-bit LFSR with polynomial x^7 + x^4 + 1 (involutive);
* convolutional encoder - constraint length 7, rate 1/2, generators
  133/171 octal (the industry-standard pair), with a hard-decision Viterbi
  decoder provided so tests can close the FEC loop;
* block interleaver - the 802.11a row/column spreading permutation
  parameterized by coded bits per symbol;
* modulator - BPSK/QPSK/16-QAM Gray mappings with unit average power;
* OFDM assembly - data + pilot subcarrier layout feeding a 128-point IFFT
  and cyclic-prefix insertion.

Everything is bit-vectorized NumPy; no per-bit Python loops except the
constraint-length recursion inside Viterbi, which loops over trellis steps
but vectorizes over states.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "scramble",
    "conv_encode",
    "viterbi_decode",
    "interleave",
    "deinterleave",
    "modulate",
    "demodulate_hard",
    "ofdm_modulate",
    "add_cyclic_prefix",
    "MODULATIONS",
    "N_SUBCARRIERS",
    "DATA_CARRIERS",
    "PILOT_CARRIERS",
    "PILOT_VALUE",
]

#: OFDM symbol size used by the paper's WiFi TX (128-point IFFT).
N_SUBCARRIERS = 128

#: Gray-mapped constellations, all normalized to unit average power.
MODULATIONS: dict[str, np.ndarray] = {
    "bpsk": np.array([-1.0 + 0j, 1.0 + 0j]),
    "qpsk": np.array([-1 - 1j, -1 + 1j, 1 - 1j, 1 + 1j]) / np.sqrt(2.0),
    "16qam": (
        np.array(
            [
                c_re + 1j * c_im
                for c_re in (-3.0, -1.0, 3.0, 1.0)
                for c_im in (-3.0, -1.0, 3.0, 1.0)
            ]
        )
        / np.sqrt(10.0)
    ),
}

_BITS_PER_SYMBOL = {"bpsk": 1, "qpsk": 2, "16qam": 4}

# Subcarrier plan: 64 data carriers and 4 pilots inside the 128-bin symbol,
# leaving DC and band edges null (guard bands), in the spirit of 802.11a's
# 48+4-of-64 layout scaled to the paper's 128-point transform.
PILOT_CARRIERS = np.array([11, 39, 89, 117])
_used = np.r_[np.arange(6, 40), np.arange(40, 64), np.arange(65, 99), np.arange(99, 123)]
DATA_CARRIERS = np.setdiff1d(_used, PILOT_CARRIERS)[:64]
PILOT_VALUE = 1.0 + 0j


def _as_bits(bits: np.ndarray, name: str = "bits") -> np.ndarray:
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size and not ((arr == 0) | (arr == 1)).all():
        raise ValueError(f"{name} must contain only 0/1 values")
    return arr.astype(np.uint8)


# typed=True: a float seed must still fail in the shift below, not hit the
# entry its equal int left behind
@functools.lru_cache(maxsize=64, typed=True)
def _lfsr_sequence(n: int, seed: int) -> np.ndarray:
    """n outputs of the x^7 + x^4 + 1 LFSR starting from 7-bit *seed*
    (cached per ``(n, seed)``, hence read-only)."""
    if not 1 <= seed <= 127:
        raise ValueError(f"scrambler seed must be a nonzero 7-bit value, got {seed}")
    state = [(seed >> i) & 1 for i in range(7)]  # state[6] = MSB x^7 tap
    out = np.empty(n, dtype=np.uint8)
    for i in range(n):
        feedback = state[6] ^ state[3]
        out[i] = feedback
        state = [feedback] + state[:6]
    out.flags.writeable = False
    return out


def scramble(bits: np.ndarray, seed: int = 0b1011101) -> np.ndarray:
    """802.11-style additive scrambler. Applying twice with the same seed
    restores the input (involution - a property test relies on this)."""
    b = _as_bits(bits)
    return b ^ _lfsr_sequence(b.size, seed)


# Rate-1/2, K=7 convolutional code with generators 133/171 (octal).
_G0, _G1, _K = 0o133, 0o171, 7


def conv_encode(bits: np.ndarray, terminate: bool = True) -> np.ndarray:
    """Rate-1/2 convolutional encoder; output interleaves g0/g1 streams.

    With ``terminate=True`` the encoder is flushed with K-1 zero tail bits
    so the decoder ends in the zero state; output length is
    ``2 * (len(bits) + 6)``.  WiFi TX packets use ``terminate=False`` so a
    64-bit payload maps exactly onto one 128-bit coded block (one OFDM
    symbol), at a small coding-gain cost on the final bits.
    """
    b = _as_bits(bits)
    tail = _K - 1 if terminate else 0
    padded = np.r_[np.zeros(_K - 1, np.uint8), b, np.zeros(tail, np.uint8)]
    n = b.size + tail  # data (+ tail)
    out = np.empty(2 * n, dtype=np.uint8)
    if n == 0:  # nothing to encode; padded is shorter than one window
        return out
    # window[t] holds bits [t .. t+K-1] oldest-first; generator taps are
    # evaluated with the newest bit at the LSB position, matching 802.11a.
    windows = np.lib.stride_tricks.sliding_window_view(padded, _K)[:n]
    weights = 1 << np.arange(_K - 1, -1, -1)
    states = windows @ weights  # newest bit is the low bit
    out[0::2] = _PARITY[states & _G0]
    out[1::2] = _PARITY[states & _G1]
    return out


def _parity(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64).copy()
    p = np.zeros_like(x)
    while x.any():
        p ^= x & 1
        x >>= np.uint64(1)
    return p.astype(np.uint8)


#: parity of every K-bit register value; generator taps index into it
_PARITY = _parity(np.arange(1 << _K))
_PARITY.flags.writeable = False


def viterbi_decode(coded: np.ndarray, terminated: bool = True) -> np.ndarray:
    """Hard-decision Viterbi decoder for :func:`conv_encode`.

    Returns the information bits (tail removed when ``terminated``).  With
    ``terminated=False`` traceback starts from the best-metric end state
    instead of state zero, matching the packet mode of WiFi TX.  Used by
    tests to verify the FEC loop closes and by the WiFi RX example.
    """
    coded = _as_bits(coded, "coded")
    if coded.size % 2:
        raise ValueError("coded stream must have even length (rate 1/2)")
    n_steps = coded.size // 2
    if terminated and n_steps < _K - 1:
        raise ValueError("coded stream shorter than the tail")
    n_states = 1 << (_K - 1)
    states = np.arange(n_states)
    # Precompute branch outputs for input bit 0/1 from each state.  The
    # encoder register value for (state, input) is (state << 1 | input)
    # truncated to K bits with history in the high bits.
    metrics = np.full(n_states, np.inf)
    metrics[0] = 0.0
    backptr = np.empty((n_steps, n_states), dtype=np.int32)
    full = ((states[:, None] << 1) | np.array([0, 1])[None, :]) & ((1 << _K) - 1)
    out0 = _PARITY[full & _G0].astype(np.float64)
    out1 = _PARITY[full & _G1].astype(np.float64)
    next_state = full & (n_states - 1)
    for t in range(n_steps):
        r0, r1 = float(coded[2 * t]), float(coded[2 * t + 1])
        branch = np.abs(out0 - r0) + np.abs(out1 - r1)  # (state, input)
        cand = metrics[:, None] + branch                # arriving metric
        new_metrics = np.full(n_states, np.inf)
        new_back = np.zeros(n_states, dtype=np.int32)
        flat_to = next_state.ravel()
        flat_cost = cand.ravel()
        order = np.argsort(flat_cost, kind="stable")
        seen = np.zeros(n_states, dtype=bool)
        for idx in order:
            s = flat_to[idx]
            if not seen[s]:
                seen[s] = True
                new_metrics[s] = flat_cost[idx]
                new_back[s] = idx  # encodes (prev_state, input)
            if seen.all():
                break
        metrics = new_metrics
        backptr[t] = new_back
    # traceback: from the zero state when tail-flushed, else the best state
    state = 0 if terminated else int(np.argmin(metrics))
    decoded = np.empty(n_steps, dtype=np.uint8)
    for t in range(n_steps - 1, -1, -1):
        idx = backptr[t, state]
        decoded[t] = idx & 1
        state = idx >> 1
    return decoded[: n_steps - (_K - 1)] if terminated else decoded


def interleave(bits: np.ndarray, n_cbps: int | None = None) -> np.ndarray:
    """802.11a-style block interleaver (first permutation, generalized).

    ``n_cbps`` (coded bits per OFDM symbol) defaults to the whole input.
    The permutation spreads adjacent coded bits across distant subcarriers;
    tests assert it is a bijection and that :func:`deinterleave` inverts it.
    """
    b = _as_bits(bits)
    n = n_cbps or b.size
    if n == 0 or b.size % n:
        raise ValueError(f"input length {b.size} is not a multiple of n_cbps={n}")
    perm = _interleave_perm(n)
    return b.reshape(-1, n)[:, perm].reshape(-1)


def deinterleave(bits: np.ndarray, n_cbps: int | None = None) -> np.ndarray:
    """Inverse of :func:`interleave`."""
    b = _as_bits(bits)
    n = n_cbps or b.size
    if n == 0 or b.size % n:
        raise ValueError(f"input length {b.size} is not a multiple of n_cbps={n}")
    perm = _interleave_perm(n)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(n)
    return b.reshape(-1, n)[:, inv].reshape(-1)


@functools.lru_cache(maxsize=64)
def _interleave_perm(n_cbps: int) -> np.ndarray:
    """Output index -> input index permutation (first 802.11a permutation
    generalized to any n_cbps divisible by 16); cached, hence read-only."""
    if n_cbps % 16:
        raise ValueError(f"n_cbps must be divisible by 16, got {n_cbps}")
    k = np.arange(n_cbps)
    i = (n_cbps // 16) * (k % 16) + k // 16
    i.flags.writeable = False
    return i


def modulate(bits: np.ndarray, scheme: str = "qpsk") -> np.ndarray:
    """Map bits onto the chosen constellation (Gray coded, unit power)."""
    if scheme not in MODULATIONS:
        raise KeyError(f"unknown modulation {scheme!r}; options: {sorted(MODULATIONS)}")
    b = _as_bits(bits)
    k = _BITS_PER_SYMBOL[scheme]
    if b.size % k:
        raise ValueError(f"bit count {b.size} is not a multiple of {k} ({scheme})")
    groups = b.reshape(-1, k)
    index = groups @ (1 << np.arange(k - 1, -1, -1))
    return MODULATIONS[scheme][index]


def demodulate_hard(symbols: np.ndarray, scheme: str = "qpsk") -> np.ndarray:
    """Nearest-point hard demodulation (inverse of :func:`modulate`)."""
    if scheme not in MODULATIONS:
        raise KeyError(f"unknown modulation {scheme!r}")
    const = MODULATIONS[scheme]
    symbols = np.asarray(symbols, dtype=np.complex128)
    index = np.argmin(np.abs(symbols[:, None] - const[None, :]), axis=1)
    k = _BITS_PER_SYMBOL[scheme]
    shifts = np.arange(k - 1, -1, -1)
    return ((index[:, None] >> shifts) & 1).astype(np.uint8).reshape(-1)


def ofdm_modulate(symbols: np.ndarray) -> np.ndarray:
    """Place 64 data symbols + pilots onto the 128-bin grid (pre-IFFT).

    Returns the frequency-domain symbol; the caller performs the 128-point
    IFFT through the libCEDR API so it is scheduled as a heterogeneous task.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    if symbols.shape != (DATA_CARRIERS.size,):
        raise ValueError(
            f"expected {DATA_CARRIERS.size} data symbols, got shape {symbols.shape}"
        )
    grid = np.zeros(N_SUBCARRIERS, dtype=np.complex128)
    grid[DATA_CARRIERS] = symbols
    grid[PILOT_CARRIERS] = PILOT_VALUE
    return grid


def add_cyclic_prefix(time_symbol: np.ndarray, cp_len: int = 32) -> np.ndarray:
    """Prepend the last ``cp_len`` samples as the OFDM cyclic prefix."""
    time_symbol = np.asarray(time_symbol)
    if not 0 < cp_len <= time_symbol.shape[-1]:
        raise ValueError(f"cyclic prefix {cp_len} out of range for {time_symbol.shape[-1]}")
    return np.concatenate((time_symbol[..., -cp_len:], time_symbol), axis=-1)
