"""Registry-generated API surface: parity with the hand-written signatures,
plus the :func:`wait_any` synchronization primitive."""

import inspect

import numpy as np
import pytest

from repro.core import (
    API_SPECS,
    CedrClient,
    Request,
    StandaloneCedr,
    payload_bytes,
    run_standalone,
    wait_all,
    wait_any,
)
from repro.core.handles import CedrRequest, ImmediateRequest
from repro.platforms import zcu102
from repro.runtime import API_MODE, AppInstance, CedrRuntime, RuntimeConfig


def run_api_app(main_factory, scheduler="eft", seed=3, **cfg):
    platform = zcu102(n_cpu=3, n_fft=1).build(seed=seed)
    runtime = CedrRuntime(platform, RuntimeConfig(scheduler=scheduler, **cfg))
    runtime.start()
    app = AppInstance(name="t", mode=API_MODE, frame_mb=0.1, main_factory=main_factory)
    runtime.submit(app, at=0.0)
    runtime.seal()
    runtime.run()
    return app, runtime


# --------------------------------------------------------------------- #
# generated surface parity
# --------------------------------------------------------------------- #

def test_spec_table_covers_the_paper_apis():
    assert set(API_SPECS) == {"fft", "ifft", "zip", "gemm"}
    assert API_SPECS["fft"].arity == 1
    assert API_SPECS["zip"].arity == 2
    assert API_SPECS["gemm"].arity == 2


@pytest.mark.parametrize("cls", [CedrClient, StandaloneCedr])
def test_generated_methods_keep_the_handwritten_signatures(cls):
    for name, spec in API_SPECS.items():
        expected = ["self", "x"] if spec.arity == 1 else ["self", "a", "b"]
        for method_name in (name, f"{name}_nb"):
            method = getattr(cls, method_name)
            params = list(inspect.signature(method).parameters)
            assert params == expected, f"{cls.__name__}.{method_name}"
            assert method.__name__ == method_name
            assert method.__qualname__ == f"{cls.__name__}.{method_name}"
            assert method.__doc__  # help() keeps working on generated methods


def test_every_spec_has_both_variants_on_both_classes():
    for name in API_SPECS:
        for cls in (CedrClient, StandaloneCedr):
            assert callable(getattr(cls, name))
            assert callable(getattr(cls, f"{name}_nb"))


def test_payload_bytes_unknown_api_is_free():
    assert payload_bytes("warp_drive", {"n": 64}) == 0.0
    assert payload_bytes("fft", {"n": 64, "batch": 1}) > 0.0


def test_handles_share_one_protocol_base():
    assert issubclass(CedrRequest, Request)
    assert issubclass(ImmediateRequest, Request)
    with pytest.raises(TypeError):
        Request()  # abstract


# --------------------------------------------------------------------- #
# wait_any
# --------------------------------------------------------------------- #

def test_wait_any_empty_window_raises():
    gen = wait_any([])
    with pytest.raises(ValueError, match="at least one"):
        next(gen)


def test_wait_any_returns_first_completion(rng):
    small = rng.normal(size=64) + 0j
    big = rng.normal(size=2048) + 0j

    def main(lib):
        reqs = []
        for x in (big, small, big):
            reqs.append((yield from lib.fft_nb(x)))
        idx, first = yield from wait_any(reqs)
        assert reqs[idx].test()
        rest = yield from wait_all(r for i, r in enumerate(reqs) if i != idx)
        return idx, first, rest

    app, _ = run_api_app(main, execute_kernels=False)
    idx, first, rest = app.result
    assert 0 <= idx < 3
    assert len(rest) == 2


def test_wait_any_ties_resolve_to_lowest_index(rng):
    x = rng.normal(size=64) + 0j

    def main(lib):
        r1 = yield from lib.fft_nb(x)
        r2 = yield from lib.fft_nb(x)
        yield from wait_all([r1, r2])  # both already complete
        idx, _ = yield from wait_any([r2, r1])
        return idx

    app, _ = run_api_app(main)
    assert app.result == 0


def test_wait_any_result_is_correct(rng):
    x = rng.normal(size=128) + 0j

    def main(lib):
        req = yield from lib.fft_nb(x)
        idx, out = yield from wait_any([req])
        return idx, out

    app, _ = run_api_app(main)
    idx, out = app.result
    assert idx == 0
    assert np.allclose(out, np.fft.fft(x), atol=1e-8)


def test_wait_any_standalone_parity(rng):
    """The exact same main works in standalone mode (lowest-index done)."""
    x = rng.normal(size=64) + 1j * rng.normal(size=64)

    def main(lib):
        reqs = []
        for data in (x, 2 * x):
            reqs.append((yield from lib.fft_nb(data)))
        idx, first = yield from wait_any(reqs)
        rest = yield from wait_all(r for i, r in enumerate(reqs) if i != idx)
        return idx, first, rest[0]

    s_idx, s_first, s_rest = run_standalone(main)
    assert s_idx == 0  # ImmediateRequests are all done: lowest index wins
    app, _ = run_api_app(main)
    r_idx, r_first, r_rest = app.result
    # results cover the same pair regardless of completion order
    got_s = sorted([np.abs(s_first).sum(), np.abs(s_rest).sum()])
    got_r = sorted([np.abs(r_first).sum(), np.abs(r_rest).sum()])
    assert np.allclose(got_s, got_r, atol=1e-8)


@pytest.mark.parametrize("api", ["fft", "ifft", "fft_nb", "ifft_nb"])
def test_zero_d_fft_input_raises_the_same_error_in_both_modes(api):
    scalar = np.complex128(1.0)
    expected = "FFT input must have at least one axis, got shape ()"

    def main(lib):
        try:
            yield from getattr(lib, api)(scalar)
        except ValueError as exc:
            return str(exc)
        return None

    assert run_standalone(main) == expected
    app, _ = run_api_app(main)
    assert app.result == expected
