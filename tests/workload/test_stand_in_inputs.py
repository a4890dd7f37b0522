"""Timing-only stand-in inputs: one read-only input per app, same results.

A run that does not execute kernels reads only payload shapes, so every
instance of an application shares the app's
:meth:`~repro.apps.CedrApplication.stand_in_inputs` instead of a freshly
synthesized frame.  These tests pin the contract that makes that safe
(shapes and dtypes never depend on RNG draws), its effect (no per-instance
synthesis, no change to any modelled result or cache key), and that
kernel-executing runs still synthesize every instance from the same RNG
stream as before.
"""

from __future__ import annotations

import collections
import hashlib

import numpy as np
import pytest

from repro.apps import APPS, PulseDoppler, WifiTx
from repro.experiments.cache import cell_digest
from repro.experiments.common import run_once
from repro.platforms import zcu102
from repro.runtime import RuntimeConfig
from repro.serve import ArrivalSpec, ServeConfig, TenantSpec, serve_once
from repro.workload import WorkloadEntry, WorkloadSpec, radar_comms_workload

APP_NAMES = APPS.names()

#: sha256 over the sorted (key, bytes) pairs of the first Pulse Doppler
#: input of ``radar_comms_workload()`` at seed 0 with kernels executing;
#: recorded before timing-only runs stopped synthesizing inputs.
FIRST_PD_INPUT_SHA256 = "309a20f5dffb74d3a925ad352c77e13dc8069f8478836b41aae39462f4b6cd8c"


def _fresh_inputs(app):
    """A copy of *app* whose every instance gets a freshly synthesized
    input, whatever the caller passes: per-instance synthesis as it was
    before the stand-in."""

    class FreshInputs(type(app)):
        def make_instance(self, mode, rng, variant=None, inputs=None):
            fresh = self.make_input(self.fresh_rng)
            return super().make_instance(mode, rng, variant, inputs=fresh)

    clone = object.__new__(FreshInputs)
    clone.__dict__.update(vars(app))
    clone.fresh_rng = np.random.default_rng(2024)
    return clone


def _counting(monkeypatch, *classes):
    """Count ``make_input`` calls per app object on *classes*."""
    calls: collections.Counter = collections.Counter()
    for cls in classes:
        original = cls.make_input

        def counted(self, rng, _original=original):
            calls[id(self)] += 1
            return _original(self, rng)

        monkeypatch.setattr(cls, "make_input", counted)
    return calls


def _workload(app, count=3):
    return WorkloadSpec(name="stand-in", entries=(WorkloadEntry(app, count),))


def _serve(*apps, duration=0.2):
    return ServeConfig(
        tenants=(TenantSpec("t", ArrivalSpec.make("poisson", rate=80.0), apps=apps),),
        duration=duration,
    )


# --------------------------------------------------------------------- #
# the contract the stand-in relies on
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", APP_NAMES)
def test_input_shapes_and_dtypes_do_not_depend_on_the_seed(name):
    app = APPS.get(name).factory()
    a = app.make_input(np.random.default_rng(1))
    b = app.make_input(np.random.default_rng(99))
    assert a.keys() == b.keys()
    for key in a:
        assert np.shape(a[key]) == np.shape(b[key]), key
        assert np.asarray(a[key]).dtype == np.asarray(b[key]).dtype, key


@pytest.mark.parametrize("name", APP_NAMES)
def test_stand_in_is_built_once_and_read_only(name):
    app = APPS.get(name).factory()
    inputs = app.stand_in_inputs()
    assert app.stand_in_inputs() is inputs
    arrays = [v for v in inputs.values() if isinstance(v, np.ndarray)]
    assert arrays
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = arr.flat[0]
    with pytest.raises(TypeError):
        inputs[next(iter(inputs))] = None
    # built the same way every time: default_rng(0), whatever the app object
    again = APPS.get(name).factory().stand_in_inputs()
    for key, value in inputs.items():
        assert np.array_equal(value, again[key]), key


# --------------------------------------------------------------------- #
# same results as per-instance synthesis
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("mode", ["api", "dag"])
@pytest.mark.parametrize("name", APP_NAMES)
def test_timing_only_run_equals_per_instance_synthesis(name, mode, zcu_small):
    app = APPS.get(name).factory()
    rate = 4 * app.frame_mb / 1e-3  # one arrival every 0.25 ms: instances overlap
    shared = run_once(zcu_small, _workload(app), mode, rate, "heft_rt", seed=3)
    fresh = run_once(
        zcu_small, _workload(_fresh_inputs(app)), mode, rate, "heft_rt", seed=3
    )
    assert shared.n_apps == 3
    assert shared == fresh


# --------------------------------------------------------------------- #
# how often inputs are synthesized
# --------------------------------------------------------------------- #


def test_timing_only_batch_runs_synthesize_once_per_app(monkeypatch, zcu_small):
    calls = _counting(monkeypatch, PulseDoppler, WifiTx)
    pd, tx = PulseDoppler(batch=16), WifiTx(n_packets=20, batch=4)
    wl = radar_comms_workload(pd=pd, tx=tx)
    first = run_once(zcu_small, wl, "api", 400.0, "etf", seed=0)
    second = run_once(zcu_small, wl, "api", 400.0, "etf", seed=1)
    assert first.n_apps == second.n_apps == 10
    assert calls == {id(pd): 1, id(tx): 1}


def test_timing_only_serve_window_synthesizes_once_per_app(monkeypatch, zcu_small):
    calls = _counting(monkeypatch, PulseDoppler, WifiTx)
    pd, tx = PulseDoppler(batch=16), WifiTx(n_packets=20, batch=4)
    result = serve_once(zcu_small, _serve(pd, tx), seed=0)
    assert result.admitted > 4
    assert calls == {id(pd): 1, id(tx): 1}


def test_kernel_runs_synthesize_every_instance(monkeypatch, zcu_small):
    calls = _counting(monkeypatch, PulseDoppler, WifiTx)
    pd, tx = PulseDoppler(batch=16), WifiTx(n_packets=20, batch=4)
    run_once(
        zcu_small, radar_comms_workload(n_pd=2, n_tx=3, pd=pd, tx=tx),
        "api", 400.0, "etf", seed=0, execute=True,
    )
    assert calls == {id(pd): 2, id(tx): 3}

    calls.clear()
    config = RuntimeConfig(scheduler="heft_rt", execute_kernels=True)
    result = serve_once(zcu_small, _serve(pd, tx), seed=0, config=config)
    assert result.admitted > 4
    assert sum(calls.values()) == result.admitted


def test_kernel_runs_keep_the_payload_stream():
    class Recorded(PulseDoppler):
        def make_instance(self, mode, rng, variant=None, inputs=None):
            inputs = self.make_input(rng)
            self.made.append(inputs)
            return super().make_instance(mode, rng, variant, inputs=inputs)

    pd = Recorded()
    pd.made = []
    radar_comms_workload(pd=pd).instantiate("api", 200.0, 0, execute=True)
    assert len(pd.made) == 5
    digest = hashlib.sha256()
    for key in sorted(pd.made[0]):
        digest.update(key.encode())
        digest.update(pd.made[0][key].tobytes())
    assert digest.hexdigest() == FIRST_PD_INPUT_SHA256


# --------------------------------------------------------------------- #
# sweep cache keys
# --------------------------------------------------------------------- #


def test_cell_digest_unchanged_by_a_timing_only_run():
    platform = zcu102(n_cpu=3, n_fft=1)
    wl = radar_comms_workload(pd=PulseDoppler(batch=16), tx=WifiTx(n_packets=20, batch=4))
    cell = (platform, wl, "api", 400.0, "etf", 0, False, None)
    before, _ = cell_digest(cell)
    run_once(platform, wl, "api", 400.0, "etf", seed=0)
    after, _ = cell_digest(cell)
    assert before == after
