"""Application base class: one source of truth, three execution forms.

Every paper application (Pulse Doppler, WiFi TX, Lane Detection) derives
from :class:`CedrApplication` and provides:

* ``reference`` - plain NumPy golden implementation (what the original
  single-threaded C code computes);
* ``api_main`` - the CEDR-API form: a generator using libCEDR calls
  (blocking or non-blocking per ``variant``), runnable against both the
  runtime-backed client and the standalone CPU library;
* ``build_dag`` - the baseline DAG-based CEDR form with the whole
  application (including non-accelerable regions) carved into nodes.

``make_instance`` packages either form into a runtime-submittable
:class:`~repro.runtime.app.AppInstance`.  The ``batch`` knob groups
fine-grained kernel invocations (e.g. individual 1024-point FFT rows) into
one schedulable task; ``batch=1`` reproduces the paper's task granularity
exactly while larger values keep big sweeps tractable - see DESIGN.md's
scale note.

Timing-only runs (``execute_kernels=False``) never read payload values:
call costs depend on shapes alone.  :meth:`CedrApplication.stand_in_inputs`
gives such runs one read-only input per application, built once, instead
of a freshly synthesized frame per instance.
"""

from __future__ import annotations

import abc
import weakref
from types import MappingProxyType
from typing import Any, Generator, Literal, Mapping, Optional

import numpy as np

from repro.dag import DagProgram
from repro.runtime.app import API_MODE, DAG_MODE, AppInstance

__all__ = ["CedrApplication", "Variant", "chunk_slices"]

Variant = Literal["blocking", "nonblocking"]


#: app -> its read-only stand-in input (see ``stand_in_inputs``).  Kept
#: outside the app so the app's attributes stay its configuration only: the
#: sweep cache keys apps by ``vars(app)`` and ``--jobs`` pickles them.
_STAND_INS: weakref.WeakKeyDictionary[CedrApplication, Mapping[str, Any]] = (
    weakref.WeakKeyDictionary()
)


def chunk_slices(n: int, batch: int) -> list[slice]:
    """Split ``range(n)`` into contiguous slices of at most ``batch``."""
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    return [slice(i, min(i + batch, n)) for i in range(0, n, batch)]


class CedrApplication(abc.ABC):
    """One real-life application in all its CEDR forms."""

    #: short name used in logs and figures (e.g. "PD", "TX", "LD")
    name: str = "app"

    #: API-mode call style used by the paper-configuration experiments.
    #: PD and TX are latency-bound request/response apps written with the
    #: straightforward blocking APIs; Lane Detection is the throughput app
    #: whose phases fan out through the non-blocking APIs (Section II-C).
    default_variant: Variant = "blocking"

    @property
    @abc.abstractmethod
    def frame_mb(self) -> float:
        """Frame size in megabits (the paper's injection-rate unit)."""

    @abc.abstractmethod
    def make_input(self, rng: np.random.Generator) -> dict[str, Any]:
        """Synthesize one frame of input data."""

    @abc.abstractmethod
    def reference(self, inputs: dict[str, Any]) -> Any:
        """Golden single-threaded NumPy result for *inputs*."""

    @abc.abstractmethod
    def api_main(
        self, lib, inputs: dict[str, Any], variant: Variant = "blocking"
    ) -> Generator:
        """CEDR-API ``main``: yields libCEDR requests, returns the result."""

    @abc.abstractmethod
    def build_dag(self, inputs: dict[str, Any]) -> tuple[DagProgram, dict[str, Any]]:
        """DAG-based form: (program, initial state) for one frame."""

    # ------------------------------------------------------------------ #

    def make_instance(
        self,
        mode: str,
        rng: np.random.Generator,
        variant: Optional[Variant] = None,
        inputs: Optional[Mapping[str, Any]] = None,
    ) -> AppInstance:
        """Create a submittable instance of this application.

        ``mode`` is ``"dag"`` or ``"api"``; ``variant`` defaults to the
        app's :attr:`default_variant`; fresh input data is synthesized from
        *rng* unless *inputs* is supplied.  Timing-only callers pass
        ``inputs=self.stand_in_inputs()`` (and may pass ``rng=None``), so no
        payload is synthesized and no RNG is drawn from.
        """
        variant = variant or self.default_variant
        inputs = inputs if inputs is not None else self.make_input(rng)
        if mode == DAG_MODE:
            program, state = self.build_dag(inputs)
            return AppInstance(
                name=self.name, mode=DAG_MODE, frame_mb=self.frame_mb,
                dag=program, initial_state=state,
            )
        if mode == API_MODE:
            def main_factory(lib, _inputs=inputs, _variant=variant):
                return self.api_main(lib, _inputs, variant=_variant)

            return AppInstance(
                name=self.name, mode=API_MODE, frame_mb=self.frame_mb,
                main_factory=main_factory,
            )
        raise ValueError(f"unknown mode {mode!r} (use 'dag' or 'api')")

    def stand_in_inputs(self) -> Mapping[str, Any]:
        """This app's shared input for timing-only runs, built on first use.

        It is ``make_input(default_rng(0))`` behind a read-only mapping,
        with every array made read-only, and the same object on every call:
        a timing-only run reads only payload shapes, so one stand-in serves
        every instance, and a path that wrote into it would raise instead
        of leaking state from one instance into the next.
        """
        inputs = _STAND_INS.get(self)
        if inputs is None:
            made = self.make_input(np.random.default_rng(0))
            for value in made.values():
                if isinstance(value, np.ndarray):
                    value.flags.writeable = False
            inputs = _STAND_INS[self] = MappingProxyType(made)
        return inputs

    # -- shared helpers ---------------------------------------------------- #

    @staticmethod
    def _or_fallback(result: Any, fallback: Any, executes: bool) -> Any:
        """Pick the kernel result, or a same-shaped stand-in when the run is
        timing-only (``execute_kernels=False``) so downstream calls still
        carry correctly-sized payloads."""
        return result if executes else fallback

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name} frame={self.frame_mb:.2f}Mb>"


def work_for_elems(n_elems: float, ns_per_elem: float = 8.0) -> float:
    """Seconds-at-1GHz for a light per-element CPU pass (copies, transposes,
    thresholding).  Used by apps to cost their non-kernel regions."""
    return n_elems * ns_per_elem * 1e-9


__all__.append("work_for_elems")
