"""repro.audit - the run-validation layer: every run self-verifying.

Three surfaces over one invariant catalog:

* :mod:`repro.audit.invariants` - ~a dozen machine-verifiable properties
  of a finished run (causality, exactly-once, conservation under faults,
  PE support/exclusivity, capacity, clock/queue/telemetry consistency,
  cost-row freshness), checked over an :class:`AuditView` built from a
  live runtime or a saved :class:`~repro.runtime.Logbook` dump;
* :mod:`repro.audit.online` - the same properties enforced *during* the
  run, hooked into the daemon's dispatch path and the workers' completion
  path behind ``RuntimeConfig(audit=True)`` / ``repro run --audit``;
* :mod:`repro.audit.oracle` - differential validation: paired
  configurations (serial/jobs, cached/uncached, scalar/cost-table,
  telemetry on/off, audit on/off) that must produce bit-identical
  ``RunResult``s, exposed as ``repro audit diff``.
"""

from .invariants import (
    CATALOG,
    AuditError,
    AuditReport,
    AuditView,
    AuditViolation,
    Invariant,
    audit_logbook,
    audit_runtime,
    audit_view,
)
from .online import OnlineAuditor
from .oracle import (
    DEFAULT_VARIANTS,
    SERVE_VARIANTS,
    OracleReport,
    VariantOutcome,
    assert_identical,
    diff_results,
    diff_run,
    diff_serve,
    diff_serve_results,
)

__all__ = [
    "AuditViolation",
    "AuditError",
    "AuditView",
    "AuditReport",
    "Invariant",
    "CATALOG",
    "audit_view",
    "audit_runtime",
    "audit_logbook",
    "OnlineAuditor",
    "diff_results",
    "diff_serve_results",
    "assert_identical",
    "diff_run",
    "diff_serve",
    "OracleReport",
    "VariantOutcome",
    "DEFAULT_VARIANTS",
    "SERVE_VARIANTS",
]
