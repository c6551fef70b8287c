"""Observability: zero-drift tracing and mergeable service metrics.

Two small modules, one contract (borrowed from :mod:`repro.core.cancel`):
instrumentation must be **bit-identity-invisible** — an armed scope never
changes a probe, a verdict, or a schedule — and near-zero-cost when
disarmed (one thread-local read per seam).

* :mod:`repro.obs.trace` — :class:`TraceScope` / :func:`span`: a
  thread-local counter+span scope with an injectable monotonic clock.
  The solver seams (probe plans, accept memos, grid dispatch,
  ItemStore bulk emits) report into the
  current scope when one is armed and do nothing otherwise.
* :mod:`repro.obs.metrics` — single-writer counters and log-bucketed
  latency :class:`Histogram`\\ s for the service request lifecycle
  (admission → queue → assembly → solve → encode).  Mergeable and
  JSON-exact, so process-shard children can piggyback their deltas on
  result frames and the parent can fold them into one backend-agnostic
  snapshot.
"""

from .metrics import (
    STAGES,
    Histogram,
    Metrics,
    RequestTimes,
    render_prometheus,
)
from .trace import (
    TraceScope,
    TraceWriter,
    count,
    count_probe,
    current_scope,
    span,
)

__all__ = [
    "STAGES",
    "Histogram",
    "Metrics",
    "RequestTimes",
    "TraceScope",
    "TraceWriter",
    "count",
    "count_probe",
    "current_scope",
    "render_prometheus",
    "span",
]
