"""Telemetry for the task graph and the distributed services (stdlib-only).

Two pillars, both off by default and strictly observe-only (the
byte-identity invariant — serial vs parallel vs warm vs traced report all
identical — is the design constraint, enforced by tests/test_obs.py):

* :mod:`repro.obs.tracing` — span-based structured tracing.  Every executed
  task-graph node, cache lookup, harness run and explore generation opens a
  span (trace id / span id / parent id, wall-clock start + monotonic
  duration, task-kind and cache-hit attributes).  Context propagates across
  processes inside task specs and across HTTP hops as headers, so one
  distributed report run yields one coherent trace.  Spans stream to a
  JSONL sink named by ``$REPRO_TRACE``; ``repro trace`` renders them.
* :mod:`repro.obs.metrics` — a process-local registry of counters, gauges
  and histograms rendered in Prometheus text exposition format, and the
  parser that reads it back.  The cache server and the coordinator expose
  it as an auth-exempt ``GET /metrics``; with the coordinator's token-auth'd
  ``GET /status`` (per-worker heartbeat ages and trace ids) that is how a
  live cluster is read (docs/OBSERVABILITY.md).

:mod:`repro.obs.profile` (sampling profiler + exact counters),
:mod:`repro.obs.analyze` (trace summary / critical path) and
:mod:`repro.obs.history` (the run ledger + regression gate) complete the
post-hoc side.  :mod:`repro.obs.logs` supplies the ``logging``-based
structured loggers the remote services use (level-filterable via
``$REPRO_LOG_LEVEL``), and :mod:`repro.obs.render` the text tree /
per-worker Gantt views behind ``repro trace``.  docs/OBSERVABILITY.md is
the user-facing guide.
"""

from __future__ import annotations
