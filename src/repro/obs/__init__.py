"""Telemetry for the task graph (stdlib-only).

Everything here is off by default and strictly observe-only (the
byte-identity invariant — serial vs ``-j N`` vs warm vs traced report all
identical — is the design constraint, enforced by tests/test_obs.py):

* :mod:`repro.obs.tracing` — span-based structured tracing.  Every executed
  task-graph node, cache lookup, harness run and explore generation opens a
  span (trace id / span id / parent id, wall-clock start + monotonic
  duration, task-kind and cache-hit attributes).  Context propagates into
  pool workers with each task, so one ``-j N`` report run yields one
  coherent trace.  Spans stream to a JSONL sink named by ``$REPRO_TRACE``;
  ``repro trace`` renders them.
* :mod:`repro.obs.profile` (sampling profiler + exact counters),
  :mod:`repro.obs.analyze` (trace summary / critical path) and
  :mod:`repro.obs.history` (the run ledger + regression gate) are the
  post-hoc side, and :mod:`repro.obs.render` supplies the text tree /
  per-worker Gantt views behind ``repro trace``.

docs/OBSERVABILITY.md is the user-facing guide.
"""

from __future__ import annotations
