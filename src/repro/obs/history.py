"""Persistent run history: append-only JSONL records + regression checks.

Every measured run — ``repro report``, ``repro explore``, both bench
tools — appends one record to ``.repro_history/runs.jsonl`` in the
working directory: the command, its numeric metrics (wall seconds,
perf-stage timers, cache-hit rates, worker counts) and enough environment
(git revision, python, cpu count) to explain an outlier later.  The file
is the project's perf memory: CI appends to it on every job, ``repro
history trend`` draws the trajectory, and ``repro history check`` gates
merges by comparing the latest value of every ``*_seconds`` metric
against a **rolling-median baseline** of the preceding runs — robust to
the odd noisy record in a way a mean or a single previous run is not.

Recording is observe-only and must never fail or slow the measured run:
every write is one ``O_APPEND`` line, every error is swallowed, and
nothing is printed (stdout byte-identity is pinned by the same tests that
pin tracing).  ``$REPRO_HISTORY`` overrides the directory; ``0``/``off``
disables recording entirely (tier-1 test processes that want a pristine
working tree can opt out).

This module writes records; reading them back (load, series, the
regression check and the text views) is :mod:`repro.obs.history_query`,
which only ``repro history`` and ``report --html`` load.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

#: Environment variable overriding the history directory (``0``/``off`` = disabled).
HISTORY_ENV = "REPRO_HISTORY"

#: Default history directory, relative to the working directory.
HISTORY_DIR = ".repro_history"

#: The append-only record file inside the history directory.
HISTORY_FILE = "runs.jsonl"

#: Record schema version, bumped on incompatible changes.
SCHEMA = 1

#: Regression-check defaults: baseline window and slowdown threshold (the
#: check itself is :func:`repro.obs.history_query.check_regressions`).
DEFAULT_WINDOW = 8
DEFAULT_THRESHOLD = 1.5

_git_rev_cache: Any = False  # False = not yet resolved (None is a valid result)


def history_path(directory: Optional[os.PathLike] = None) -> Optional[Path]:
    """The records file path, or ``None`` when recording is disabled.

    *directory* (CLI ``--history``) wins over ``$REPRO_HISTORY``, which
    wins over ``./.repro_history``.
    """
    if directory is not None:
        return Path(directory) / HISTORY_FILE
    env = (os.environ.get(HISTORY_ENV) or "").strip()
    if env.lower() in ("0", "off", "none", "disabled"):
        return None
    base = Path(env) if env else Path(HISTORY_DIR)
    return base / HISTORY_FILE


def explicit_path() -> Optional[Path]:
    """The records file only when ``$REPRO_HISTORY`` names a directory.

    The HTML report's trends section keys off this: with the default
    (implicit) location every warm re-render would see one more record
    and break warm-run byte-identity, so trends render only on opt-in.
    """
    env = (os.environ.get(HISTORY_ENV) or "").strip()
    if not env or env.lower() in ("0", "off", "none", "disabled"):
        return None
    return Path(env) / HISTORY_FILE


def git_revision() -> Optional[str]:
    """The working tree's short git revision, resolved once per process."""
    global _git_rev_cache
    if _git_rev_cache is False:
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True,
                text=True,
                timeout=2.0,
            )
            _git_rev_cache = proc.stdout.strip() or None if proc.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            _git_rev_cache = None
    return _git_rev_cache


def environment() -> Dict[str, Any]:
    """The recorded per-run environment block."""
    return {
        "git_rev": git_revision(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.system().lower(),
    }


def record_run(
    command: str,
    metrics: Mapping[str, float],
    attrs: Optional[Mapping[str, Any]] = None,
    directory: Optional[os.PathLike] = None,
) -> Optional[Dict[str, Any]]:
    """Append one run record; returns it, or ``None`` when disabled.

    Never raises and never writes to stdout — a broken history must not
    fail or alter the measured run.
    """
    path = history_path(directory)
    if path is None:
        return None
    record = {
        "schema": SCHEMA,
        "ts": round(time.time(), 3),
        "command": command,
        "metrics": {k: float(v) for k, v in sorted(metrics.items())},
        "attrs": dict(attrs or {}),
        "env": environment(),
    }
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    except OSError:
        return None
    return record
