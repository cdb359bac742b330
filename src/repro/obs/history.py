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

_HEX_DIGITS = frozenset("0123456789abcdef")


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
        _git_rev_cache = read_git_head(os.getcwd())
    return _git_rev_cache


def read_git_head(start: str) -> Optional[str]:
    """The first 7 hex digits of ``HEAD``'s commit, read from the files of
    the repository holding *start*, or ``None`` if it cannot be resolved.

    Walks up from *start* to ``.git`` (a directory, or a file naming one),
    follows ``ref:`` lines through ``refs/`` and ``packed-refs``, and spawns
    no ``git``.
    """
    directory = os.path.abspath(start)
    while not os.path.exists(os.path.join(directory, ".git")):
        parent = os.path.dirname(directory)
        if parent == directory:
            return None
        directory = parent
    git = os.path.join(directory, ".git")
    try:
        if os.path.isfile(git):
            pointer = _read_line(git)
            if not pointer.startswith("gitdir:"):
                return None
            git = os.path.join(directory, pointer[len("gitdir:"):].strip())
        # A linked worktree keeps its HEAD here and its refs in the common dir.
        common = git
        if os.path.isfile(os.path.join(git, "commondir")):
            common = os.path.join(git, _read_line(os.path.join(git, "commondir")))
        head = _read_line(os.path.join(git, "HEAD"))
        if head.startswith("ref:"):
            head = _read_ref(common, head[len("ref:"):].strip())
    except (OSError, ValueError):  # unreadable, or not text
        return None
    if len(head) < 40 or not set(head) <= _HEX_DIGITS:
        return None
    return head[:7]


def _read_line(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.readline().strip()


def _read_ref(git: str, name: str) -> str:
    """The content of ref *name*: its loose file, else its ``packed-refs``
    line, else an empty string."""
    loose = os.path.join(git, *name.split("/"))
    if os.path.isfile(loose):
        return _read_line(loose)
    packed = os.path.join(git, "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as handle:
            for line in handle:
                commit, _, ref = line.strip().partition(" ")
                if ref == name:
                    return commit
    return ""


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
