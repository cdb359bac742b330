"""Repository-level pytest configuration.

Makes the ``repro`` package importable directly from the source tree so the
test and benchmark suites work even in fully offline environments where
``pip install -e .`` cannot build an editable wheel, and keeps both suites
hermetic (see :func:`hermetic_state`).
"""

import itertools
import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest  # noqa: E402

from repro.eval.cache import CACHE_DIR_ENV  # noqa: E402
from repro.obs.history import HISTORY_ENV  # noqa: E402


@pytest.fixture(scope="session", autouse=True)
def hermetic_state(tmp_path_factory):
    """Point the run history and the default artifact cache at a temp dir.

    Without this every test run that reports, explores or benchmarks would
    append records to ``./.repro_history`` and fill ``./.repro_cache`` in
    the working tree.  Tests that need their own locations still override
    the variables (or pass ``--cache-dir``/``--history``).  The history
    location is replaced per test by :func:`own_history`.
    """
    root = tmp_path_factory.mktemp("repro-state")
    saved = {name: os.environ.get(name) for name in (HISTORY_ENV, CACHE_DIR_ENV)}
    os.environ[HISTORY_ENV] = str(root / "history")
    os.environ[CACHE_DIR_ENV] = str(root / "cache")
    try:
        yield root
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


_ledgers = itertools.count()


@pytest.fixture(autouse=True)
def own_history(hermetic_state, monkeypatch):
    """Give every test an empty run-history directory of its own.

    An explicit ``$REPRO_HISTORY`` turns on the HTML report's trends card,
    drawn from the ledger's records.  A ledger shared by the session would
    make what a test renders depend on which tests ran before it; a fresh
    one per test holds only that test's own runs.  A test that renders the
    same report twice and compares the bytes still sets
    ``REPRO_HISTORY=0``, since its first run adds a record the second sees.
    """
    monkeypatch.setenv(HISTORY_ENV, str(hermetic_state / "history" / str(next(_ledgers))))
