"""The test session leaves the working tree alone.

The root ``conftest.py`` points ``$REPRO_HISTORY`` and ``$REPRO_CACHE_DIR``
at a per-session temp dir, with a history directory of its own for every
test; a CLI command that records history and fills the cache must then
write nothing into its working directory.
"""

import os

import pytest

from repro import cli
from repro.eval.cache import CACHE_DIR_ENV, DEFAULT_CACHE_DIR
from repro.obs.history import HISTORY_DIR, HISTORY_ENV, history_path


def test_cli_writes_nothing_into_the_working_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["report", "--json", "--benchmarks", "blowfish"]) == 0
    assert capsys.readouterr().out
    assert not (tmp_path / HISTORY_DIR).exists()
    assert not (tmp_path / DEFAULT_CACHE_DIR).exists()
    assert os.listdir(tmp_path) == []
    # The run did record history and cache entries, just elsewhere.
    assert history_path().is_file()
    assert os.listdir(os.environ[CACHE_DIR_ENV])
    assert not os.environ[HISTORY_ENV].startswith(str(tmp_path))


@pytest.mark.parametrize("run", [1, 2])
def test_every_test_starts_with_an_empty_history(run, tmp_path, monkeypatch, capsys):
    """Records of earlier tests never reach a later test's ledger."""
    assert not history_path().exists()
    monkeypatch.chdir(tmp_path)
    assert cli.main(["report", "--json", "--benchmarks", "blowfish"]) == 0
    capsys.readouterr()
    assert history_path().is_file()
