"""Documentation health checks: the docs gate CI runs, plus existence and
cross-reference sanity of the user-facing documents themselves."""

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))

from check_docstrings import missing_docstrings  # noqa: E402


def _read(*parts):
    with open(os.path.join(REPO_ROOT, *parts), encoding="utf-8") as fh:
        return fh.read()


def test_every_module_has_a_docstring():
    offenders = missing_docstrings()
    assert offenders == [], f"modules missing docstrings: {offenders}"


def test_readme_documents_the_cli_and_benchmark_mapping():
    readme = _read("README.md")
    for subcommand in ("repro run", "repro sweep", "repro table", "repro figure", "repro report", "repro cache"):
        assert subcommand in readme
    # The benchmark -> thesis artefact mapping must cover every harness file.
    bench_dir = os.path.join(REPO_ROOT, "benchmarks")
    for fname in os.listdir(bench_dir):
        if fname.startswith("test_") and fname.endswith(".py"):
            assert fname in readme, f"README does not map {fname} to its table/figure"


def test_architecture_doc_covers_every_package():
    doc = _read("docs", "ARCHITECTURE.md")
    src = os.path.join(REPO_ROOT, "src", "repro")
    packages = sorted(
        name for name in os.listdir(src) if os.path.isdir(os.path.join(src, name)) and name != "__pycache__"
    )
    for package in packages:
        assert f"repro.{package}" in doc, f"ARCHITECTURE.md does not document repro.{package}"


def test_caching_doc_matches_the_implementation():
    doc = _read("docs", "CACHING.md")
    from repro.eval.cache import (
        _EXTENSIONS,
        CACHE_DIR_ENV,
        CACHE_SCHEMA_VERSION,
        DEFAULT_CACHE_DIR,
        SERIALIZERS,
    )

    assert DEFAULT_CACHE_DIR in doc
    assert CACHE_DIR_ENV in doc
    for serializer in SERIALIZERS:
        assert f"`{serializer}`" in doc and _EXTENSIONS[serializer] in doc
    assert "no entry executes code on load" in doc.lower()
    assert f"schema version: {CACHE_SCHEMA_VERSION}" in doc.lower() or str(CACHE_SCHEMA_VERSION) in doc


def test_exploration_doc_covers_the_engine_surface():
    doc = _read("docs", "EXPLORATION.md")
    from repro.explore.strategies import STRATEGIES

    for strategy in STRATEGIES:
        assert f"`{strategy}`" in doc, f"EXPLORATION.md does not document strategy {strategy!r}"
    for needle in (
        "repro explore",
        "--budget",
        "--seed",
        "Pareto",
        "journal",
        "byte-identical",
        "explore-smoke",
    ):
        assert needle in doc, f"EXPLORATION.md does not mention {needle!r}"
    # Every dimension of the default CLI space is documented.
    from repro.explore.space import default_space

    for dimension in default_space().dimensions:
        assert f"`{dimension.name}`" in doc, (
            f"EXPLORATION.md does not document dimension {dimension.name!r}"
        )


def test_reporting_doc_covers_the_viz_surface():
    doc = _read("docs", "REPORTING.md")
    for needle in (
        "repro report --html",
        "--svg",
        "render",
        "render_key",
        "byte-identical",
        "prefers-color-scheme",
    ):
        assert needle in doc, f"REPORTING.md does not mention {needle!r}"
    # Every renderable figure id is documented.
    from repro.eval.experiments import RENDER_FIGURE_IDS

    for figure_id in RENDER_FIGURE_IDS:
        assert f"`{figure_id}`" in doc, f"REPORTING.md does not document figure {figure_id}"


def test_observability_doc_covers_the_surface():
    doc = _read("docs", "OBSERVABILITY.md")
    from repro.obs.tracing import TRACE_ENV

    for needle in (
        TRACE_ENV,
        "repro trace",
        "--gantt",
        "--chrome",
        "`stage:<name>`",
        "`cache.put`",
        "byte-identical",
    ):
        assert needle in doc, f"OBSERVABILITY.md does not mention {needle!r}"
    # The chrome://tracing document is exported from the span file now.
    for path in (("README.md",), ("docs", "REPORTING.md"), ("docs", "ARCHITECTURE.md")):
        text = _read(*path)
        assert "--chrome" in text, f"{path[-1]} does not mention repro trace --chrome"
        assert "report --trace" not in text, f"{path[-1]} still documents report --trace"
    # The cross-reference web: each sibling doc points at the telemetry doc.
    for sibling in ("ARCHITECTURE.md",):
        assert "OBSERVABILITY.md" in _read("docs", sibling), f"{sibling} does not link OBSERVABILITY.md"
