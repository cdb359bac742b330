#!/usr/bin/env python3
"""CI gate for ``repro report --html``: complete, self-contained, cacheable.

Asserts the produced ``report.html``

* contains **all six thesis figures** (6.1-6.6), the exploration section
  (frontier scatter + search-progress figures and the best-found table)
  plus both tables as inline sections (requires the full benchmark set, or
  at least blowfish+mips);
* is **self-contained** — no executable ``<script>``, no ``<link>``, no
  ``src=`` attributes, nothing to fetch.  The only ``<script`` form
  allowed is the inert data island ``<script type="application/json"``
  the report embeds its raw artefact numbers in (browsers never execute
  ``application/json`` content);
* carries the run-metadata card (configuration hash + cache-hit stats)
  and the embedded ``report-data`` JSON island;
* with ``--benchmark-pages a,b,...``: each ``benchmark-<name>.html``
  drill-down page exists beside the report, passes the same
  self-containment scan, and embeds its ``benchmark-data`` island.

With ``--expect-warm`` it additionally asserts the run computed nothing
("0 computed" simulations in the metadata card) — a warm run reads every
compile and sweep point from the cache and only redraws the figures.

Usage: ``python tools/check_report_html.py out/report.html
[--expect-warm] [--benchmark-pages blowfish,mips]``
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REQUIRED_FIGURES = ("6.1", "6.2", "6.3", "6.4", "6.5", "6.6", "explore", "explore-progress")
REQUIRED_SECTIONS = ("table_6.1", "table_6.2", "metadata", "exploration")
FORBIDDEN_MARKUP = ("<link", "src=", "@import", "http-equiv")

#: The one ``<script`` form allowed: the inert raw-data island.
DATA_ISLAND = '<script type="application/json"'

#: The metadata row of a run that computed nothing ("80 computed" must not
#: match, so the row's label anchors it).
WARM_ROW = "<th>simulations</th><td>0 computed,"


def scan_self_contained(document: str, label: str) -> list:
    """Failure messages for external assets or executable script content."""
    failures = []
    for needle in FORBIDDEN_MARKUP:
        if needle in document:
            failures.append(f"{label} is not self-contained: found {needle!r}")
    # Every <script occurrence must be the data island — anything else
    # (bare <script>, type="text/javascript", a module) is executable.
    executable = document.count("<script") - document.count(DATA_ISLAND)
    if executable:
        failures.append(
            f"{label} carries {executable} executable <script> tag(s) "
            f"(only {DATA_ISLAND!r} data islands are allowed)"
        )
    return failures


def check(
    path: Path, expect_warm: bool = False, benchmark_pages: tuple = ()
) -> list:
    """Return a list of failure messages (empty = the report passes)."""
    failures = []
    if not path.is_file():
        return [f"{path} does not exist"]
    document = path.read_text(encoding="utf-8")
    for figure_id in REQUIRED_FIGURES:
        if f'id="figure-{figure_id}"' not in document:
            failures.append(f"figure {figure_id} missing from the report")
    for section in REQUIRED_SECTIONS:
        if f'id="{section}"' not in document:
            failures.append(f"section '{section}' missing from the report")
    failures.extend(scan_self_contained(document, "report"))
    if 'id="report-data"' not in document:
        failures.append("embedded report-data JSON island missing")
    if "configuration hash" not in document:
        failures.append("run metadata (configuration hash) missing")
    if expect_warm and WARM_ROW not in document:
        failures.append("expected a warm run (0 computed), but simulations executed")
    for benchmark in benchmark_pages:
        page_path = path.parent / f"benchmark-{benchmark}.html"
        if not page_path.is_file():
            failures.append(f"drill-down page {page_path} does not exist")
            continue
        page = page_path.read_text(encoding="utf-8")
        failures.extend(scan_self_contained(page, f"benchmark-{benchmark}.html"))
        if 'id="benchmark-data"' not in page:
            failures.append(f"benchmark-{benchmark}.html lacks its benchmark-data island")
        if f'id="benchmark-{benchmark}.html"' not in document and (
            f'href="benchmark-{benchmark}.html"' not in document
        ):
            failures.append(f"report does not link to benchmark-{benchmark}.html")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", type=Path, help="path to report.html")
    parser.add_argument(
        "--expect-warm",
        action="store_true",
        help="also require the run to have computed nothing (cache warm)",
    )
    parser.add_argument(
        "--benchmark-pages",
        default="",
        help="comma-separated benchmark names whose drill-down pages must "
        "exist beside the report and pass the same self-containment scan",
    )
    args = parser.parse_args(argv)
    pages = tuple(n.strip() for n in args.benchmark_pages.split(",") if n.strip())
    failures = check(args.report, expect_warm=args.expect_warm, benchmark_pages=pages)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    size_kib = args.report.stat().st_size / 1024
    extra = f", {len(pages)} drill-down pages" if pages else ""
    print(
        f"ok: {args.report} passes ({size_kib:.0f} KiB, all figures inline, "
        f"no external assets{extra})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
