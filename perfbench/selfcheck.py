"""Self-check of the benchmark: the binding guard and hermetic runs.

Usage, from the repository root::

    python3 perfbench/selfcheck.py

1. Binding guard.  A small report (``--benchmarks blowfish,mips``) runs
   untraced, traced serially and traced with ``-j 2``.  Every probe of
   ``tracer.PROBES`` must record at least one call (the ``pool`` probes on
   the ``-j 2`` run, all others on the serial run), the traced stdout must
   equal the untraced stdout byte for byte, and the sum of self times must
   not exceed the traced wall time, so nested layers are not counted twice.
   A refactor that rebinds a wrapped name then fails here instead of
   silently reporting 0 for that layer.
2. Hermetic runs.  Around the guard and one short ``run.py`` run, the
   checkout must stay unchanged: no file added, removed or modified outside
   ``perfbench/.work/`` and ``__pycache__/``, so no ``.repro_cache`` and no
   ``.repro_history`` either.

Prints one line per check and exits non-zero if any fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, SRC, WORK, Bench  # noqa: E402
from tracer import PROBE_NAMES, probe_calls, summarize  # noqa: E402

GUARD_ARGS = ["report", "--json", "--benchmarks", "blowfish,mips"]
POOL_PROBES = ("pool.submit", "pool.wait")


def snapshot(root: Path) -> Dict[str, Tuple[int, int]]:
    """(size, mtime) of every file of the checkout the benchmark may not touch."""
    files = {}
    for directory, dirs, names in os.walk(root):
        dirs[:] = [
            d for d in dirs
            if d != "__pycache__" and Path(directory, d) != WORK
        ]
        for name in names:
            path = Path(directory, name)
            stat = path.lstat()
            files[str(path.relative_to(root))] = (stat.st_size, stat.st_mtime_ns)
    return files


def binding_guard(bench: Bench) -> List[str]:
    """Problems found by the binding guard (empty when it passes)."""
    problems = []
    spans = bench.dir / "spans.json"
    plain = bench.invoke(GUARD_ARGS, bench.fresh_cache())
    if plain.code != 0:
        return [f"untraced {' '.join(GUARD_ARGS)} exited {plain.code}"]
    for extra, probes in (([], set(PROBE_NAMES) - set(POOL_PROBES)), (["-j", "2"], POOL_PROBES)):
        args = GUARD_ARGS + extra
        traced = bench.invoke(args, bench.fresh_cache(), spans=spans)
        if traced.code != 0:
            problems.append(f"traced {' '.join(args)} exited {traced.code}")
            continue
        if traced.stdout != plain.stdout:
            problems.append(f"traced {' '.join(args)} stdout differs from the untraced run")
        doc = json.loads(spans.read_text(encoding="utf-8"))
        calls = probe_calls(doc)
        problems += [
            f"probe {probe} recorded no call on {' '.join(args)}"
            for probe in sorted(probes) if calls.get(probe, 0) < 1
        ]
        coverage = summarize(doc)["layer_coverage"]
        if coverage > 1.0:
            problems.append(f"self times sum to {coverage:.3f} x traced wall on {' '.join(args)}")
    return problems


def hermetic_run() -> List[str]:
    """Problems of one short benchmark run (empty when it succeeded)."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", "report-cold-j2",
            "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, timeout=300)
    if proc.returncode != 0:
        return [f"run.py exited {proc.returncode}: {proc.stderr.decode(errors='replace')[-400:]}"]
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    return [] if result["correct"] else ["run.py reported correct=false"]


def main() -> int:
    if not (SRC / "repro" / "cli.py").is_file():
        print("error: run from a full checkout (src/repro/cli.py not found)", file=sys.stderr)
        return 2
    before = snapshot(ROOT)
    bench = Bench("report-cold", seed=0, seconds=0)
    try:
        guard = binding_guard(bench)
    finally:
        bench.close()
    run = hermetic_run()
    after = snapshot(ROOT)
    changed = sorted(p for p in before.keys() | after.keys() if before.get(p) != after.get(p))
    written = [p for p in changed if ".repro_cache" in p or ".repro_history" in p]
    checks = [
        ("binding guard", guard),
        ("hermetic run.py run", run),
        ("checkout unchanged", [f"changed: {p}" for p in changed[:20]]),
        ("no .repro_cache/.repro_history written", [f"written: {p}" for p in written[:20]]),
    ]
    for name, problems in checks:
        print(f"{'ok  ' if not problems else 'FAIL'} {name}")
        for problem in problems:
            print(f"     {problem}")
    return 0 if all(not problems for _, problems in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
