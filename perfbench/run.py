"""The repo benchmark: cold ``repro report``, serial and ``-j 2``, then warm.

Usage, from the repository root::

    python3 perfbench/run.py --workload report-cold --seed 1 --seconds 40 --trace 0

Each invocation is the real CLI in a fresh interpreter
(``python -m repro.cli ...`` with ``PYTHONPATH=src``), run as a closed loop
with one client: the next invocation starts after the previous one exits.
One iteration is a cold invocation on an empty cache dir, then the same argv
again on the cache it filled (the warm run users get when no code changed).
Iterations repeat until ``--seconds`` have passed and at least
:data:`MIN_INVOCATIONS` have run.  The report has no random input, so the
seed only names the run.

Times are in reference-host seconds.  Just before and just after each
invocation the benchmark times :func:`calibrate`, a fixed slice of
pure-Python work that shares no code with ``src/``, and scales the
invocation's wall and CPU time by the host's speed: :data:`REFERENCE_UNIT_S`
over the mean of the two calibrations.  On a shared host the speed of a
vCPU drifts by tens of percent from one minute to the next, and the CLI's
CPU time drifts with it; the scaled time drifts much less, while a change
to the program still moves it in full.  ``wall_s`` and ``cpu_s`` (cold) and
``warm_wall_s`` are the medians of the scaled times, ``setup_s`` the median
of the scaled set-ups, ``peak_rss_mb`` and ``cache_mb`` (cold) plain
medians.  The table above the result line also prints the raw cold walls
and the host's speed around each.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` instead alternates untraced and traced cold invocations of
the same argv (the traced one through ``perfbench/tracer.py``, then traced
again warm) and reports the per-layer metrics (medians over the traced
invocations, in raw seconds; ``warm.*`` from the warm ones), plus
``trace_overhead``: the fastest traced over the fastest untraced cold wall.

Every invocation's stdout must hash to the digest in ``golden.json``, so
cold, warm and ``-j 2`` print the same bytes; each invocation counts towards
``attempted``, and a non-zero exit or a failed check towards ``failed``.
Runs are hermetic: each gets its own cache dir, ``REPRO_HISTORY`` and working
directory under ``perfbench/.work/``, and every ``REPRO_*`` variable of the
caller's environment is dropped.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

from tracer import summarize  # noqa: E402

#: Lower bound on timed invocations per run, whatever ``--seconds`` says.
MIN_INVOCATIONS = 3
#: Lower bound on (untraced, traced) pairs per ``--trace 1`` run.
MIN_TRACED_PAIRS = 2
#: Stop starting invocations this long after the run began ...
RUN_DEADLINE_S = 120.0
#: ... and kill any invocation still running this long after it began.
RUN_LIMIT_S = 170.0
MIB = float(1 << 20)
#: Seconds one :func:`_calibration_unit` takes on the reference host
#: (baseline.json).
REFERENCE_UNIT_S = 0.03
#: A calibration runs units for this share of the invocation it follows ...
CALIBRATION_SHARE = 0.1
#: ... and for at least this long.
MIN_CALIBRATION_S = 0.3


def _calibration_unit() -> int:
    """A fixed slice of pure-Python work of the kind the CLI does: dict and
    tuple traffic, small-object allocation, integer arithmetic and a sort."""
    table: Dict[int, Tuple[int, int]] = {}
    acc = 0
    for i in range(60_000):
        key = (i * 2654435761) & 0xFFFF
        prev = table.get(key)
        acc = (acc + (prev[1] if prev else i)) & 0xFFFFFFFF
        table[key] = (i, acc)
    return acc ^ len(sorted(table.values()))


def _unit_seconds(seconds: float) -> float:
    """Mean seconds per :func:`_calibration_unit` over *seconds* of them."""
    units = 0
    started = time.perf_counter()
    while True:
        _calibration_unit()
        units += 1
        elapsed = time.perf_counter() - started
        if elapsed >= seconds:
            return elapsed / units


def calibrate(seconds: float) -> float:
    """Seconds this host takes right now for one :func:`_calibration_unit`.

    The mean over every CPU this process may use (those of the invocation
    the calibration brackets: one for a serial invocation, all for
    ``-j 2``), each pinned in turn for an equal share of *seconds*, since
    their speeds drift apart.
    """
    cpus = sorted(os.sched_getaffinity(0))
    try:
        per_cpu = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(_unit_seconds(seconds / len(cpus)))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(per_cpu)


@dataclass
class Invocation:
    """One finished CLI process."""

    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes
    #: Host speed around the invocation: reference over measured calibration.
    scale: float = 1.0


def dir_bytes(path: Path) -> int:
    """Total size of the regular files under *path*."""
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(pgid: int) -> None:
    """Wait until no process of the invocation's group is left."""
    deadline = time.monotonic() + 5.0
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            _kill_group(pgid)
            return
        time.sleep(0.01)


def check_report(stdout: bytes) -> Optional[str]:
    """``repro report --json`` must print the bytes recorded in golden.json."""
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != golden["report_json_sha256"]:
        return f"report stdout sha256 {digest} differs from golden.json"
    return None


#: The CLI arguments of each workload.
WORKLOADS: Dict[str, Tuple[str, ...]] = {
    "report-cold": ("report", "--json"),
    "report-cold-j2": ("report", "--json", "-j", "2"),
}
#: Set-ups per run (a fresh-interpreter ``repro list`` each); ``setup_s`` is
#: their median.
SETUPS = 5
#: Per-layer metrics also reported for the warm invocations, as ``warm.KEY``:
#: the layers a warm run should spend its time in, and the compute layers
#: it should never call.
WARM_LAYER_KEYS = (
    "startup.import_s", "cache.decode_s", "cache.hit_ratio", "interp.calls",
    "dswp.calls", "replay.multi.calls", "replay.single.calls", "traced_wall_s",
    "layer_coverage",
)


class Bench:
    """One benchmark run: hermetic directories, invocations and their tally."""

    def __init__(self, workload: str, seed: int, seconds: int) -> None:
        self.args = list(WORKLOADS[workload])
        cpus = sorted(os.sched_getaffinity(0))
        # A serial invocation (every set-up and warm run, and the cold run
        # without -j) uses one CPU at a time: pinning it and its
        # calibrations to the same CPU makes them see the same host.
        self.serial_cpus = frozenset(cpus[-1:])
        self.cold_cpus = frozenset(cpus) if "-j" in self.args else self.serial_cpus
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        self.dir = WORK / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.cwd = self.dir / "cwd"
        self.cwd.mkdir(parents=True)
        (self.dir / "history").mkdir()
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(SRC)
        self.env["REPRO_HISTORY"] = str(self.dir / "history")
        self.attempted = 0
        self.failures: List[str] = []
        self._caches = 0
        #: The last calibration: the CPUs it timed and seconds per unit.
        self._calibration: Optional[Tuple[frozenset, float]] = None

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def fresh_cache(self) -> Path:
        self._caches += 1
        return self.dir / f"cache-{self._caches}"

    def out_of_time(self) -> bool:
        return time.perf_counter() - self.started > RUN_DEADLINE_S

    def invoke(
        self, args: List[str], cache: Path, spans: Optional[Path] = None,
        cpus: Optional[frozenset] = None,
    ) -> Invocation:
        """Run one CLI process to completion and measure it from outside.

        With *cpus*, the benchmark moves to those CPUs first, and the
        process inherits them.
        """
        if cpus is not None:
            os.sched_setaffinity(0, cpus)
        if spans is None:
            argv = [sys.executable, "-m", "repro.cli", *args, "--cache-dir", str(cache)]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans), *args,
                    "--cache-dir", str(cache)]
        out_path, err_path = self.dir / "stdout", self.dir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.cwd, env=self.env, stdout=out, stderr=err,
                stdin=subprocess.DEVNULL, start_new_session=True,
            )
            timeout = max(5.0, RUN_LIMIT_S - (started - self.started))
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                # wait4 gives the CPU time and peak RSS of the process and of
                # every descendant it waited for (the -j pool workers).
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
        _reap_group(proc.pid)
        self.attempted += 1
        return Invocation(
            code=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss * 1024 / MIB,
            stdout=out_path.read_bytes(),
            stderr=err_path.read_bytes(),
        )

    def calibrated_invoke(self, args: List[str], cache: Path, cpus: frozenset) -> Invocation:
        """:meth:`invoke` on *cpus* between two calibrations of those CPUs,
        which set its ``scale``.

        The calibration after one invocation is the one before the next, if
        that runs on the same CPUs.
        """
        os.sched_setaffinity(0, cpus)
        if self._calibration is None or self._calibration[0] != cpus:
            self._calibration = (cpus, calibrate(MIN_CALIBRATION_S))
        before = self._calibration[1]
        inv = self.invoke(args, cache, cpus=cpus)
        after = calibrate(max(MIN_CALIBRATION_S, CALIBRATION_SHARE * inv.wall_s))
        self._calibration = (cpus, after)
        inv.scale = 2 * REFERENCE_UNIT_S / (before + after)
        return inv

    def check(self, inv: Invocation, expect: Optional[bytes] = None) -> bool:
        """Apply the report oracle; record and report any failure."""
        if inv.code != 0:
            reason = f"exit code {inv.code}: {inv.stderr.decode(errors='replace')[-400:]}"
        elif expect is not None and inv.stdout != expect:
            reason = "stdout differs from the paired untraced run"
        else:
            reason = check_report(inv.stdout)
        if reason is not None:
            command = " ".join(self.args)
            self.failures.append(f"{command}: {reason}")
            print(f"FAIL {command}: {reason}", file=sys.stderr)
        return reason is None

    # -- phases -----------------------------------------------------------------

    def setup(self) -> List[float]:
        """Prepare the timed runs :data:`SETUPS` times; returns the scaled times.

        A set-up is a fresh-interpreter ``repro list``, which also leaves the
        bytecode compiled before the first timed run.
        """
        times = []
        for _ in range(SETUPS):
            inv = self.calibrated_invoke(["list"], self.dir / "list-cache", self.serial_cpus)
            times.append(inv.wall_s * inv.scale)
            if inv.code != 0:
                self.failures.append(f"set-up 'repro list' exited {inv.code}")
        return times

    def timed(self, setup_times: List[float]) -> Dict[str, float]:
        """The closed loop of untraced cold and warm invocations; end-to-end metrics."""
        samples: List[Invocation] = []
        warm_walls: List[float] = []
        cache_mb: List[float] = []
        loop_started = time.perf_counter()
        while len(samples) < MIN_INVOCATIONS or time.perf_counter() - loop_started < self.seconds:
            if self.out_of_time():
                break
            cache = self.fresh_cache()
            cold = self.calibrated_invoke(self.args, cache, self.cold_cpus)
            samples.append(cold)
            cache_mb.append(dir_bytes(cache) / MIB)
            if self.check(cold):
                warm = self.calibrated_invoke(self.args, cache, self.serial_cpus)
                if self.check(warm):
                    warm_walls.append(warm.wall_s * warm.scale)
            shutil.rmtree(cache, ignore_errors=True)
        return {
            "wall_s": statistics.median(s.wall_s * s.scale for s in samples),
            "cpu_s": statistics.median(s.cpu_s * s.scale for s in samples),
            "warm_wall_s": statistics.median(warm_walls) if warm_walls else 0.0,
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
            "cache_mb": statistics.median(cache_mb),
            "setup_s": statistics.median(setup_times),
            "_samples": len(samples),
            "_walls": [round(s.wall_s, 3) for s in samples],
            "_speeds": [round(s.scale, 3) for s in samples],
        }

    def traced(self) -> Dict[str, float]:
        """Alternate untraced and traced invocations; per-layer metrics.

        Each traced cold invocation is followed by a traced warm one on the
        cache it filled, which gives the ``warm.*`` metrics.
        """
        plain_walls: List[float] = []
        traced_walls: List[float] = []
        layers: List[Dict[str, float]] = []
        warm_layers: List[Dict[str, float]] = []
        spans = self.dir / "spans.json"
        loop_started = time.perf_counter()
        while len(layers) < MIN_TRACED_PAIRS or time.perf_counter() - loop_started < self.seconds:
            if self.out_of_time():
                break
            cache = self.fresh_cache()
            plain = self.invoke(self.args, cache, cpus=self.cold_cpus)
            shutil.rmtree(cache, ignore_errors=True)
            traced = self.invoke(self.args, cache, spans=spans, cpus=self.cold_cpus)
            self.check(plain)
            if self.check(traced, expect=plain.stdout):
                layers.append(summarize(json.loads(spans.read_text(encoding="utf-8"))))
                warm = self.invoke(self.args, cache, spans=spans, cpus=self.serial_cpus)
                if self.check(warm, expect=plain.stdout):
                    warm_layers.append(summarize(json.loads(spans.read_text(encoding="utf-8"))))
            shutil.rmtree(cache, ignore_errors=True)
            plain_walls.append(plain.wall_s)
            traced_walls.append(traced.wall_s)
        if not layers:
            raise SystemExit("no traced invocation succeeded")
        metrics = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
        for key in WARM_LAYER_KEYS:
            values = [layer[key] for layer in warm_layers]
            metrics[f"warm.{key}"] = statistics.median(values) if values else 0.0
        metrics["trace_overhead"] = min(traced_walls) / min(plain_walls)
        metrics["_samples"] = len(layers)
        metrics["_walls"] = [round(w, 3) for w in plain_walls + traced_walls]
        return metrics

    def run(self, trace: bool) -> Dict[str, float]:
        setup_times = self.setup()
        return self.traced() if trace else self.timed(setup_times)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _spec() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _print_table(workload: str, metrics: Dict[str, float], specs: List[Dict], bench: Bench) -> None:
    print(f"workload {workload}: {metrics['_samples']} samples, seed {bench.seed}, "
          f"raw invocation walls {metrics['_walls']} s")
    if "_speeds" in metrics:
        print(f"  host speed around each, as a multiple of the reference host's: "
              f"{metrics['_speeds']}")
    for spec in specs:
        print(f"  {spec['name']:<24} {metrics[spec['name']]:>16.6g} {spec['unit']}")
    rate = len(bench.failures) / bench.attempted if bench.attempted else 0.0
    print(f"  {'error_rate':<24} {rate:>16.6g} failed/attempted ({bench.attempted} attempted)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: {SRC / 'repro' / 'cli.py'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit so a running invocation's process group
    # is killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = _spec()
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    bench = Bench(args.workload, args.seed, args.seconds)
    try:
        metrics = bench.run(bool(args.trace))
    finally:
        bench.close()
    _print_table(args.workload, metrics, specs, bench)
    for failure in bench.failures:
        print(f"  failure: {failure}")
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
