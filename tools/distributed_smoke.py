#!/usr/bin/env python3
"""Localhost distributed-execution smoke: the end-to-end acceptance check.

Starts a full miniature cluster on 127.0.0.1 — one ``repro cache serve``
service, two ``repro worker serve`` daemons, and a ``repro report
--workers`` run whose embedded coordinator they poll — then runs the same
report serially against a *separate, cold* cache and asserts the two JSON
outputs are byte-identical.  Worker 1 is started alone with the
``REPRO_WORKER_SELF_DESTRUCT`` crash hook armed, so it hard-exits the first
time it leases a sweep task; worker 2 starts only once worker 1 has exited
with the hook's status.  The run completing anyway (via lease-timeout
reassignment to the surviving worker) is part of the check, and it is
deterministic: no sweep task can be drained by worker 2 before worker 1
leases one.

Used by the ``distributed-smoke`` CI job and by
``tests/test_remote.py::test_distributed_smoke_localhost``; handy manually:

    python tools/distributed_smoke.py --benchmarks blowfish

Exits 0 on success, 1 with a diagnostic on any failure.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent


def free_port() -> int:
    """Ask the kernel for a currently free TCP port (slightly racy, fine here)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def repro_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_WORKER_SELF_DESTRUCT", None)
    return env


def repro_cmd(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro.cli", *args]


def wait_for_http(url: str, timeout: float) -> None:
    deadline = time.time() + timeout
    while True:
        try:
            with urllib.request.urlopen(url, timeout=2.0):
                return
        except OSError:
            if time.time() >= deadline:
                raise RuntimeError(f"{url} did not come up within {timeout:.0f}s")
            time.sleep(0.2)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmarks", default="blowfish,mips")
    parser.add_argument("--lease-timeout", type=float, default=10.0)
    parser.add_argument("--timeout", type=float, default=900.0, help="overall budget (seconds)")
    parser.add_argument(
        "--no-crash", action="store_true", help="skip the worker crash/reassignment injection"
    )
    args = parser.parse_args(argv)

    env = repro_env()
    cache_port = free_port()
    coordinator_port = free_port()
    cache_url = f"http://127.0.0.1:{cache_port}"
    coordinator_url = f"http://127.0.0.1:{coordinator_port}"

    processes: List[subprocess.Popen] = []
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        distributed_cache = Path(tmp) / "distributed-cache"
        serial_cache = Path(tmp) / "serial-cache"
        try:
            cache_server = subprocess.Popen(
                repro_cmd(
                    "cache", "serve", "--cache-dir", str(distributed_cache),
                    "--port", str(cache_port),
                ),
                env=env,
            )
            processes.append(cache_server)
            wait_for_http(f"{cache_url}/healthz", 30.0)
            print(f"smoke: cache service up at {cache_url}", flush=True)

            worker_env = dict(env)
            if not args.no_crash:
                # Worker 1 crashes the first time it leases a sweep task;
                # reassignment must finish the run on worker 2.
                worker_env["REPRO_WORKER_SELF_DESTRUCT"] = "sweep:"

            def start_worker(index: int) -> subprocess.Popen:
                worker = subprocess.Popen(
                    repro_cmd(
                        "worker", "serve",
                        "--coordinator", coordinator_url,
                        "--cache-dir", cache_url,
                        "--name", f"smoke-{index}",
                        "--poll-wait", "2",
                    ),
                    env=worker_env if index == 1 else env,
                )
                processes.append(worker)
                return worker

            first = start_worker(1)
            if args.no_crash:
                start_worker(2)

            report_args = [
                "report", "--json",
                "--benchmarks", args.benchmarks,
                "--cache-dir", cache_url,
                "--workers", f"127.0.0.1:{coordinator_port}",
                "--lease-timeout", str(args.lease_timeout),
            ]
            print(f"smoke: running distributed report ({args.benchmarks})", flush=True)
            started = time.time()
            # Files, not pipes: nobody drains the report's output while the
            # smoke waits for worker 1, and a full pipe would stall it.
            out_path, err_path = Path(tmp) / "distributed.out", Path(tmp) / "distributed.err"
            with out_path.open("w") as out_file, err_path.open("w") as err_file:
                distributed = subprocess.Popen(
                    repro_cmd(*report_args), env=env, stdout=out_file, stderr=err_file
                )
            processes.append(distributed)

            if not args.no_crash:
                while first.poll() is None and distributed.poll() is None:
                    if time.time() - started > args.timeout:
                        break
                    time.sleep(0.1)
                crashed = first.poll()
                if crashed != 17:
                    print(
                        f"smoke: FAIL — crash-injected worker exited {crashed}, expected 17 "
                        "(self-destruct never fired, so reassignment went unexercised)",
                        file=sys.stderr,
                    )
                    return 1
                print("smoke: worker 1 crashed as injected; starting worker 2", flush=True)
                start_worker(2)

            try:
                returncode = distributed.wait(
                    timeout=max(1.0, args.timeout - (time.time() - started))
                )
            except subprocess.TimeoutExpired:
                print("smoke: FAIL — distributed report timed out", file=sys.stderr)
                return 1
            distributed_stdout = out_path.read_text(encoding="utf-8")
            if returncode != 0:
                print(err_path.read_text(encoding="utf-8"), file=sys.stderr)
                print("smoke: FAIL — distributed report exited non-zero", file=sys.stderr)
                return 1
            print(f"smoke: distributed report done in {time.time() - started:.1f}s", flush=True)

            print("smoke: running cold serial report for comparison", flush=True)
            serial = subprocess.run(
                repro_cmd(
                    "report", "--json",
                    "--benchmarks", args.benchmarks,
                    "--cache-dir", str(serial_cache),
                ),
                env=env, capture_output=True, text=True,
                timeout=max(60.0, args.timeout - (time.time() - started)),
            )
            if serial.returncode != 0:
                print(serial.stderr, file=sys.stderr)
                print("smoke: FAIL — serial report exited non-zero", file=sys.stderr)
                return 1

            if distributed_stdout != serial.stdout:
                print("smoke: FAIL — distributed output differs from serial output", file=sys.stderr)
                for line_d, line_s in zip(
                    distributed_stdout.splitlines(), serial.stdout.splitlines()
                ):
                    if line_d != line_s:
                        print(f"  distributed: {line_d}\n  serial     : {line_s}", file=sys.stderr)
                        break
                return 1
            json.loads(distributed_stdout)  # well-formed, not just equal
            if not args.no_crash:
                print("smoke: worker 1 crashed as injected; run completed via reassignment")

            print("smoke: OK — distributed output is byte-identical to the serial run")
            return 0
        finally:
            for process in processes:
                if process.poll() is None:
                    process.terminate()
            for process in processes:
                try:
                    process.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    process.kill()


if __name__ == "__main__":
    sys.exit(main())
