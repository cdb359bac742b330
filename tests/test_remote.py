"""Tests of the distributed execution subsystem (`repro.eval.remote`).

Three layers, cheapest first:

* pure-logic tests of the :class:`Coordinator` state machine (lease,
  heartbeat, expiry-reassignment, retry cap) and the wire protocol;
* live-socket tests of the HTTP cache service (round trip, TLS, metrics
  scrapes under concurrent PUTs, server-side single-flight) and of a real
  worker loop driving a
  :class:`RemoteExecutor`-backed scheduler — all in-process with fake
  (cheap) payload functions, no workload compiles;
* one subprocess end-to-end smoke (``tools/distributed_smoke.py``): cache
  server + two workers + ``repro report --workers`` with crash injection,
  asserting byte-identical output to a cold serial run.
"""

import json
import shutil
import subprocess
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.errors import RemoteError, RemoteProtocolError, RemoteTaskError, ReproError
from repro.config import CompilerConfig, RuntimeConfig
from repro.eval.cache import ArtifactCache, LocalFSBackend
from repro.eval.remote import protocol
from repro.eval.remote.cache_http import HTTPCacheBackend, make_cache_server
from repro.eval.remote.coordinator import Coordinator
from repro.eval.remote.executor import RemoteExecutor
from repro.eval.remote.worker import run_worker
from repro.eval.taskgraph import Task, TaskGraph, TaskScheduler, aggregate_task
from repro.eval.trace import TraceRecorder
from repro.obs.metrics import metric_value, parse_prometheus


def make_spec(task_id="sweep:fake", attempt=None):
    spec = {
        "task_id": task_id,
        "kind": "runtime",
        "fn": "compute_runtime_point",
        "args": [],
        "key": "f" * 64,
        "serializer": "json",
    }
    if attempt is not None:
        spec["attempt"] = attempt
    return spec


# ---------------------------------------------------------------------------
# coordinator state machine (fake workers, no HTTP, no compiles)
# ---------------------------------------------------------------------------


def test_lease_and_complete_round_trip():
    coordinator = Coordinator(lease_timeout=5.0)
    registration = coordinator.register()
    worker = registration["worker_id"]
    assert registration["lease_timeout"] == 5.0
    coordinator.submit(make_spec())
    response = coordinator.lease(worker, wait=0.1)
    assert response["task"]["task_id"] == "sweep:fake"
    assert response["task"]["attempt"] == 1
    # Nothing else queued: an immediate second lease long-polls to empty.
    assert coordinator.lease(worker, wait=0.05)["task"] is None
    coordinator.complete(worker, "sweep:fake", ok=True, value=42.0)
    [completion] = coordinator.wait_completions(timeout=1.0)
    assert completion["value"] == 42.0
    assert completion["error"] is None
    assert coordinator.inflight == 0


def test_dead_worker_lease_expires_and_task_is_reassigned():
    coordinator = Coordinator(lease_timeout=0.15)
    dead = coordinator.register(name="doomed")["worker_id"]
    survivor = coordinator.register(name="survivor")["worker_id"]
    coordinator.submit(make_spec())
    assert coordinator.lease(dead, wait=0.05)["task"] is not None
    # `dead` never heartbeats; after the lease timeout the survivor gets the
    # same task with the attempt counter bumped.
    time.sleep(0.2)
    response = coordinator.lease(survivor, wait=1.0)
    assert response["task"]["task_id"] == "sweep:fake"
    assert response["task"]["attempt"] == 2
    # The late completion from the presumed-dead worker is dropped...
    assert coordinator.complete(dead, "sweep:fake", ok=True, value=1.0) == {"accepted": False}
    assert coordinator.wait_completions(timeout=0.05) == []
    # ...while the survivor's goes through.
    assert coordinator.complete(survivor, "sweep:fake", ok=True, value=2.0)["accepted"]
    [completion] = coordinator.wait_completions(timeout=1.0)
    assert completion["value"] == 2.0 and completion["worker_id"] == survivor


def test_heartbeat_renews_leases():
    coordinator = Coordinator(lease_timeout=0.3)
    worker = coordinator.register()["worker_id"]
    coordinator.submit(make_spec())
    assert coordinator.lease(worker, wait=0.05)["task"] is not None
    for _ in range(3):  # keep renewing well past the original deadline
        time.sleep(0.15)
        assert coordinator.heartbeat(worker) == {"shutdown": False}
    assert coordinator.wait_completions(timeout=0.05) == []  # never reaped
    coordinator.complete(worker, "sweep:fake", ok=True, value=7)
    assert coordinator.wait_completions(timeout=1.0)[0]["value"] == 7


def test_heartbeat_only_renews_listed_tasks():
    """A finished task whose completion notice was lost must not be kept
    alive by the worker's heartbeats — it has to expire and be reassigned."""
    coordinator = Coordinator(lease_timeout=0.2)
    worker = coordinator.register()["worker_id"]
    survivor = coordinator.register()["worker_id"]
    coordinator.submit(make_spec())
    assert coordinator.lease(worker, wait=0.05)["task"] is not None
    # The worker finished the task (its result is in the cache) but the
    # complete POST was lost; it now heartbeats with an empty active list.
    deadline = time.time() + 1.0
    reassigned = None
    while time.time() < deadline:
        coordinator.heartbeat(worker, tasks=[])
        reassigned = coordinator.lease(survivor, wait=0.05)["task"]
        if reassigned:
            break
    assert reassigned and reassigned["attempt"] == 2  # lease expired despite heartbeats


def test_retry_cap_fails_the_task():
    coordinator = Coordinator(lease_timeout=0.05, max_attempts=2)
    coordinator.submit(make_spec())
    for expected_attempt in (1, 2):
        worker = coordinator.register()["worker_id"]
        response = coordinator.lease(worker, wait=1.0)
        assert response["task"]["attempt"] == expected_attempt
        time.sleep(0.1)  # abandon the lease
    [completion] = coordinator.wait_completions(timeout=2.0)
    assert "giving up" in completion["error"]


def test_silent_workers_are_pruned_and_names_freed():
    coordinator = Coordinator(lease_timeout=0.1)
    worker = coordinator.register(name="stable")["worker_id"]
    assert worker == "stable"
    assert coordinator.worker_count == 1
    time.sleep(0.15)  # no heartbeat, no poll: the worker is presumed dead
    assert coordinator.wait_completions(timeout=0.01) == []  # drives the reaper
    # worker_count is honest again (the executor's no-live-worker watchdog
    # relies on this to fail instead of hanging when every worker died)...
    assert coordinator.worker_count == 0
    # ...and a restarted worker gets its stable --name back, not a suffix.
    assert coordinator.register(name="stable")["worker_id"] == "stable"


def test_shutdown_tells_workers_to_exit():
    coordinator = Coordinator()
    worker = coordinator.register()["worker_id"]
    coordinator.submit(make_spec())
    coordinator.shutdown()
    response = coordinator.lease(worker, wait=0.05)
    assert response == {"task": None, "shutdown": True}
    assert coordinator.heartbeat(worker)["shutdown"] is True


# ---------------------------------------------------------------------------
# coordinator work shaping (static cost table)
# ---------------------------------------------------------------------------


def test_lease_order_follows_the_static_cost_table():
    """Ready tasks must lease costliest-first: compiles before sweep points,
    and heavy workloads (mpeg2/jpeg) before light ones (blowfish)."""
    coordinator = Coordinator(lease_timeout=5.0)
    worker = coordinator.register()["worker_id"]
    # Submitted cheapest-first on purpose; lease order must invert it.
    coordinator.submit(make_spec("render:6.1") | {"kind": "render"})
    coordinator.submit(make_spec("sweep:latency:mpeg2:8") | {"workload": "mpeg2"})
    coordinator.submit(make_spec("compile:blowfish") | {"kind": "compile", "workload": "blowfish"})
    coordinator.submit(make_spec("compile:mpeg2") | {"kind": "compile", "workload": "mpeg2"})
    order = [coordinator.lease(worker, wait=0.05)["task"]["task_id"] for _ in range(4)]
    assert order == [
        "compile:mpeg2",       # heaviest kind x heaviest workload
        "compile:blowfish",    # any compile beats any sweep point
        "sweep:latency:mpeg2:8",
        "render:6.1",
    ]


def test_equal_cost_tasks_lease_fifo():
    coordinator = Coordinator(lease_timeout=5.0)
    worker = coordinator.register()["worker_id"]
    for index in range(3):
        coordinator.submit(make_spec(f"sweep:latency:mips:{index}") | {"workload": "mips"})
    order = [coordinator.lease(worker, wait=0.05)["task"]["task_id"] for _ in range(3)]
    assert order == [f"sweep:latency:mips:{index}" for index in range(3)]


def test_task_cost_recovers_workload_from_task_id():
    from repro.eval.remote.coordinator import task_cost

    tagged = task_cost({"kind": "compile", "workload": "mpeg2", "task_id": "compile:mpeg2"})
    untagged = task_cost({"kind": "compile", "task_id": "compile:mpeg2"})
    assert tagged == untagged
    assert task_cost({"kind": "compile", "task_id": "compile:mpeg2"}) > task_cost(
        {"kind": "compile", "task_id": "compile:blowfish"}
    )


# ---------------------------------------------------------------------------
# coordinator affinity sharding
# ---------------------------------------------------------------------------


def test_sweeps_lease_to_the_worker_that_compiled_their_workload():
    """Affinity sharding: each compiler's sweep/explore tasks prefer it, so
    its in-process sweep-input memo stays hot."""
    coordinator = Coordinator(lease_timeout=5.0)
    alpha = coordinator.register("alpha")["worker_id"]
    beta = coordinator.register("beta")["worker_id"]
    coordinator.submit(make_spec("compile:mips") | {"kind": "compile", "workload": "mips"})
    coordinator.submit(make_spec("compile:blowfish") | {"kind": "compile", "workload": "blowfish"})
    assert coordinator.lease(alpha, wait=0.05)["task"]["task_id"] == "compile:mips"
    assert coordinator.lease(beta, wait=0.05)["task"]["task_id"] == "compile:blowfish"
    coordinator.submit(
        make_spec("explore:blowfish:1") | {"kind": "explore", "workload": "blowfish"}
    )
    coordinator.submit(make_spec("explore:mips:1") | {"kind": "explore", "workload": "mips"})
    # beta asks first: cost order alone would hand it the costlier mips
    # explore — affinity must route it to its own (blowfish) work instead.
    assert coordinator.lease(beta, wait=0.05)["task"]["task_id"] == "explore:blowfish:1"
    assert coordinator.lease(alpha, wait=0.05)["task"]["task_id"] == "explore:mips:1"


def test_affinity_falls_back_to_any_worker():
    """A task whose compiling worker is gone (or busy with nothing else to
    offer) must still lease rather than idle the cluster."""
    coordinator = Coordinator(lease_timeout=0.2)
    alpha = coordinator.register("alpha")["worker_id"]
    beta = coordinator.register("beta")["worker_id"]
    coordinator.submit(make_spec("compile:mips") | {"kind": "compile", "workload": "mips"})
    assert coordinator.lease(alpha, wait=0.05)["task"] is not None
    coordinator.submit(make_spec("sweep:latency:mips:8") | {"workload": "mips"})
    # alpha is alive: beta defers... but only while something else is queued.
    # With the mips sweep as the sole ready task, beta leases it immediately.
    assert coordinator.lease(beta, wait=0.05)["task"]["task_id"] == "sweep:latency:mips:8"


def test_affinity_defers_claimed_work_while_other_work_exists():
    coordinator = Coordinator(lease_timeout=5.0)
    alpha = coordinator.register("alpha")["worker_id"]
    beta = coordinator.register("beta")["worker_id"]
    coordinator.submit(make_spec("compile:mips") | {"kind": "compile", "workload": "mips"})
    assert coordinator.lease(alpha, wait=0.05)["task"]["task_id"] == "compile:mips"
    # mips sweeps are claimed by alpha; the gsm sweep is unclaimed.  Cost
    # order alone would hand beta the costlier mips sweep (4.0 x) first.
    coordinator.submit(make_spec("sweep:latency:mips:8") | {"workload": "mips"})
    coordinator.submit(make_spec("sweep:latency:gsm:8") | {"workload": "gsm"})
    assert coordinator.lease(beta, wait=0.05)["task"]["task_id"] == "sweep:latency:gsm:8"
    assert coordinator.lease(beta, wait=0.05)["task"]["task_id"] == "sweep:latency:mips:8"


def test_compiles_still_outrank_affine_sweeps():
    """Affinity must not invert the cost shaping: the long poles (compiles)
    start before a worker drains its own cheap sweep backlog."""
    coordinator = Coordinator(lease_timeout=5.0)
    worker = coordinator.register()["worker_id"]
    coordinator.submit(make_spec("compile:mips") | {"kind": "compile", "workload": "mips"})
    assert coordinator.lease(worker, wait=0.05)["task"]["task_id"] == "compile:mips"
    coordinator.submit(make_spec("sweep:latency:mips:8") | {"workload": "mips"})
    coordinator.submit(make_spec("compile:blowfish") | {"kind": "compile", "workload": "blowfish"})
    assert coordinator.lease(worker, wait=0.05)["task"]["task_id"] == "compile:blowfish"
    assert coordinator.lease(worker, wait=0.05)["task"]["task_id"] == "sweep:latency:mips:8"


# ---------------------------------------------------------------------------
# wire protocol
# ---------------------------------------------------------------------------


def test_task_spec_round_trip_substitutes_configs_and_cache_spec():
    from repro.eval import taskgraph

    config = CompilerConfig()
    task = taskgraph.runtime_task(
        "blowfish",
        config,
        "/parent/cache",
        RuntimeConfig(queue_latency=8),
        "latency:blowfish:8",
        "c" * 64,
    )
    spec = json.loads(json.dumps(protocol.encode_task(task, "/parent/cache")))
    task_id, fn, args, key, serializer = protocol.decode_task(spec, "http://worker-view:1")
    assert task_id == task.task_id and key == task.key and serializer == "json"
    assert fn is taskgraph.compute_runtime_point
    name, decoded_config, cache_spec, runtime, parent_key = args
    assert name == "blowfish"
    assert parent_key == "c" * 64  # the compile key travels; workers never recompute it
    assert cache_spec == "http://worker-view:1"  # the worker's own cache, not the parent path
    assert decoded_config.content_hash() == config.content_hash()  # identical cache keys
    assert runtime.queue_latency == 8


def test_render_task_round_trips_list_args_on_the_wire():
    from repro.eval import experiments, taskgraph

    task = taskgraph.render_task(
        "6.1",
        experiments.compute_figure_render,
        deps=("compile:blowfish", "compile:mips"),
        dep_keys=["a" * 64, "b" * 64],
        agg_arg=["blowfish", "mips"],
        cache_root="/parent/cache",
    )
    spec = json.loads(json.dumps(protocol.encode_task(task, "/parent/cache")))
    assert spec["kind"] == "render" and spec["fn"] == "compute_figure_render"
    task_id, fn, args, key, serializer = protocol.decode_task(spec, "http://worker:1")
    assert task_id == "render:6.1" and key == task.key and serializer == "json"
    assert fn is experiments.compute_figure_render
    figure_id, dep_ids, dep_keys, agg_arg, cache_spec = args
    assert figure_id == "6.1"
    assert list(dep_ids) == ["compile:blowfish", "compile:mips"]
    assert list(dep_keys) == ["a" * 64, "b" * 64]
    assert list(agg_arg) == ["blowfish", "mips"]
    assert cache_spec == "http://worker:1"  # the worker's own cache spec


def test_unregistered_payloads_and_keyless_tasks_are_rejected():
    task = Task(task_id="t", kind="runtime", fn=lambda: None, key="a" * 64)
    with pytest.raises(RemoteProtocolError, match="unregistered payload"):
        protocol.encode_task(task, None)
    from repro.eval.taskgraph import compute_compile

    keyless = Task(task_id="t", kind="compile", fn=compute_compile, key=None)
    with pytest.raises(RemoteProtocolError, match="no content key"):
        protocol.encode_task(keyless, None)
    with pytest.raises(RemoteProtocolError, match="unknown payload function"):
        protocol.decode_task(make_spec() | {"fn": "os.system"}, None)


# ---------------------------------------------------------------------------
# cache service leases
# ---------------------------------------------------------------------------


def test_crashed_lock_holder_is_reaped_without_further_acquires(tmp_path):
    """The cache service's reaper must free an expired lock lease on its own,
    or a co-located local flock waiter could block forever."""
    server = make_cache_server(tmp_path / "served", port=0, lock_lease_seconds=0.3)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        token = server.try_acquire("a" * 64)
        assert token is not None  # "client" acquires, then crashes silently
        deadline = time.time() + 5.0
        while server.lock_leases and time.time() < deadline:
            time.sleep(0.05)
        assert not server.lock_leases  # reaper released the flock unprompted
        with LocalFSBackend(tmp_path / "served").lock("a" * 64):
            pass  # a local flock waiter gets through
    finally:
        server.shutdown()
        server.server_close()


# ---------------------------------------------------------------------------
# HTTP cache service
# ---------------------------------------------------------------------------


@pytest.fixture
def cache_server(tmp_path):
    server = make_cache_server(tmp_path / "served", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def test_http_cache_round_trip_json_and_pickle(cache_server):
    """JSON and compile artifacts round-trip; a ``pickle`` blob is refused."""
    from repro.core.compiler import TwillCompiler
    from repro.eval.artifact_codec import encode_compilation_result
    from tests.conftest import SMALL_PROGRAM

    result = TwillCompiler(CompilerConfig()).compile_and_simulate(SMALL_PROGRAM, name="small")
    remote = ArtifactCache(backend=HTTPCacheBackend(cache_server.url))
    assert remote.get("1" * 64) is None
    assert not remote.contains("1" * 64)
    remote.put("1" * 64, {"cycles": 123.5}, serializer="json")
    remote.put("2" * 64, result, serializer="artifact")
    assert remote.get("1" * 64) == {"cycles": 123.5}
    assert remote.backend.get_blob("2" * 64)[0] == "artifact"
    assert encode_compilation_result(remote.get("2" * 64)) == encode_compilation_result(result)
    assert remote.contains("2" * 64)
    # The served store is an ordinary local cache: a direct reader sees the
    # same entries, byte-compatibly.
    local = ArtifactCache(backend=cache_server.backend)
    assert local.get("1" * 64) == {"cycles": 123.5}
    assert remote.stats()["entries"] == 2

    with pytest.raises(ReproError, match="400"):
        remote.backend.put_blob("3" * 64, "pickle", b"\x80\x04N.")
    assert not remote.contains("3" * 64)
    assert remote.stats()["entries"] == 2


def test_http_cache_head_ignores_a_stale_pickle(cache_server):
    key = "4" * 64
    stale = cache_server.backend.objects_dir / key[:2] / f"{key}.pkl"
    stale.parent.mkdir(parents=True)
    stale.write_bytes(b"\x80\x04N.")
    remote = ArtifactCache(backend=HTTPCacheBackend(cache_server.url))
    assert not remote.contains(key)
    assert remote.get(key) is None


@pytest.mark.parametrize("header", [None, "pickle"])
def test_http_cache_client_refuses_a_missing_or_unknown_serializer(header):
    """A blob must say which of the two formats it is; the client never
    guesses one."""
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802
            self.send_response(200)
            if header is not None:
                self.send_header("X-Repro-Serializer", header)
            self.send_header("Content-Length", "2")
            self.end_headers()
            self.wfile.write(b"{}")

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        backend = HTTPCacheBackend(f"http://127.0.0.1:{server.server_address[1]}")
        with pytest.raises(RemoteError, match="X-Repro-Serializer"):
            ArtifactCache(backend=backend).get("5" * 64)
    finally:
        server.shutdown()
        server.server_close()


def test_http_cache_single_flight_across_clients(cache_server):
    computed = []

    def compute():
        computed.append(1)
        time.sleep(0.3)
        return {"v": 9}

    def contend():
        backend = HTTPCacheBackend(cache_server.url)
        assert ArtifactCache(backend=backend).get_or_compute(
            "9" * 64, compute, serializer="json"
        ) == {"v": 9}

    threads = [threading.Thread(target=contend) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert len(computed) == 1  # the second client waited on the server-side lock


def test_http_cache_rejects_bad_keys_and_paths(cache_server):
    backend = HTTPCacheBackend(cache_server.url)
    with pytest.raises(ReproError):
        backend.get_blob("../../etc/passwd")
    request = urllib.request.Request(f"{cache_server.url}/objects/nothex", method="GET")
    with pytest.raises(urllib.error.HTTPError):
        urllib.request.urlopen(request, timeout=5)


def test_maintenance_requires_local_cache(cache_server):
    remote = ArtifactCache(backend=HTTPCacheBackend(cache_server.url))
    with pytest.raises(ReproError, match="local cache"):
        remote.clear()
    with pytest.raises(ReproError, match="local cache"):
        remote.prune(0)
    assert remote.root is None


def test_from_spec_picks_backend(tmp_path):
    assert isinstance(ArtifactCache.from_spec(str(tmp_path)).backend, LocalFSBackend)
    assert isinstance(ArtifactCache.from_spec("http://example:1").backend, HTTPCacheBackend)
    assert ArtifactCache.from_spec("http://example:1").spec == "http://example:1"


def test_cache_metrics_stay_parseable_under_concurrent_puts(cache_server):
    """Four threads scrape ``/metrics`` while four threads PUT entries: every
    scrape is a complete exposition carrying the PUT counter."""
    backend = HTTPCacheBackend(cache_server.url)
    errors = []
    bodies = []
    lock = threading.Lock()

    def scrape():
        try:
            for _ in range(5):
                with urllib.request.urlopen(cache_server.url + "/metrics", timeout=10) as r:
                    text = r.read().decode("utf-8")
                with lock:
                    bodies.append(text)
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    def put(base):
        try:
            for i in range(5):
                backend.put_blob(f"{base * 100 + i:064x}", "json", b'{"v": 1}')
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    threads = [threading.Thread(target=scrape) for _ in range(4)]
    threads += [threading.Thread(target=put, args=(n,)) for n in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not errors
    assert len(bodies) == 20
    for body in bodies:
        value = metric_value(parse_prometheus(body), "repro_cache_puts_total")
        assert isinstance(value, float)
    assert ArtifactCache(backend=cache_server.backend).stats()["entries"] == 20


def _mint_self_signed(tmp_path):
    openssl = shutil.which("openssl")
    if openssl is None:
        pytest.skip("no openssl binary available to mint a test certificate")
    cert, key = tmp_path / "tls.crt", tmp_path / "tls.key"
    subprocess.run(
        [openssl, "req", "-x509", "-newkey", "rsa:2048", "-nodes",
         "-keyout", str(key), "-out", str(cert), "-days", "1",
         "-subj", "/CN=127.0.0.1",
         "-addext", "subjectAltName=IP:127.0.0.1"],
        check=True, capture_output=True, timeout=60,
    )
    return cert, key


def test_cache_service_round_trip_over_tls(tmp_path, monkeypatch):
    cert, key = _mint_self_signed(tmp_path)
    monkeypatch.setenv(protocol.TLS_CERT_ENV, str(cert))
    monkeypatch.setenv(protocol.TLS_KEY_ENV, str(key))
    server = make_cache_server(tmp_path / "served", port=0)
    assert server.url.startswith("https://")
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    monkeypatch.delenv(protocol.TLS_CERT_ENV)
    monkeypatch.delenv(protocol.TLS_KEY_ENV)
    try:
        # The server must not accept plaintext clients once TLS is on.
        plain = "http://" + server.url[len("https://"):]
        with pytest.raises(OSError):
            urllib.request.urlopen(f"{plain}/healthz", timeout=10)
        # A client trusting the cert as its CA completes a put/get round trip.
        monkeypatch.setenv(protocol.TLS_CA_ENV, str(cert))
        remote = ArtifactCache(backend=HTTPCacheBackend(server.url))
        remote.put("5" * 64, {"cycles": 7.0}, serializer="json")
        assert remote.get("5" * 64) == {"cycles": 7.0}
        # An untrusting client fails certificate verification.
        monkeypatch.delenv(protocol.TLS_CA_ENV)
        with pytest.raises(urllib.error.URLError, match="certificate verify failed"):
            protocol.urlopen(f"{server.url}/healthz", timeout=5)
    finally:
        server.shutdown()
        server.server_close()


# ---------------------------------------------------------------------------
# shared-secret service auth
# ---------------------------------------------------------------------------


@pytest.fixture
def scoped_token():
    """Set (and always restore) the process-level service token."""

    def set_token(token):
        previous = protocol.set_process_service_token(token)
        restores.append(previous)
        return token

    restores = []
    yield set_token
    for previous in reversed(restores):
        protocol.set_process_service_token(previous)


def test_cache_service_requires_matching_token(tmp_path, scoped_token):
    from repro.errors import RemoteError

    server = make_cache_server(tmp_path / "served", port=0, token="s3cret")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        backend = HTTPCacheBackend(server.url)
        # No token: every store operation is refused with an actionable error.
        with pytest.raises(RemoteError, match="REPRO_SERVICE_TOKEN"):
            backend.get_blob("1" * 64)
        with pytest.raises(RemoteError):
            backend.put_blob("1" * 64, "json", b"{}")
        with pytest.raises(RemoteError):
            backend.contains("1" * 64)
        # Wrong token: same refusal (constant-time compare, no oracle).
        scoped_token("wrong")
        with pytest.raises(RemoteError, match="401"):
            backend.get_blob("1" * 64)
        # Matching token: full round trip works again.
        scoped_token("s3cret")
        cache = ArtifactCache(backend=HTTPCacheBackend(server.url))
        cache.put("1" * 64, {"v": 1}, serializer="json")
        assert cache.get("1" * 64) == {"v": 1}
        assert cache.contains("1" * 64)
        assert cache.stats()["entries"] == 1
        # The liveness probe stays open for scripts and CI.
        scoped_token(None)
        assert protocol.http_get_json(f"{server.url}/healthz")["ok"] is True
    finally:
        server.shutdown()
        server.server_close()


def test_cache_service_head_rejects_bad_token_without_body(tmp_path, scoped_token):
    server = make_cache_server(tmp_path / "served", port=0, token="s3cret")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        request = urllib.request.Request(f"{server.url}/objects/{'2' * 64}", method="HEAD")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 401
    finally:
        server.shutdown()
        server.server_close()


def test_coordinator_requires_matching_token(scoped_token):
    from repro.errors import RemoteError
    from repro.eval.remote.coordinator import start_coordinator_server

    coordinator = Coordinator()
    server = start_coordinator_server(coordinator, port=0, token="s3cret")
    try:
        with pytest.raises(RemoteError, match="401"):
            protocol.http_post_json(f"{server.url}/workers/register", {"name": "w"})
        assert protocol.http_get_json(f"{server.url}/healthz")["ok"] is True
        scoped_token("s3cret")
        response = protocol.http_post_json(f"{server.url}/workers/register", {"name": "w"})
        assert response["worker_id"] == "w"
        assert protocol.http_get_json(f"{server.url}/status")["workers"] == ["w"]
    finally:
        server.shutdown()
        server.server_close()


# ---------------------------------------------------------------------------
# worker pool daemon (--pool N)
# ---------------------------------------------------------------------------


def test_worker_pool_drives_n_registered_executors():
    from repro.eval.remote.worker import run_worker_pool

    executor = RemoteExecutor(port=0, worker_timeout=60.0)
    result = {}

    def drive_pool():
        result["code"] = run_worker_pool(
            2,
            coordinator_url=executor.url,
            poll_wait=0.2,
            startup_timeout=30.0,
            verbose=False,
        )

    supervisor = threading.Thread(target=drive_pool, daemon=True)
    supervisor.start()
    try:
        deadline = time.time() + 30
        while executor.coordinator.worker_count < 2 and time.time() < deadline:
            time.sleep(0.05)
        assert executor.coordinator.worker_count == 2  # both members registered
        executor.close()  # run over: members observe shutdown and exit
        supervisor.join(timeout=30)
        assert not supervisor.is_alive()
        assert result["code"] == 0
    finally:
        executor.stop_server()


# ---------------------------------------------------------------------------
# remote executor + real worker loop (cheap fake payloads)
# ---------------------------------------------------------------------------


def fake_payload(base):
    """Cheap stand-in for a sweep payload (registered on the wire below)."""
    return {"value": base * 2}


protocol.register_payload_function("_test_fake_payload", fake_payload)


def fake_task(task_id="sweep:fake:21", base=21, key="e" * 64):
    return Task(
        task_id=task_id, kind="runtime", fn=fake_payload, args=(base,), key=key,
        serializer="json",
    )


def test_scheduler_with_remote_executor_and_real_worker(tmp_path):
    graph = TaskGraph()
    graph.add(fake_task())
    graph.add(aggregate_task("agg", lambda results: results["sweep:fake:21"]["value"], ["sweep:fake:21"]))
    cache = ArtifactCache(tmp_path / "cache")
    trace = TraceRecorder()
    executor = RemoteExecutor(port=0, lease_timeout=10.0, worker_timeout=60.0)
    worker = threading.Thread(
        target=run_worker,
        kwargs=dict(
            coordinator_url=executor.url,
            cache_spec=str(tmp_path / "cache"),
            poll_wait=0.5,
            verbose=False,
        ),
        daemon=True,
    )
    worker.start()
    try:
        results = TaskScheduler(graph, cache=cache, executor=executor, trace=trace).run()
        assert results["agg"] == 42
        # The worker published through the cache, not the coordinator wire.
        assert cache.get("e" * 64) == {"value": 42}
        # Both the remote task and the parent-side aggregate were traced,
        # on different lanes.
        spans = {event["name"]: event for event in trace.events}
        assert spans["sweep:fake:21"]["tid"] != spans["agg"]["tid"]
        # After the run the worker is told to shut down and exits.
        worker.join(timeout=15)
        assert not worker.is_alive()
    finally:
        executor.stop_server()


def test_persistent_executor_survives_scheduler_runs_until_finalized(tmp_path):
    """The multi-generation contract of ``repro explore --workers``: one
    persistent RemoteExecutor (one coordinator, one worker registration)
    serves several scheduler runs; only ``finalize`` ends the run for the
    workers."""
    cache = ArtifactCache(tmp_path / "cache")
    executor = RemoteExecutor(port=0, lease_timeout=10.0, worker_timeout=60.0,
                              persistent=True)
    worker = threading.Thread(
        target=run_worker,
        kwargs=dict(
            coordinator_url=executor.url,
            cache_spec=str(tmp_path / "cache"),
            poll_wait=0.2,
            verbose=False,
        ),
        daemon=True,
    )
    worker.start()
    try:
        for generation, key_char in enumerate("ab"):
            graph = TaskGraph()
            graph.add(fake_task(task_id=f"sweep:fake:{generation}", key=key_char * 64))
            results = TaskScheduler(graph, cache=cache, executor=executor).run()
            assert results[f"sweep:fake:{generation}"] == {"value": 42}
            # The scheduler close()d the executor after the run, but the
            # persistent coordinator is still serving and the worker is
            # still registered — no shutdown was broadcast.
            assert executor.coordinator.status()["shutdown"] is False
            assert worker.is_alive()
        executor.finalize()
        assert executor.coordinator.status()["shutdown"] is True
        worker.join(timeout=15)
        assert not worker.is_alive()  # finalize told the worker the run ended
    finally:
        executor.stop_server()


def test_explore_candidates_execute_on_remote_workers(tmp_path):
    """A full multi-generation exploration through a persistent executor and
    a real worker must equal the serial search byte for byte (candidate
    params/space dicts cross the wire via the plain-dict encoding)."""
    import json as json_mod

    from repro.eval.harness import EvaluationHarness
    from repro.explore.driver import ExplorationDriver
    from repro.explore.space import Dimension, SearchSpace

    space = SearchSpace(
        dimensions=(
            Dimension("sw_fraction", "partition", "sw_fraction", (0.25, 0.5, 0.75)),
            Dimension("queue_depth", "runtime", "queue_depth", (4, 8)),
        )
    )
    cache_dir = str(tmp_path / "cache")
    executor = RemoteExecutor(port=0, lease_timeout=30.0, worker_timeout=120.0,
                              persistent=True)
    worker = threading.Thread(
        target=run_worker,
        kwargs=dict(coordinator_url=executor.url, cache_spec=cache_dir, poll_wait=0.2,
                    verbose=False),
        daemon=True,
    )
    worker.start()
    try:
        harness = EvaluationHarness(benchmarks=["blowfish"], cache_dir=cache_dir)
        remote = ExplorationDriver(
            harness, "blowfish", strategy="annealing", budget=4, seed=5,
            space=space, executor=executor,
        ).run()
        executor.finalize()
        serial_harness = EvaluationHarness(
            benchmarks=["blowfish"], cache_dir=str(tmp_path / "serial")
        )
        serial = ExplorationDriver(
            serial_harness, "blowfish", strategy="annealing", budget=4, seed=5,
            space=space,
        ).run()
        assert json_mod.dumps(remote.to_json_dict(), sort_keys=True) == json_mod.dumps(
            serial.to_json_dict(), sort_keys=True
        )
        worker.join(timeout=30)
        assert not worker.is_alive()
    finally:
        executor.stop_server()


def test_render_tasks_execute_on_remote_workers(tmp_path):
    """A figure render must cross the wire like any sweep point: the worker
    reads the dependency artefacts from the shared cache, renders, and ships
    the SVG back as a JSON value."""
    from repro.eval import experiments
    from repro.eval.harness import EvaluationHarness

    cache_dir = str(tmp_path / "cache")
    harness = EvaluationHarness(benchmarks=["blowfish"], cache_dir=cache_dir)
    executor = RemoteExecutor(port=0, lease_timeout=30.0, worker_timeout=120.0)
    worker = threading.Thread(
        target=run_worker,
        kwargs=dict(coordinator_url=executor.url, cache_spec=cache_dir, poll_wait=0.5,
                    verbose=False),
        daemon=True,
    )
    worker.start()
    try:
        from repro.eval.taskgraph import TaskGraph

        graph = TaskGraph()
        render_id = experiments.declare_figure_render(graph, harness, "6.4")
        results = harness.execute(graph, executor=executor)
        markup = results[render_id]
        assert markup.startswith("<svg") and "blowfish" in markup
        # Byte-identical to a purely local render of the same artefacts.
        local = EvaluationHarness(benchmarks=["blowfish"], cache_dir=cache_dir)
        assert experiments.figure_svg("6.4", local) == markup
        worker.join(timeout=30)
        assert not worker.is_alive()
    finally:
        executor.stop_server()


def test_worker_accepts_schemeless_coordinator_address(tmp_path):
    """`--coordinator HOST:PORT` (the form `--workers` prints/accepts) must
    work, not crash with an unknown-url-type ValueError."""
    executor = RemoteExecutor(port=0, worker_timeout=60.0)
    address = executor.url[len("http://"):]
    worker = threading.Thread(
        target=run_worker,
        kwargs=dict(coordinator_url=address, cache_spec=str(tmp_path), poll_wait=0.2,
                    verbose=False),
        daemon=True,
    )
    worker.start()
    try:
        deadline = time.time() + 15
        while executor.coordinator.worker_count == 0 and time.time() < deadline:
            time.sleep(0.05)
        assert executor.coordinator.worker_count == 1  # registration worked
        executor.close()  # run over: the worker must notice and exit
        worker.join(timeout=15)
        assert not worker.is_alive()
    finally:
        executor.stop_server()


def test_worker_reported_failure_aborts_the_run(tmp_path):
    def exploding(base):
        raise ValueError("boom")

    protocol.register_payload_function("_test_exploding", exploding)
    graph = TaskGraph()
    graph.add(Task(task_id="sweep:boom", kind="runtime", fn=exploding, args=(1,),
                   key="b" * 64, serializer="json"))
    executor = RemoteExecutor(port=0, lease_timeout=10.0, worker_timeout=60.0)
    worker = threading.Thread(
        target=run_worker,
        kwargs=dict(coordinator_url=executor.url, cache_spec=str(tmp_path), poll_wait=0.5,
                    verbose=False, max_tasks=1),
        daemon=True,
    )
    worker.start()
    try:
        with pytest.raises(RemoteTaskError, match="boom"):
            TaskScheduler(graph, cache=ArtifactCache(tmp_path), executor=executor).run()
    finally:
        executor.stop_server()
        worker.join(timeout=15)


def test_tasks_the_executor_cannot_run_fall_back_to_the_parent(tmp_path):
    ran_inline = []

    def unregistered():
        ran_inline.append(True)
        return {"ok": 1}

    graph = TaskGraph()
    graph.add(Task(task_id="sweep:inline", kind="runtime", fn=unregistered,
                   key="c" * 64, serializer="json"))
    executor = RemoteExecutor(port=0, worker_timeout=60.0)
    try:
        results = TaskScheduler(graph, cache=ArtifactCache(tmp_path), executor=executor).run()
    finally:
        executor.stop_server()
    assert results["sweep:inline"] == {"ok": 1}
    assert ran_inline  # no worker existed; the parent ran it inline


# ---------------------------------------------------------------------------
# graceful interrupt
# ---------------------------------------------------------------------------


def test_keyboard_interrupt_sweeps_lock_files_serial(tmp_path):
    cache = ArtifactCache(tmp_path)

    def interrupted():
        raise KeyboardInterrupt

    graph = TaskGraph()
    graph.add(Task(task_id="sweep:interrupted", kind="runtime", fn=interrupted,
                   key="a" * 64, serializer="json"))
    with pytest.raises(KeyboardInterrupt):
        TaskScheduler(graph, cache=cache).run()
    # get_or_compute created the per-key lock file; the graceful-shutdown
    # path must not leave it behind.
    assert not cache.backend.lock_path("a" * 64).exists()
    assert list((tmp_path / "locks").rglob("*.lock")) == []


def test_keyboard_interrupt_with_executor_closes_it(tmp_path):
    closed = []

    class Recorder:
        def can_execute(self, task):
            return False

        def submit(self, task, cache):  # pragma: no cover - never reached
            raise AssertionError

        def wait(self):  # pragma: no cover - never reached
            return []

        def close(self, interrupt=False):
            closed.append(interrupt)

    def interrupted():
        raise KeyboardInterrupt

    graph = TaskGraph()
    graph.add(Task(task_id="sweep:interrupted", kind="runtime", fn=interrupted,
                   key="d" * 64, serializer="json"))
    cache = ArtifactCache(tmp_path)
    with pytest.raises(KeyboardInterrupt):
        TaskScheduler(graph, cache=cache, executor=Recorder()).run()
    assert True in closed  # interrupt-mode close happened
    assert not cache.backend.lock_path("d" * 64).exists()


# ---------------------------------------------------------------------------
# end-to-end localhost smoke (subprocesses; the acceptance criterion)
# ---------------------------------------------------------------------------


def test_distributed_smoke_localhost():
    """Cache server + two workers (one crash-injected) + ``repro report
    --workers`` must be byte-identical to a cold serial run."""
    import subprocess
    import sys as _sys

    repo_root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [
            _sys.executable,
            str(repo_root / "tools" / "distributed_smoke.py"),
            "--benchmarks", "blowfish",
            "--lease-timeout", "10",
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    assert "byte-identical" in proc.stdout
