"""Shared artifact cache over HTTP: the ``repro cache serve`` service and its client.

The service wraps one :class:`~repro.eval.cache.LocalFSBackend` store in a
:class:`http.server.ThreadingHTTPServer` so several machines can share it;
the :class:`HTTPCacheBackend` client plugs into
:class:`~repro.eval.cache.ArtifactCache` wherever a local directory would.
Blobs travel verbatim — serialisation and content addressing stay
client-side, so the service never decodes anything.  Every blob is either a
compile artifact or JSON (``X-Repro-Serializer: artifact`` or ``json``), and
neither executes code when a client decodes it.

Endpoints (keys are validated as 64 hex chars, so no path escapes):

| method & path                 | meaning                                        |
| ----------------------------- | ---------------------------------------------- |
| ``GET /objects/<key>``        | blob bytes; ``X-Repro-Serializer`` header; 404 = miss |
| ``HEAD /objects/<key>``       | existence probe (same header, no body)         |
| ``PUT /objects/<key>``        | atomic store (serializer from the same header) |
| ``POST /locks/<key>/acquire`` | single-flight lock; long-polls until granted or ``wait`` expires |
| ``POST /locks/<key>/release`` | release by token                               |
| ``GET /stats``                | the underlying store's ``cache stats`` dict    |
| ``GET /healthz``              | liveness probe: role/version/uptime (never auth'd) |
| ``GET /metrics``              | Prometheus text exposition (never auth'd; docs/OBSERVABILITY.md) |

With a service token configured (``REPRO_SERVICE_TOKEN`` /
``RuntimeConfig.service_token``) every endpoint except the liveness probe
requires the shared secret under a constant-time compare; mismatches get a
401 (docs/DISTRIBUTED.md "Trust model").

Single-flight is preserved *server-side*: an acquire takes the store's
per-key ``flock`` in the handler thread and parks it in a lease table, so
HTTP clients, co-located local processes and the server itself all
serialise on the same lock.  Leases expire (default 300 s) so a client that
dies while holding one only stalls its key briefly; the lock remains purely
an anti-duplication measure — correctness never depends on it, and clients
that fail to acquire simply compute redundantly.
"""

from __future__ import annotations

import contextlib
import re
import threading
import time
import urllib.error
import urllib.request
import uuid
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple

try:  # POSIX-only; without it the server's lease table alone serialises clients.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro import __version__
from repro.errors import RemoteError
from repro.eval.cache import SERIALIZERS, LocalFSBackend
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.obs.logs import get_logger
from repro.eval.remote.protocol import (
    TRANSPORT_ERRORS,
    auth_headers,
    check_auth,
    http_get_json,
    http_post_json,
    raise_for_auth,
    read_json,
    send_json,
    service_token,
    token_matches,
    urlopen,
    wrap_server_socket,
)

SERIALIZER_HEADER = "X-Repro-Serializer"

#: A held lock lease expires after this long without release, so a crashed
#: client cannot stall its key forever (duplicate work, never corruption).
DEFAULT_LOCK_LEASE_SECONDS = 300.0

#: How long an acquire long-polls before giving up (client then computes
#: without the lock — the advisory degradation the local flock also allows).
DEFAULT_LOCK_WAIT_SECONDS = 60.0

_KEY_RE = re.compile(r"^[0-9a-f]{64}$")

# -- telemetry (process-local; exposed on GET /metrics) ---------------------------

_HITS = obs_metrics.counter(
    "repro_cache_hits_total", "Object GETs served from the store (200)."
)
_MISSES = obs_metrics.counter(
    "repro_cache_misses_total", "Object GETs that missed the store (404)."
)
_SERVER_PUTS = obs_metrics.counter(
    "repro_cache_puts_total", "Objects stored via PUT."
)
_LOCK_ACQUIRES = obs_metrics.counter(
    "repro_cache_lock_acquires_total", "Single-flight lock leases granted."
)
_LOCK_TIMEOUTS = obs_metrics.counter(
    "repro_cache_lock_timeouts_total", "Lock acquires that timed out (client computes unlocked)."
)
_ENTRIES = obs_metrics.gauge(
    "repro_cache_entries", "Entries in the served store (refreshed at scrape)."
)
_BYTES = obs_metrics.gauge(
    "repro_cache_bytes", "Total bytes in the served store (refreshed at scrape)."
)
_REQUEST_SECONDS = obs_metrics.histogram(
    "repro_cache_request_seconds",
    "Wall-clock seconds spent handling one HTTP request, by method.",
    buckets=obs_metrics.REQUEST_BUCKETS,
)


def _timed_handler(method: Any) -> Any:
    """Wrap a ``do_VERB`` so every request lands in the duration histogram."""
    verb = method.__name__[3:]

    def wrapper(self: Any) -> None:
        started = time.perf_counter()
        try:
            method(self)
        finally:
            _REQUEST_SECONDS.observe(time.perf_counter() - started, method=verb)

    wrapper.__name__ = method.__name__
    wrapper.__doc__ = method.__doc__
    return wrapper


@dataclass
class _LockLease:
    token: str
    deadline: float
    handle: Any = field(default=None, repr=False)  # open fd holding the flock


class CacheHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server owning the store and the single-flight leases."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        backend: LocalFSBackend,
        lock_lease_seconds: float = DEFAULT_LOCK_LEASE_SECONDS,
        verbose: bool = False,
        token: Optional[str] = None,
    ):
        super().__init__(address, _CacheRequestHandler)
        self.backend = backend
        self.lock_lease_seconds = lock_lease_seconds
        self.verbose = verbose
        self.start_time = time.time()
        self.logger = get_logger("cache", verbose=verbose)
        obs_metrics.install_stage_observer()
        obs_metrics.set_build_info()
        # Shared service secret (docs/DISTRIBUTED.md "Trust model"): when
        # set, every request except GET /healthz must present it.
        self.token = token if token is not None else service_token()
        self.lock_mutex = threading.Lock()
        self.lock_leases: Dict[str, _LockLease] = {}
        # Expired leases must be reclaimed even if no further HTTP acquire
        # for that key ever arrives: the lease holds a real flock, and a
        # co-located local process blocked on it has no timeout of its own.
        self._reaper_stop = threading.Event()
        self._reaper = threading.Thread(target=self._reap_loop, daemon=True)
        self._reaper.start()
        self.tls = wrap_server_socket(self)

    def _reap_loop(self) -> None:
        while not self._reaper_stop.wait(1.0):
            now = time.time()
            with self.lock_mutex:
                for key, lease in list(self.lock_leases.items()):
                    if lease.deadline <= now:
                        self._drop_locked(key, lease)

    def server_close(self) -> None:
        self._reaper_stop.set()
        super().server_close()

    @property
    def url(self) -> str:
        host, port = self.server_address[0], self.server_address[1]
        scheme = "https" if self.tls else "http"
        return f"{scheme}://{host}:{port}"

    # -- lease table -------------------------------------------------------------

    def try_acquire(self, key: str) -> Optional[str]:
        """One non-blocking acquisition attempt; returns a token or ``None``."""
        now = time.time()
        with self.lock_mutex:
            lease = self.lock_leases.get(key)
            if lease is not None:
                if lease.deadline > now:
                    return None
                self._drop_locked(key, lease)  # expired: reclaim from dead client
            handle = None
            if fcntl is not None:
                lock_path = self.backend.lock_path(key)
                lock_path.parent.mkdir(parents=True, exist_ok=True)
                handle = open(lock_path, "a")
                try:
                    fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
                except OSError:
                    handle.close()
                    return None  # a co-located local process holds the flock
            token = uuid.uuid4().hex
            self.lock_leases[key] = _LockLease(
                token=token, deadline=now + self.lock_lease_seconds, handle=handle
            )
            return token

    def release(self, key: str, token: str) -> bool:
        with self.lock_mutex:
            lease = self.lock_leases.get(key)
            if lease is None or lease.token != token:
                return False
            self._drop_locked(key, lease)
            return True

    def _drop_locked(self, key: str, lease: _LockLease) -> None:
        if lease.handle is not None:
            try:
                if fcntl is not None:
                    fcntl.flock(lease.handle, fcntl.LOCK_UN)
            except OSError:
                pass
            try:
                lease.handle.close()
            except OSError:
                pass
        self.lock_leases.pop(key, None)


class _CacheRequestHandler(BaseHTTPRequestHandler):
    """Routes the endpoint table in the module docstring onto the backend."""

    server: CacheHTTPServer
    protocol_version = "HTTP/1.1"

    # -- plumbing ---------------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        # Per-request chatter logs at DEBUG: visible with --verbose (which
        # forces the logger to DEBUG) or REPRO_LOG_LEVEL=DEBUG.
        self.server.logger.debug(format % args)

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        send_json(self, status, payload)

    def _read_json(self) -> Dict[str, Any]:
        return read_json(self)

    def _object_key(self) -> Optional[str]:
        match = re.match(r"^/objects/([0-9a-f]{64})$", self.path)
        return match.group(1) if match else None

    def _lock_key(self, action: str) -> Optional[str]:
        match = re.match(rf"^/locks/([0-9a-f]{{64}})/{action}$", self.path)
        return match.group(1) if match else None

    # -- objects ------------------------------------------------------------------

    @_timed_handler
    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        if self.path == "/healthz":  # liveness probe: exempt from auth
            self._send_json(
                200,
                {
                    "ok": True,
                    "root": str(self.server.backend.root),
                    "role": "cache",
                    "version": __version__,
                    "uptime_seconds": round(time.time() - self.server.start_time, 3),
                },
            )
            return
        if self.path == "/metrics":  # scrape endpoint: exempt like /healthz
            try:
                stats = self.server.backend.stats()
                _ENTRIES.set(float(stats.get("entries", 0)))
                _BYTES.set(float(stats.get("total_bytes", 0)))
            except OSError:
                pass
            body = obs_metrics.REGISTRY.render().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        if not check_auth(self, self.server.token):
            return
        key = self._object_key()
        if key is not None:
            with obs_tracing.server_span(
                "cache.get", self.headers, kind="cache", key=key[:16]
            ) as span:
                blob = self.server.backend.get_blob(key)
                if blob is None:
                    _MISSES.inc()
                    span.set("cache_hit", False)
                    self._send_json(404, {"error": "miss"})
                    return
                _HITS.inc()
                span.set("cache_hit", True)
                serializer, data = blob
                self.send_response(200)
                self.send_header("Content-Type", "application/octet-stream")
                self.send_header(SERIALIZER_HEADER, serializer)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)
                return
        if self.path == "/stats":
            self._send_json(200, self.server.backend.stats())
            return
        self._send_json(404, {"error": "unknown path"})

    @_timed_handler
    def do_HEAD(self) -> None:  # noqa: N802
        if not token_matches(self, self.server.token):
            # A HEAD response must not carry a body; send a bare 401.
            self.send_response(401)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        key = self._object_key()
        if key is None:
            self.send_response(404)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        blob_serializer = None
        for serializer in SERIALIZERS:
            if self.server.backend._path(key, serializer).is_file():
                blob_serializer = serializer
                break
        self.send_response(200 if blob_serializer else 404)
        if blob_serializer:
            self.send_header(SERIALIZER_HEADER, blob_serializer)
        self.send_header("Content-Length", "0")
        self.end_headers()

    @_timed_handler
    def do_PUT(self) -> None:  # noqa: N802
        # Drain the body before any error response: on an HTTP/1.1
        # keep-alive connection, unread body bytes would be parsed as the
        # next request line, desynchronising the connection.
        length = int(self.headers.get("Content-Length") or 0)
        data = self.rfile.read(length) if length else b""
        if not check_auth(self, self.server.token):
            return
        key = self._object_key()
        if key is None:
            self._send_json(404, {"error": "unknown path"})
            return
        serializer = self.headers.get(SERIALIZER_HEADER, "")
        if serializer not in SERIALIZERS:
            self._send_json(400, {"error": f"missing or invalid {SERIALIZER_HEADER} header"})
            return
        if not data:
            self._send_json(400, {"error": "empty body"})
            return
        with obs_tracing.server_span("cache.put", self.headers, kind="cache", key=key[:16]):
            self.server.backend.put_blob(key, serializer, data)
        _SERVER_PUTS.inc()
        self._send_json(200, {"stored": True})

    # -- locks ----------------------------------------------------------------------

    @_timed_handler
    def do_POST(self) -> None:  # noqa: N802
        body = self._read_json()  # always drain the body (keep-alive safety)
        if not check_auth(self, self.server.token):
            return
        key = self._lock_key("acquire")
        if key is not None:
            wait = float(body.get("wait", DEFAULT_LOCK_WAIT_SECONDS))
            deadline = time.time() + max(0.0, wait)
            while True:
                token = self.server.try_acquire(key)
                if token is not None:
                    _LOCK_ACQUIRES.inc()
                    self._send_json(200, {"token": token})
                    return
                if time.time() >= deadline:
                    _LOCK_TIMEOUTS.inc()
                    self._send_json(408, {"error": "lock wait timed out"})
                    return
                time.sleep(0.05)
        key = self._lock_key("release")
        if key is not None:
            released = self.server.release(key, str(body.get("token", "")))
            self._send_json(200, {"released": released})
            return
        self._send_json(404, {"error": "unknown path"})


def make_cache_server(
    root: Path,
    host: str = "127.0.0.1",
    port: int = 0,
    lock_lease_seconds: float = DEFAULT_LOCK_LEASE_SECONDS,
    verbose: bool = False,
    token: Optional[str] = None,
) -> CacheHTTPServer:
    """Build (but do not run) a cache server over the store at *root*."""
    return CacheHTTPServer(
        (host, port), LocalFSBackend(Path(root)), lock_lease_seconds, verbose, token=token
    )


def serve_cache(
    root: Path,
    host: str = "127.0.0.1",
    port: int = 8737,
    lock_lease_seconds: float = DEFAULT_LOCK_LEASE_SECONDS,
    verbose: bool = False,
    token: Optional[str] = None,
) -> int:
    """``repro cache serve``: serve *root* until interrupted (blocking)."""
    obs_tracing.set_service("cache")
    server = make_cache_server(root, host, port, lock_lease_seconds, verbose, token=token)
    auth = "shared-secret auth on" if server.token else "no auth (trusted network)"
    server.logger.info(f"serving artifact cache {root} at {server.url} ({auth})")
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()
    return 0


# ---------------------------------------------------------------------------
# client
# ---------------------------------------------------------------------------


class HTTPCacheBackend:
    """:class:`~repro.eval.cache.CacheBackend` client for a cache service.

    ``spec`` is the service URL, so the same string that configured this
    backend reconstructs an equivalent one inside any worker process.
    ``delete`` is a no-op (a corrupt remote entry is simply overwritten by
    the recompute that follows the miss), and ``lock`` degrades to
    lock-less computation when the service is unreachable or the wait times
    out — exactly the advisory semantics of the local ``flock``.
    """

    def __init__(self, base_url: str, timeout: float = 60.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    @property
    def spec(self) -> str:
        return self.base_url

    def _object_url(self, key: str) -> str:
        if not _KEY_RE.match(key):
            raise RemoteError(f"invalid cache key '{key}'")
        return f"{self.base_url}/objects/{key}"

    def get_blob(self, key: str) -> Optional[Tuple[str, bytes]]:
        request = urllib.request.Request(
            self._object_url(key), headers={**auth_headers(), **obs_tracing.trace_headers()}
        )
        try:
            with urlopen(request, timeout=self.timeout) as response:
                serializer = response.headers.get(SERIALIZER_HEADER)
                if serializer not in SERIALIZERS:
                    raise RemoteError(
                        f"cache service sent {SERIALIZER_HEADER}: {serializer!r}, "
                        f"expected one of {SERIALIZERS}"
                    )
                return serializer, response.read()
        except urllib.error.HTTPError as exc:
            if exc.code == 404:
                return None
            raise_for_auth(exc, self.base_url)
            raise RemoteError(f"cache service GET failed: {exc}") from exc
        except urllib.error.URLError as exc:
            raise RemoteError(f"cache service unreachable at {self.base_url}: {exc}") from exc

    def put_blob(self, key: str, serializer: str, data: bytes) -> None:
        request = urllib.request.Request(
            self._object_url(key),
            data=data,
            method="PUT",
            headers={
                "Content-Type": "application/octet-stream",
                SERIALIZER_HEADER: serializer,
                **auth_headers(),
                **obs_tracing.trace_headers(),
            },
        )
        try:
            with urlopen(request, timeout=self.timeout):
                pass
        except urllib.error.HTTPError as exc:
            raise_for_auth(exc, self.base_url)
            raise RemoteError(f"cache service PUT failed: {exc}") from exc
        except urllib.error.URLError as exc:
            raise RemoteError(f"cache service PUT failed: {exc}") from exc

    def contains(self, key: str) -> bool:
        request = urllib.request.Request(
            self._object_url(key),
            method="HEAD",
            headers={**auth_headers(), **obs_tracing.trace_headers()},
        )
        try:
            with urlopen(request, timeout=self.timeout):
                return True
        except urllib.error.HTTPError as exc:
            if exc.code == 404:
                return False
            raise_for_auth(exc, self.base_url)
            raise RemoteError(f"cache service HEAD failed: {exc}") from exc
        except urllib.error.URLError as exc:
            raise RemoteError(f"cache service unreachable at {self.base_url}: {exc}") from exc

    def delete(self, key: str) -> None:
        """No remote deletion: the recompute after a miss overwrites the entry."""

    @contextlib.contextmanager
    def lock(self, key: str) -> Iterator[None]:
        token: Optional[str] = None
        try:
            response = http_post_json(
                f"{self.base_url}/locks/{key}/acquire",
                {"wait": DEFAULT_LOCK_WAIT_SECONDS},
                timeout=DEFAULT_LOCK_WAIT_SECONDS + 10.0,
            )
            token = response.get("token")
        except (*TRANSPORT_ERRORS, ValueError):
            token = None  # advisory: compute without the lock
        try:
            yield
        finally:
            if token is not None:
                try:
                    http_post_json(
                        f"{self.base_url}/locks/{key}/release",
                        {"token": token},
                        timeout=self.timeout,
                    )
                except (*TRANSPORT_ERRORS, ValueError):
                    pass  # the lease expires on its own

    def discard_lock_file(self, key: str) -> None:
        """Server leases expire on their own; nothing to clean client-side."""

    def stats(self) -> Dict[str, Any]:
        try:
            return http_get_json(f"{self.base_url}/stats", timeout=self.timeout)
        except (*TRANSPORT_ERRORS, ValueError) as exc:
            raise RemoteError(f"cache service stats failed: {exc}") from exc
