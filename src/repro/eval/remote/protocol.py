"""Wire protocol for distributed task execution: specs, args, HTTP helpers.

A :class:`~repro.eval.taskgraph.Task` cannot cross a machine boundary as a
Python object (its ``fn`` is a function reference and its args hold config
dataclasses), so the coordinator ships a small JSON *task spec* instead:

```
{"task_id": "sweep:latency:mips:8", "kind": "runtime",
 "fn": "compute_runtime_point", "args": [...], "key": "ab12…",
 "serializer": "json", "attempt": 1}
```

* ``fn`` names an entry in :data:`PAYLOAD_FUNCTIONS` — a closed allowlist of
  the pure, module-level payload functions the local pool already uses.  A
  worker never evaluates arbitrary callables from the wire; an unknown name
  is a :class:`~repro.errors.RemoteProtocolError`.
* ``args`` are JSON with three tagged extensions: ``CompilerConfig`` and
  ``RuntimeConfig`` travel as their ``to_dict()`` forms (round-tripping
  preserves ``content_hash()``, so workers compute identical cache keys),
  and the parent's cache spec is replaced by a placeholder each worker
  substitutes with its *own* ``--cache-dir`` spec — the parent's local path
  is meaningless on another host.

The tiny ``http_post_json``/``http_get_json`` helpers keep the coordinator
client, cache client and worker daemon on one code path for JSON-over-HTTP.
"""

from __future__ import annotations

import hmac
import http.client
import json
import os
import ssl
import urllib.error
import urllib.request
from typing import Any, Callable, Dict, Optional, Tuple

from repro.config import CompilerConfig, RuntimeConfig
from repro.errors import RemoteError, RemoteProtocolError
from repro.eval import experiments, taskgraph
from repro.explore import evaluate as explore_evaluate
from repro.ingest import evaluate as ingest_evaluate
from repro.obs import tracing as obs_tracing

#: The closed set of payload functions a worker will execute, by wire name.
#: :func:`register_payload_function` may extend it (tests, future sweeps).
PAYLOAD_FUNCTIONS: Dict[str, Callable[..., Any]] = {
    "compute_compile": taskgraph.compute_compile,
    "compute_runtime_point": taskgraph.compute_runtime_point,
    "compute_split_point": taskgraph.compute_split_point,
    "compute_explore_point": explore_evaluate.compute_explore_point,
    "compute_ingest_report": ingest_evaluate.compute_ingest_report,
    "compute_figure_render": experiments.compute_figure_render,
}

_FUNCTION_NAMES: Dict[Callable[..., Any], str] = {fn: name for name, fn in PAYLOAD_FUNCTIONS.items()}

#: Marker object replacing the parent's cache spec inside encoded args.
_CACHE_SPEC_TAG = "cache_spec"

#: "The HTTP conversation failed at the transport level" — refused or reset
#: connections (``URLError`` is an ``OSError``), and responses truncated by a
#: peer exiting mid-reply (``IncompleteRead`` etc. are ``HTTPException``,
#: *not* ``OSError``).  Retry/degrade paths must catch both.
TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


def register_payload_function(name: str, fn: Callable[..., Any]) -> None:
    """Add a payload function to the wire allowlist (both directions)."""
    PAYLOAD_FUNCTIONS[name] = fn
    _FUNCTION_NAMES[fn] = name


def payload_name(fn: Callable[..., Any]) -> Optional[str]:
    """The wire name of *fn*, or ``None`` when it is not distributable."""
    return _FUNCTION_NAMES.get(fn)


# -- argument encoding ----------------------------------------------------------


def encode_arg(value: Any, cache_spec: Optional[str]) -> Any:
    """One task argument → its JSON wire form (sequences recurse)."""
    if isinstance(value, CompilerConfig):
        return {"__repro__": "compiler_config", "data": value.to_dict()}
    if isinstance(value, RuntimeConfig):
        return {"__repro__": "runtime_config", "data": value.to_dict()}
    if isinstance(value, str) and cache_spec is not None and value == cache_spec:
        return {"__repro__": _CACHE_SPEC_TAG}
    if isinstance(value, (list, tuple)):
        # Render tasks carry dependency id/key lists; tuples become JSON
        # arrays (payloads re-tuple where identity matters).
        return [encode_arg(item, cache_spec) for item in value]
    if isinstance(value, dict):
        # Explore tasks carry candidate-parameter and space dicts.  Plain
        # string-keyed dicts pass through as JSON objects; the tag key is
        # reserved for the extensions above.
        if "__repro__" in value:
            raise RemoteProtocolError("task argument dicts must not use the '__repro__' key")
        if not all(isinstance(k, str) for k in value):
            raise RemoteProtocolError("task argument dicts must have string keys")
        return {k: encode_arg(v, cache_spec) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise RemoteProtocolError(
        f"cannot encode task argument of type {type(value).__name__} for the wire"
    )


def decode_arg(value: Any, cache_spec: Optional[str]) -> Any:
    """Inverse of :func:`encode_arg`; *cache_spec* is the decoder's own cache."""
    if isinstance(value, dict) and "__repro__" in value:
        tag = value["__repro__"]
        if tag == "compiler_config":
            return CompilerConfig.from_dict(value["data"])
        if tag == "runtime_config":
            return RuntimeConfig.from_dict(value["data"])
        if tag == _CACHE_SPEC_TAG:
            return cache_spec
        raise RemoteProtocolError(f"unknown wire tag '{tag}'")
    if isinstance(value, dict):
        return {k: decode_arg(v, cache_spec) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_arg(item, cache_spec) for item in value]
    return value


# -- task specs -----------------------------------------------------------------


def encode_task(task: "taskgraph.Task", cache_spec: Optional[str]) -> Dict[str, Any]:
    """A :class:`~repro.eval.taskgraph.Task` → its JSON wire spec.

    Raises :class:`RemoteProtocolError` for tasks that cannot be
    distributed: unregistered payload functions, or key-less tasks (a remote
    worker can only hand results back through the content-addressed cache).
    """
    name = payload_name(task.fn)
    if name is None:
        raise RemoteProtocolError(
            f"task '{task.task_id}' uses an unregistered payload function "
            f"{getattr(task.fn, '__name__', task.fn)!r} and cannot be distributed"
        )
    if task.key is None:
        raise RemoteProtocolError(
            f"task '{task.task_id}' has no content key; remote workers publish "
            "results through the cache and need one"
        )
    spec = {
        "task_id": task.task_id,
        "kind": task.kind,
        "fn": name,
        "args": [encode_arg(a, cache_spec) for a in task.args],
        "key": task.key,
        "serializer": task.serializer,
    }
    if task.workload is not None:
        # Advisory only: the coordinator's cost-ordered lease queue weighs
        # specs by (kind, workload); execution never depends on it.
        spec["workload"] = task.workload
    trace_context = obs_tracing.wire_context()
    if trace_context is not None:
        # Workers long-poll, so trace context cannot ride request headers on
        # the coordinator→worker hop; it rides the spec instead and the
        # worker re-parents its task span under the submitting scheduler.
        spec["trace"] = trace_context
    return spec


def decode_task(
    spec: Dict[str, Any], cache_spec: Optional[str]
) -> Tuple[str, Callable[..., Any], Tuple[Any, ...], str, str]:
    """A wire spec → ``(task_id, fn, args, key, serializer)`` for execution."""
    try:
        name = spec["fn"]
        task_id = spec["task_id"]
        key = spec["key"]
        serializer = spec["serializer"]
        raw_args = spec["args"]
    except (KeyError, TypeError) as exc:
        raise RemoteProtocolError(f"malformed task spec: missing {exc}") from None
    fn = PAYLOAD_FUNCTIONS.get(name)
    if fn is None:
        raise RemoteProtocolError(f"task '{task_id}' names unknown payload function '{name}'")
    args = tuple(decode_arg(a, cache_spec) for a in raw_args)
    return task_id, fn, args, key, serializer


# -- shared-secret service auth --------------------------------------------------

#: Environment variable supplying the shared service secret.
SERVICE_TOKEN_ENV = "REPRO_SERVICE_TOKEN"

#: Header carrying the secret on every cache-service and coordinator request.
TOKEN_HEADER = "X-Repro-Service-Token"

_process_service_token: Optional[str] = None


def set_process_service_token(token: Optional[str]) -> Optional[str]:
    """Set the process-default service token (CLI, worker daemons).

    ``None`` restores the ``$REPRO_SERVICE_TOKEN`` fallback.  Returns the
    previous override so a scoped caller can restore it.
    """
    global _process_service_token
    previous = _process_service_token
    _process_service_token = token or None
    return previous


def service_token() -> Optional[str]:
    """The effective shared secret for this process (``None`` = auth off)."""
    if _process_service_token:
        return _process_service_token
    return os.environ.get(SERVICE_TOKEN_ENV) or None


def auth_headers() -> Dict[str, str]:
    """The headers a client must attach (empty when no token is configured)."""
    token = service_token()
    return {TOKEN_HEADER: token} if token else {}


def token_matches(handler: Any, token: Optional[str]) -> bool:
    """Whether one request presents the shared secret (constant-time compare).

    With no *token* configured every request passes (trusted-network mode).
    """
    if not token:
        return True
    presented = handler.headers.get(TOKEN_HEADER) or ""
    return hmac.compare_digest(presented.encode("utf-8"), token.encode("utf-8"))


def check_auth(handler: Any, token: Optional[str]) -> bool:
    """Server-side auth gate for one request; sends the 401 itself on failure.

    A missing or wrong secret gets a 401 JSON body and the handler must
    return without processing the request.  ``GET /healthz`` is exempted by
    the callers (a liveness probe carries no secrets), and HEAD handlers use
    :func:`token_matches` directly (a HEAD response must not carry a body).
    """
    if token_matches(handler, token):
        return True
    send_json(handler, 401, {"error": f"missing or invalid {TOKEN_HEADER} header"})
    return False


def raise_for_auth(exc: "urllib.error.HTTPError", url: str) -> None:
    """Turn a 401 into a loud, actionable error instead of a transport retry.

    ``HTTPError`` is an ``OSError``, so without this the retry loops in the
    worker and cache client would treat an auth mismatch as a transient
    outage and spin; a :class:`RemoteError` escapes those loops.
    """
    if exc.code == 401:
        raise RemoteError(
            f"service at {url} rejected the request (401): set a matching "
            f"{SERVICE_TOKEN_ENV} (or RuntimeConfig.service_token)"
        ) from exc


# -- TLS ------------------------------------------------------------------------

#: Server certificate + key (PEM).  Setting the cert switches every repro
#: service in the process — the cache service and the coordinator — to
#: HTTPS; the key variable may be omitted when the cert file bundles both.
TLS_CERT_ENV = "REPRO_SERVICE_TLS_CERT"
TLS_KEY_ENV = "REPRO_SERVICE_TLS_KEY"

#: Client-side trust anchor for ``https://`` service URLs.  Point it at the
#: (self-signed) service certificate or a private CA bundle; unset, clients
#: verify against the system trust store.
TLS_CA_ENV = "REPRO_SERVICE_TLS_CA"

_client_ssl_context: Optional[ssl.SSLContext] = None
_client_ssl_ca: Any = object()  # sentinel: not yet built


def server_ssl_context() -> Optional[ssl.SSLContext]:
    """The server-side TLS context from the env, or ``None`` (plain HTTP).

    Misconfiguration (missing/unreadable cert or key) raises ``OSError`` or
    ``ssl.SSLError`` loudly at service startup — silently serving the
    shared token over plaintext would defeat the point.
    """
    cert = (os.environ.get(TLS_CERT_ENV) or "").strip()
    if not cert:
        return None
    key = (os.environ.get(TLS_KEY_ENV) or "").strip() or None
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    return context


def wrap_server_socket(server: Any) -> bool:
    """Wrap an ``HTTPServer``'s listening socket in TLS when configured.

    Returns ``True`` when the server now speaks HTTPS (so callers can
    advertise an ``https://`` URL).  Called once, before the serve loop.
    """
    context = server_ssl_context()
    if context is None:
        return False
    server.socket = context.wrap_socket(server.socket, server_side=True)
    return True


def client_ssl_context() -> ssl.SSLContext:
    """The (cached) client-side TLS context for ``https://`` service URLs."""
    global _client_ssl_context, _client_ssl_ca
    ca = (os.environ.get(TLS_CA_ENV) or "").strip() or None
    if _client_ssl_context is None or ca != _client_ssl_ca:
        context = ssl.create_default_context(cafile=ca)
        # Service certs are addressed by IP/hostname ad hoc on lab networks;
        # with a private CA configured, possession of the CA-signed cert is
        # the identity — hostname matching would reject the common
        # cert-per-cluster (rather than cert-per-host) deployment.
        if ca is not None:
            context.check_hostname = False
        _client_ssl_context = context
        _client_ssl_ca = ca
    return _client_ssl_context


def urlopen(request: Any, timeout: float = 30.0) -> Any:
    """``urllib.request.urlopen`` with the repro client TLS context.

    Every service client (coordinator client, cache client, worker daemon)
    funnels through here so ``https://`` URLs verify against
    ``$REPRO_SERVICE_TLS_CA`` uniformly; plain ``http://`` requests pass an
    explicit ``context=None`` and behave exactly as before.
    """
    url = request.full_url if hasattr(request, "full_url") else str(request)
    context = client_ssl_context() if url.startswith("https://") else None
    return urllib.request.urlopen(request, timeout=timeout, context=context)


# -- JSON over HTTP -------------------------------------------------------------


def send_json(handler: Any, status: int, payload: Dict[str, Any]) -> None:
    """Write *payload* as a JSON response on a ``BaseHTTPRequestHandler``.

    Shared by the coordinator and cache-service handlers so response
    conventions (content type, explicit length for keep-alive) stay in one
    place.
    """
    body = json.dumps(payload).encode("utf-8")
    handler.send_response(status)
    handler.send_header("Content-Type", "application/json")
    handler.send_header("Content-Length", str(len(body)))
    handler.end_headers()
    handler.wfile.write(body)


def read_json(handler: Any) -> Dict[str, Any]:
    """Read a request body as JSON from a ``BaseHTTPRequestHandler``
    (empty dict for missing or malformed bodies)."""
    length = int(handler.headers.get("Content-Length") or 0)
    if not length:
        return {}
    try:
        return json.loads(handler.rfile.read(length).decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return {}


def http_post_json(url: str, payload: Dict[str, Any], timeout: float = 30.0) -> Dict[str, Any]:
    """POST *payload* as JSON (with the auth header when a token is set) and
    return the decoded JSON response body; a 401 raises :class:`RemoteError`."""
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url,
        data=body,
        method="POST",
        headers={
            "Content-Type": "application/json",
            **auth_headers(),
            **obs_tracing.trace_headers(),
        },
    )
    try:
        with urlopen(request, timeout=timeout) as response:
            data = response.read()
    except urllib.error.HTTPError as exc:
        raise_for_auth(exc, url)
        raise
    return json.loads(data.decode("utf-8")) if data else {}


def http_get_json(url: str, timeout: float = 30.0) -> Dict[str, Any]:
    """GET *url* (with the auth header when a token is set) and return the
    decoded JSON response body; a 401 raises :class:`RemoteError`."""
    request = urllib.request.Request(
        url, headers={**auth_headers(), **obs_tracing.trace_headers()}
    )
    try:
        with urlopen(request, timeout=timeout) as response:
            data = response.read()
    except urllib.error.HTTPError as exc:
        raise_for_auth(exc, url)
        raise
    return json.loads(data.decode("utf-8")) if data else {}
