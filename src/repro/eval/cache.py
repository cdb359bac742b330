"""Content-addressed artifact cache for the evaluation harness.

Compiling a workload (front end, passes, functional trace, DSWP, HLS, three
timing replays) costs seconds; the sweeps behind Figures 6.3-6.6 re-simulate
the full dynamic trace dozens of times on top of that.  This module caches
both kinds of artifact so any table or figure can be regenerated
near-instantly once its inputs have been computed once:

* **compile artifacts** — the :class:`repro.results.CompileSummary` of a
  compile, stored through the structured codec in
  :mod:`repro.eval.artifact_codec` (magic line, checksum, then the summary
  as canonical JSON: inspectable, stable across Python versions, and
  loadable without executing stored code), keyed by
  the SHA-256 of the workload's C source plus the full
  :class:`repro.config.CompilerConfig` contents;
* **derived artifacts** — small structured-JSON documents produced by
  re-simulating an existing compile artifact under different parameters
  (a runtime config for queue latency or depth, or a whole design-point
  config for a partition split or an explore candidate), keyed by the
  parent compile key plus the kind and its parameters, and stored behind
  the same ``crc32`` line as a compile artifact.

No entry executes code on load: both formats are decoded by walking JSON,
so a cache directory never has to be trusted to hold safe bytes.

:class:`ArtifactCache` holds the key scheme, serialisation and single-flight
logic; :class:`LocalFSBackend` moves the bytes in and out of the
``.repro_cache/`` directory layout.  A cache is addressed by its directory
path (its *spec*), which is what the task graph ships to pool workers.

Keys are *content addresses*: they hash every input that can change the
output, plus a schema version bumped whenever the stored layout changes.
There is therefore no invalidation protocol — editing a workload source,
changing any config knob, or bumping the schema simply computes a different
key, and stale entries are never read again (``repro cache clear`` removes
them; ``repro cache prune --max-bytes`` evicts least-recently-used entries).
Writes go through a temp file + :func:`os.replace` so a cache shared by
concurrent processes never exposes a half-written entry, and
:meth:`ArtifactCache.get_or_compute` adds per-key advisory locks so
concurrent missers of the same key do the work once (single-flight).
See ``docs/CACHING.md`` for the full layout and key scheme.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

try:  # POSIX-only; the lock degrades to best-effort elsewhere.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.config import CompilerConfig
from repro.errors import ReproError
from repro.obs import tracing as obs_tracing

# Bump whenever the stored artifact layout changes incompatibly (e.g. a field
# is added to CompileSummary): old entries then miss instead of loading
# into a stale shape.
CACHE_SCHEMA_VERSION = 3

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache directory (relative to the current working directory).
DEFAULT_CACHE_DIR = ".repro_cache"

#: Storage formats an entry can use, in lookup order: ``artifact`` for
#: compile artifacts (the structured codec in
#: :mod:`repro.eval.artifact_codec`), ``json`` for everything else.
SERIALIZERS = ("artifact", "json")

#: Orphaned ``*.tmp`` files older than this are swept by prune(); younger
#: ones may be a concurrent writer's in-flight put and are left alone.
ORPHAN_TMP_MAX_AGE_SECONDS = 3600.0

_EXTENSIONS = {"artifact": ".art", "json": ".json"}

#: Entry suffixes that maintenance (stats, prune, clear) counts and removes:
#: the current formats plus ``.pkl``, which earlier versions wrote and which
#: is never read.
_ENTRY_SUFFIXES = (*_EXTENSIONS.values(), ".pkl")


# -- content addresses ----------------------------------------------------------

_code_digest_cache: Optional[str] = None


def code_digest() -> str:
    """Digest of the ``repro`` package's own source tree (memoised per process).

    Folded into every compile key so editing any compiler/simulator module
    invalidates previously cached artifacts — without this, a code change
    would silently serve stale results until a manual ``repro cache clear``.
    Hashing the ~100 source files costs a few milliseconds, once per process.
    """
    global _code_digest_cache
    if _code_digest_cache is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_digest_cache = digest.hexdigest()
    return _code_digest_cache


def compile_key(source: str, config: CompilerConfig) -> str:
    """Content address of one compile artifact.

    Hashes the workload's C source, every knob of *config*, the ``repro``
    package's own source tree, and the cache schema version.  Any change to
    any of them yields a fresh key.
    """
    digest = hashlib.sha256()
    digest.update(f"schema:{CACHE_SCHEMA_VERSION}\n".encode("utf-8"))
    digest.update(f"code:{code_digest()}\n".encode("utf-8"))
    digest.update(f"config:{config.content_hash()}\n".encode("utf-8"))
    digest.update(source.encode("utf-8"))
    return digest.hexdigest()


def derived_key(parent_key: str, kind: str, params: Dict[str, Any]) -> str:
    """Content address of a derived (re-simulated) artifact.

    *parent_key* is the compile key of the artifact being re-simulated, *kind*
    names the re-simulation (``"runtime"``: a runtime config; ``"explore"``:
    a whole design-point config) and *params* are its JSON-serialisable
    parameters.
    """
    canonical = json.dumps(params, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256()
    digest.update(f"derived:{parent_key}:{kind}\n".encode("utf-8"))
    digest.update(canonical.encode("utf-8"))
    return digest.hexdigest()


def render_key(figure_id: str, dep_keys: "List[str]") -> str:
    """Content address of one rendered figure (its SVG markup).

    A figure is a pure function of its input artefacts and of the rendering
    code, so hashing the figure id plus the dependency content keys *is* a
    content address: every dependency key chains back to the workload source,
    the full configuration and :func:`code_digest` (which covers the
    ``repro.viz`` modules), so editing any of them re-keys the render.
    """
    digest = hashlib.sha256()
    digest.update(f"render:{figure_id}\n".encode("utf-8"))
    for key in dep_keys:
        digest.update(key.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# storage
# ---------------------------------------------------------------------------


class LocalFSBackend:
    """Where cache blobs live: ``<root>/objects/<key[:2]>/<key>{.art,.json}``.

    Moves *bytes*, never objects: :class:`ArtifactCache` owns serialisation
    and single-flight orchestration.  Git-style fan-out so a directory never accumulates thousands of files.
    Safe to share between concurrent processes for *writes* (temp file +
    atomic rename); reads of a key only ever see a complete entry or a miss.
    Per-key ``flock`` files under ``<root>/locks/`` provide the advisory
    single-flight locks.  A read hit refreshes the entry's mtime, which is
    the recency clock :meth:`prune` evicts by.
    """

    def __init__(self, root: Path):
        self.root = Path(root)
        # Entry paths are joined as strings: a warm report looks up about a
        # hundred keys, and a pathlib join costs several times an os.path one.
        self._objects = os.path.join(str(self.root), "objects")

    @property
    def spec(self) -> str:
        """The string that reconstructs this store in another process."""
        return str(self.root)

    # -- paths -----------------------------------------------------------------

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def locks_dir(self) -> Path:
        return self.root / "locks"

    def _file(self, key: str, serializer: str) -> str:
        return os.path.join(self._objects, key[:2], key + _EXTENSIONS[serializer])

    def _path(self, key: str, serializer: str) -> Path:
        return Path(self._file(key, serializer))

    def _entry_paths(self) -> List[Path]:
        """Every stored entry, in a stable order (stale ``.pkl`` files too)."""
        if not self.objects_dir.is_dir():
            return []
        return sorted(p for p in self.objects_dir.rglob("*") if p.suffix in _ENTRY_SUFFIXES)

    # -- blobs -----------------------------------------------------------------

    def get_blob(self, key: str) -> Optional[Tuple[str, bytes]]:
        """Return ``(serializer, payload)`` for *key*, or ``None`` on a miss."""
        for serializer in SERIALIZERS:
            path = self._file(key, serializer)
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except OSError:
                continue
            try:  # LRU bookkeeping only; never worth failing a hit over.
                os.utime(path)
            except OSError:
                pass
            return serializer, data
        return None

    def put_blob(self, key: str, serializer: str, data: bytes) -> Path:
        """Store *data* under *key*, atomically w.r.t. concurrent readers."""
        path = self._path(key, serializer)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        # Drop a twin in the other format so one key never has two competing
        # entries.
        for other in SERIALIZERS:
            if other != serializer:
                try:
                    os.unlink(self._file(key, other))
                except OSError:
                    pass
        return path

    def contains(self, key: str) -> bool:
        return any(os.path.isfile(self._file(key, fmt)) for fmt in SERIALIZERS)

    def delete(self, key: str) -> None:
        """Best-effort removal of a (corrupt) entry."""
        for serializer in SERIALIZERS:
            try:
                os.unlink(self._file(key, serializer))
            except OSError:
                pass

    # -- single-flight ---------------------------------------------------------

    @contextlib.contextmanager
    def lock(self, key: str) -> Iterator[None]:
        """Advisory per-key exclusive lock (``flock``) shared across processes.

        Purely an anti-duplication measure: correctness never depends on it
        (writes are atomic), so on platforms without ``fcntl`` it degrades to
        a no-op and concurrent missers merely duplicate work.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        lock_path = self.lock_path(key)
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        with open(lock_path, "a") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)

    def lock_path(self, key: str) -> Path:
        return self.locks_dir / key[:2] / f"{key}.lock"

    def discard_lock_file(self, key: str) -> None:
        """Drop the lock file of *key* (the scheduler's interrupt cleanup)."""
        try:
            self.lock_path(key).unlink()
        except OSError:
            pass

    # -- maintenance -----------------------------------------------------------

    def clear(self) -> int:
        """Delete every entry; returns the number of entries removed.

        Also sweeps ``*.tmp`` files orphaned by writers killed mid-`put` and
        the per-key lock files (neither is counted as an entry).
        """
        removed = 0
        for entry in self._entry_paths():
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        if self.objects_dir.is_dir():
            for orphan in sorted(self.objects_dir.rglob("*.tmp")):
                try:
                    orphan.unlink()
                except OSError:
                    pass
        if self.locks_dir.is_dir():
            for lock_file in sorted(self.locks_dir.rglob("*.lock")):
                try:
                    lock_file.unlink()
                except OSError:
                    pass
        return removed

    def prune(self, max_bytes: int) -> Dict[str, Any]:
        """Evict least-recently-used entries until the cache fits *max_bytes*.

        Recency is the entry mtime, which :meth:`get_blob` refreshes on every
        hit and :meth:`put_blob` sets on write, so eviction order is true
        LRU.  Stale orphaned temp files are swept first (they count against
        the budget in :meth:`stats`), and each evicted entry takes its lock
        file with it.  Returns a summary dict (entries/bytes removed and
        remaining).
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        removed = 0
        freed = 0
        # Orphaned temp files (writers killed mid-put) count against the
        # budget in stats(), so sweep the stale ones first or the cache could
        # exceed the bound forever; recent ones may be in-flight writes and
        # are left for the next prune.
        if self.objects_dir.is_dir():
            stale_before = time.time() - ORPHAN_TMP_MAX_AGE_SECONDS
            for orphan in sorted(self.objects_dir.rglob("*.tmp")):
                try:
                    stat = orphan.stat()
                    if stat.st_mtime < stale_before:
                        orphan.unlink()
                        freed += stat.st_size
                except OSError:
                    pass
        entries: List[Tuple[float, int, Path]] = []
        for path in self._entry_paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        total = sum(size for _, size, _ in entries)
        for _, size, path in sorted(entries, key=lambda item: (item[0], str(item[2]))):
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            freed += size
            removed += 1
            # Sweep the evicted key's lock file too, or a long-lived LRU-bounded
            # cache would still grow one permanent empty file per key ever seen.
            self.discard_lock_file(path.stem)
        return {
            "root": str(self.root),
            "max_bytes": max_bytes,
            "removed_entries": removed,
            "freed_bytes": freed,
            "remaining_entries": len(entries) - removed,
            "remaining_bytes": total,
        }

    def stats(self) -> Dict[str, Any]:
        """Entry count and total size (orphaned temp files included), for
        ``repro cache stats``."""
        entries = self._entry_paths()
        orphans: List[Path] = []
        if self.objects_dir.is_dir():
            orphans = list(self.objects_dir.rglob("*.tmp"))
        total = 0
        for entry in entries + orphans:
            try:
                total += entry.stat().st_size
            except OSError:
                pass
        return {
            "root": str(self.root),
            "entries": len(entries),
            "orphaned_tmp": len(orphans),
            "total_bytes": total,
            "schema_version": CACHE_SCHEMA_VERSION,
        }


# ---------------------------------------------------------------------------
# the cache proper
# ---------------------------------------------------------------------------


class ArtifactCache:
    """Key scheme + serialisation + single-flight over a :class:`LocalFSBackend`.

    *root* is the cache directory (default: ``$REPRO_CACHE_DIR`` or
    ``./.repro_cache``).
    """

    def __init__(self, root: Optional[Union[Path, str]] = None):
        spec = str(root) if root is not None else os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)
        if "://" in spec:
            # Taken as a path, 'http://h:1' would quietly become a directory
            # named 'http:'.
            raise ReproError(f"the artifact cache takes a directory, not a URL: '{spec}'")
        self.backend = LocalFSBackend(Path(spec))

    @property
    def spec(self) -> str:
        """The string that reconstructs an equivalent cache in any process."""
        return self.backend.spec

    # -- local-backend passthroughs (maintenance, tests) ---------------------------

    @property
    def root(self) -> Path:
        return self.backend.root

    @property
    def objects_dir(self) -> Path:
        return self.backend.objects_dir

    @property
    def locks_dir(self) -> Path:
        return self.backend.locks_dir

    def _path(self, key: str, serializer: str) -> Path:
        return self.backend._path(key, serializer)

    # -- serialisation ---------------------------------------------------------------

    @staticmethod
    def _encode(value: Any, serializer: str) -> bytes:
        if serializer == "artifact":
            from repro.eval.heavy_codec import encode_compilation_result

            return encode_compilation_result(value)
        from repro.eval.artifact_codec import seal

        return seal(json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8"))

    @staticmethod
    def _decode(data: bytes, serializer: str) -> Any:
        if serializer == "artifact":
            from repro.eval.artifact_codec import decode_compilation_result

            return decode_compilation_result(data)
        from repro.eval.artifact_codec import unseal

        return json.loads(unseal(data))

    # -- store ---------------------------------------------------------------------

    def contains(self, key: str) -> bool:
        return self.backend.contains(key)

    def get(self, key: str) -> Optional[Any]:
        """Load the entry for *key*, or ``None`` on a miss.

        A corrupt or unreadable entry is deleted so the recompute overwrites
        it.
        """
        blob = self.backend.get_blob(key)
        if blob is None:
            return None
        serializer, data = blob
        try:
            return self._decode(data, serializer)
        except Exception:
            self.backend.delete(key)
            return None

    def put(self, key: str, value: Any, serializer: str) -> Path:
        """Atomically store *value* under *key*; returns the entry's path."""
        if serializer not in SERIALIZERS:
            raise ValueError(f"unknown serializer '{serializer}' (expected one of {SERIALIZERS})")
        if value is None:
            # None is get()'s miss signal; storing it would make the entry
            # look permanently missing and silently recompute on every read.
            raise ValueError("refusing to cache None (indistinguishable from a miss)")
        with obs_tracing.span("cache.put", kind="cache.put"):
            return self.backend.put_blob(key, serializer, self._encode(value, serializer))

    # -- single-flight -------------------------------------------------------------

    def lock(self, key: str):
        """Advisory per-key exclusive lock (see :meth:`LocalFSBackend.lock`)."""
        return self.backend.lock(key)

    def discard_lock_file(self, key: str) -> None:
        """Remove the persistent lock artefact for *key* (interrupt cleanup)."""
        self.backend.discard_lock_file(key)

    def get_or_compute(self, key: str, compute: Callable[[], Any], serializer: str) -> Any:
        """Return the entry for *key*, computing and storing it on a miss.

        Single-flight across processes: a miss takes the per-key lock before computing, so a
        concurrent process missing on the same key blocks on the lock,
        re-checks, and reuses the freshly stored entry instead of recomputing
        it.
        """
        with obs_tracing.span("cache.get_or_compute", kind="cache", key=key[:16]) as span:
            hit = self.get(key)
            if hit is not None:
                span.set("cache_hit", True)
                return hit
            with self.lock(key):
                hit = self.get(key)  # someone else may have computed it meanwhile
                if hit is not None:
                    span.set("cache_hit", True)
                    return hit
                span.set("cache_hit", False)
                value = compute()
                self.put(key, value, serializer=serializer)
                return value

    # -- maintenance ---------------------------------------------------------------

    def clear(self) -> int:
        """Delete every entry."""
        return self.backend.clear()

    def prune(self, max_bytes: int) -> Dict[str, Any]:
        """LRU-evict entries until the cache fits *max_bytes*."""
        return self.backend.prune(max_bytes)

    def stats(self) -> Dict[str, Any]:
        """Entry count and total size, for ``repro cache stats``."""
        return self.backend.stats()
