"""Persistent on-disk cache for experiment matrix cells.

Every cell of a paper-figure matrix is a deterministic function of its
:class:`~repro.experiments.runner.CellSpec` (the run is fully seeded), so
its :class:`~repro.framework.system.RunResult` can be cached on disk and
replayed instead of re-simulated.  Re-rendering a figure after an
unrelated edit — or after no edit at all — then skips every unchanged
cell.

Keys
----
A cell's key is a SHA-256 content hash over

* a canonical encoding of the ``CellSpec`` (scheme, model, seed, SLO,
  config dataclass, catalog restriction, and the trace factory resolved
  to its module/qualname plus bytecode digest — ``functools.partial``
  factories are recursed into, bound arguments included), and
* a **code-version salt**: the digest of every ``*.py`` source file in
  the installed ``repro`` package.  Any source change anywhere in the
  package invalidates the whole cache, which is deliberately
  conservative — correctness over reuse.

Specs whose trace factory cannot be canonically encoded (e.g. a closure
over unhashable state) are simply never cached; they run as before.

Storage
-------
One pickle per cell under ``<cache_dir>/<k[:2]>/<k>.pkl`` with a schema
header, written atomically (temp file + ``os.replace``).  A corrupted or
truncated entry is treated as a miss, deleted, and recomputed.

Telemetry
---------
Hit/miss/store/corruption counts feed both per-instance attributes
(``n_hits`` …) and the module-level :data:`CACHE_METRICS`
:class:`~repro.telemetry.metrics.MetricsRegistry`, so the counters
surface through the same instrument types as every other repro metric
(e.g. in Prometheus snapshots taken by callers that export it).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import logging
import os
import pickle
import tempfile
import types
from typing import Any, Optional

from repro.telemetry._warn_once import WarnOnce
from repro.telemetry.metrics import MetricsRegistry

__all__ = [
    "CACHE_METRICS",
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "cell_key",
    "get_active_cache",
    "set_active_cache",
    "source_salt",
]

logger = logging.getLogger(__name__)

#: Default location used by the CLI's ``--cache-dir`` flag.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Bump when the on-disk entry layout changes.  2: a result's
#: ``MetricsCollector`` pickles as compacted ledger columns.
_SCHEMA = 2

#: Module-level registry: the cache's counters live next to every other
#: repro metric type (Counter semantics, Prometheus-exportable).
CACHE_METRICS = MetricsRegistry()


class _Uncacheable(Exception):
    """Raised while canonicalising a spec that cannot be keyed safely."""


# ----------------------------------------------------------------------
# Code-version salt
# ----------------------------------------------------------------------
_SOURCE_SALT: Optional[str] = None


def source_salt() -> str:
    """Digest of every ``repro/**/*.py`` source file (computed once).

    Editing any source in the package yields a different salt, so stale
    results can never be replayed across code versions.
    """
    global _SOURCE_SALT
    if _SOURCE_SALT is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        digest = hashlib.sha256()
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for fname in sorted(filenames):
                if not fname.endswith(".py"):
                    continue
                path = os.path.join(dirpath, fname)
                digest.update(os.path.relpath(path, root).encode())
                digest.update(b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
                digest.update(b"\0")
        _SOURCE_SALT = digest.hexdigest()[:20]
    return _SOURCE_SALT


# ----------------------------------------------------------------------
# Canonical spec encoding
# ----------------------------------------------------------------------
def _canon(obj: Any) -> Any:
    """A deterministic, repr-stable structure for hashing a CellSpec."""
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return obj
    if isinstance(obj, float):
        # hex() is exact; repr could round-trip but hex is unambiguous.
        return ("f", obj.hex())
    if isinstance(obj, (tuple, list)):
        return ("seq", tuple(_canon(x) for x in obj))
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted(repr(_canon(x)) for x in obj)))
    if isinstance(obj, dict):
        return (
            "map",
            tuple(sorted((str(k), _canon(v)) for k, v in obj.items())),
        )
    if isinstance(obj, functools.partial):
        return (
            "partial",
            _canon(obj.func),
            _canon(obj.args),
            _canon(obj.keywords),
        )
    if isinstance(obj, types.FunctionType):
        # Module + qualname identify the factory; the bytecode digest
        # guards factories defined outside the repro package (which the
        # source salt does not cover).
        code = obj.__code__
        payload = code.co_code + repr(code.co_consts).encode()
        if obj.__defaults__:
            payload += repr(tuple(_canon(d) for d in obj.__defaults__)).encode()
        if obj.__closure__ is not None:
            # Closure cells can change between runs without changing the
            # bytecode; refuse rather than risk a stale replay.
            raise _Uncacheable(f"closure factory {obj.__qualname__!r}")
        return (
            "fn",
            obj.__module__,
            obj.__qualname__,
            hashlib.sha256(payload).hexdigest()[:16],
        )
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = tuple(
            (f.name, _canon(getattr(obj, f.name)))
            for f in dataclasses.fields(obj)
        )
        return ("dc", type(obj).__qualname__, fields)
    raise _Uncacheable(f"cannot canonicalise {type(obj).__qualname__}")


def cell_key(spec: Any, salt: Optional[str] = None) -> Optional[str]:
    """Deterministic content hash of a cell spec, or ``None`` when the
    spec cannot be keyed safely (and must simply be recomputed)."""
    try:
        canonical = _canon(spec)
    except _Uncacheable as exc:
        logger.debug("uncacheable cell spec: %s", exc)
        return None
    body = repr((salt if salt is not None else source_salt(), canonical))
    return hashlib.sha256(body.encode()).hexdigest()


# ----------------------------------------------------------------------
# The cache proper
# ----------------------------------------------------------------------
class ResultCache:
    """Content-addressed pickle store for :class:`RunResult` cells.

    Parameters
    ----------
    cache_dir:
        Root directory (created lazily on the first store).
    salt:
        Override the code-version salt (tests use this to simulate a code
        change invalidating existing entries).
    metrics:
        Instrument registry for the hit/miss counters; defaults to the
        module-level :data:`CACHE_METRICS`.
    """

    def __init__(
        self,
        cache_dir: str = DEFAULT_CACHE_DIR,
        *,
        salt: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.cache_dir = str(cache_dir)
        self._salt = salt
        reg = metrics if metrics is not None else CACHE_METRICS
        self._hits = reg.counter("experiment_cache.hits")
        self._misses = reg.counter("experiment_cache.misses")
        self._stores = reg.counter("experiment_cache.stores")
        self._corrupt = reg.counter("experiment_cache.corrupt_entries")
        self._io_errors = reg.counter("experiment_cache.io_errors")
        self.n_hits = 0
        self.n_misses = 0
        self.n_stores = 0
        self.n_corrupt = 0
        self.n_io_errors = 0
        self._warn_io = WarnOnce(
            logger,
            "result cache cannot %s %s (%s); continuing without "
            "caching (further cache I/O errors are silenced)",
        )

    # -- keys ----------------------------------------------------------
    @property
    def salt(self) -> str:
        if self._salt is None:
            self._salt = source_salt()
        return self._salt

    def key(self, spec: Any) -> Optional[str]:
        return cell_key(spec, salt=self.salt)

    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, key[:2], key + ".pkl")

    def _note_io_error(self, action: str, path: str, exc: OSError) -> None:
        """A full disk or bad permissions must degrade caching, never
        abort the experiment.  Warn once, then stay quiet."""
        self.n_io_errors += 1
        self._io_errors.inc()
        self._warn_io.note(action, path, exc)

    # -- lookups -------------------------------------------------------
    def get(self, spec: Any) -> Optional[Any]:
        """The cached result for ``spec``, or ``None`` on a miss.

        Unreadable/corrupted entries are deleted and reported as misses
        (the caller recomputes and re-stores them).
        """
        key = self.key(spec)
        if key is None:
            self.n_misses += 1
            self._misses.inc()
            return None
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                entry = pickle.load(fh)
            if not isinstance(entry, dict) or entry.get("schema") != _SCHEMA:
                raise ValueError(f"unexpected cache schema in {path}")
            result = entry["result"]
        except FileNotFoundError:
            self.n_misses += 1
            self._misses.inc()
            return None
        except OSError as exc:
            # Permission/IO trouble reading the entry: a miss, not a
            # corruption — the entry may be fine, we just can't see it.
            self._note_io_error("read", path, exc)
            self.n_misses += 1
            self._misses.inc()
            return None
        except Exception as exc:  # corrupted / truncated / wrong schema
            logger.warning("dropping corrupted cache entry %s: %s", path, exc)
            self.n_corrupt += 1
            self._corrupt.inc()
            try:
                os.remove(path)
            except OSError:
                pass
            self.n_misses += 1
            self._misses.inc()
            return None
        self.n_hits += 1
        self._hits.inc()
        return result

    def put(self, spec: Any, result: Any) -> bool:
        """Store ``result`` under ``spec``'s key; returns ``False`` for
        uncacheable specs and for entries that could not be written
        (disk full, bad permissions — warned once, never fatal).
        Writes are atomic (temp file + rename), so concurrent writers
        racing on the same key both land a complete entry."""
        key = self.key(spec)
        if key is None:
            return False
        path = self._path(key)
        tmp: Optional[str] = None
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(path), suffix=".tmp"
            )
            with os.fdopen(fd, "wb") as fh:
                pickle.dump({"schema": _SCHEMA, "result": result}, fh)
            os.replace(tmp, path)
        except OSError as exc:
            if tmp is not None:
                try:
                    os.remove(tmp)
                except OSError:
                    pass
            self._note_io_error("write", path, exc)
            return False
        except Exception:
            if tmp is not None:
                try:
                    os.remove(tmp)
                except OSError:
                    pass
            raise
        self.n_stores += 1
        self._stores.inc()
        return True

    # -- reporting -----------------------------------------------------
    @property
    def stats(self) -> dict[str, int]:
        return {
            "hits": self.n_hits,
            "misses": self.n_misses,
            "stores": self.n_stores,
            "corrupt_entries": self.n_corrupt,
            "io_errors": self.n_io_errors,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultCache(dir={self.cache_dir!r}, hits={self.n_hits}, "
            f"misses={self.n_misses})"
        )


# ----------------------------------------------------------------------
# Process-wide active cache (configured by the CLI)
# ----------------------------------------------------------------------
_active_cache: Optional[ResultCache] = None


def set_active_cache(cache: Optional[ResultCache]) -> Optional[ResultCache]:
    """Install (or clear, with ``None``) the process-wide default cache
    consulted by :func:`repro.experiments.runner.run_matrix`; returns the
    previous one so callers can restore it."""
    global _active_cache
    previous, _active_cache = _active_cache, cache
    return previous


def get_active_cache() -> Optional[ResultCache]:
    """The process-wide default cache.

    Explicitly installed caches win; otherwise the ``REPRO_CACHE_DIR``
    environment variable (when set and non-empty) supplies one lazily.
    """
    if _active_cache is not None:
        return _active_cache
    env_dir = os.environ.get("REPRO_CACHE_DIR")
    if env_dir:
        return ResultCache(env_dir)
    return None
