"""Content-addressed cache of simulation results.

Every entry is keyed by the SHA-256 of the job's canonical description
(see :meth:`~repro.exec.jobs.JobSpec.key`), so a result can only ever
be served back to the exact (system, workload, policy, refs) that
produced it — there is no invalidation logic to get wrong, only misses.

``ResultCache(path)`` stores one JSON file per entry. A size cap evicts
least-recently-used entries (mtime order; hits refresh mtime). Corrupt
or schema-mismatched files count as misses and are deleted on sight.
``ResultCache()`` (no directory) keeps the ``RunResult`` objects in a
dict for the life of the process — the figure memo; it has no cap.

The directory is safe to share between independent writers (the serve
daemon, concurrent CLI invocations, pool workers): every store writes
a process-unique temporary file and publishes it with an atomic
``os.replace``, so readers only ever observe complete entries, and
every directory walk tolerates entries that a racing eviction (or
``clear``) deletes mid-scan. Two processes storing the same key both
win — the entries are byte-identical by construction (content
addressing plus deterministic simulation), so last-replace-wins is a
no-op.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass
from typing import Dict, Optional, Union

from ..errors import ExecutionError
from ..sim.results import RunResult
from ..utils import atomic_write
from .jobs import CACHE_SCHEMA_VERSION, JobSpec
from .serialize import result_from_dict, result_to_dict

DEFAULT_MAX_BYTES = 512 * 1024 * 1024  # 512 MiB of JSON ≈ hundreds of thousands of runs

# Environment variable consulted by :func:`cache_from_env` (the CLI and
# the benchmark harness both honour it).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

@dataclass
class ResultCacheStats:
    """Session counters plus the on-disk footprint of a cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    puts: int = 0
    entries: int = 0
    total_bytes: int = 0
    max_bytes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "puts": self.puts,
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "max_bytes": self.max_bytes,
        }


class ResultCache:
    """A content-addressed store of :class:`RunResult`s: serialised
    files under ``root``, or process memory when ``root`` is None."""

    def __init__(
        self,
        root: Optional[Union[str, pathlib.Path]] = None,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        if max_bytes <= 0:
            raise ExecutionError(f"cache max_bytes must be positive, got {max_bytes}")
        self.root = None if root is None else pathlib.Path(root)
        self._memory: Dict[str, RunResult] = {}  # the store when root is None
        if self.root is not None:
            try:
                self.root.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ExecutionError(
                    f"cannot create cache directory {self.root}: {exc}"
                ) from None
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.puts = 0

    # ------------------------------------------------------------------
    def _path(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.json"

    @staticmethod
    def _is_entry(path: pathlib.Path) -> bool:
        """Only content-addressed files (64-hex stems) are cache entries.

        The run manifest (``manifest.json``, see
        :mod:`repro.obs.profiling`) and any other stray files in
        the cache directory must never be counted, evicted, or cleared.
        """
        stem = path.stem
        return len(stem) == 64 and all(c in "0123456789abcdef" for c in stem)

    def _entries(self):
        return [p for p in self.root.glob("*.json") if p.is_file() and self._is_entry(p)]

    # ------------------------------------------------------------------
    def get(self, job: JobSpec) -> Optional[RunResult]:
        """Return the cached result for ``job``, or ``None`` on a miss."""
        key = job.key()
        if self.root is None:
            result = self._memory.get(key)
            if result is None:
                self.misses += 1
            else:
                self.hits += 1
            return result
        path = self._path(key)
        try:
            payload = json.loads(path.read_text())
            if not isinstance(payload, dict):
                raise ValueError("entry is not a JSON object")
            if payload.get("schema") != CACHE_SCHEMA_VERSION or payload.get("key") != key:
                raise ValueError("schema/key mismatch")
            result = result_from_dict(payload["result"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, KeyError, OSError, ExecutionError):
            # Corrupt entry: purge it so it cannot keep masking a miss.
            path.unlink(missing_ok=True)
            self.misses += 1
            return None
        self.hits += 1
        try:
            os.utime(path)  # refresh recency for LRU eviction
        except OSError:
            pass
        return result

    def put(self, job: JobSpec, result: RunResult) -> None:
        """Store ``result`` under ``job``'s content address."""
        key = job.key()
        if self.root is None:
            self._memory[key] = result
            self.puts += 1
            return
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "job": job.to_dict(),
            "result": result_to_dict(result),
        }
        path = self._path(key)
        try:
            atomic_write(path, json.dumps(payload))
        except OSError as exc:
            raise ExecutionError(f"cannot write cache entry {path}: {exc}") from None
        self.puts += 1
        self._enforce_cap(protect=path)

    @staticmethod
    def _sizes(entries) -> Dict[pathlib.Path, int]:
        """``{path: byte size}`` skipping entries a racer just deleted."""
        sizes: Dict[pathlib.Path, int] = {}
        for path in entries:
            try:
                sizes[path] = path.stat().st_size
            except OSError:
                continue  # evicted/cleared by a concurrent writer
        return sizes

    def _enforce_cap(self, protect: Optional[pathlib.Path] = None) -> None:
        sizes = self._sizes(self._entries())
        total = sum(sizes.values())
        if total <= self.max_bytes:
            return

        def mtime(path: pathlib.Path) -> float:
            try:
                return path.stat().st_mtime
            except OSError:
                return 0.0  # already gone: sorts first, unlink is a no-op

        # Oldest first; never evict the entry just written.
        for path in sorted(sizes, key=mtime):
            if path == protect:
                continue
            total -= sizes[path]
            path.unlink(missing_ok=True)
            self.evictions += 1
            if total <= self.max_bytes:
                break

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        if self.root is None:
            removed = len(self._memory)
            self._memory.clear()
            return removed
        removed = 0
        for path in self._entries():
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    def stats(self) -> ResultCacheStats:
        """Session hit/miss/evict counters plus current disk footprint
        (a memory-only cache reports its entry count and zero bytes)."""
        if self.root is None:
            entries, total_bytes = len(self._memory), 0
        else:
            sizes = self._sizes(self._entries())
            entries, total_bytes = len(sizes), sum(sizes.values())
        return ResultCacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            puts=self.puts,
            entries=entries,
            total_bytes=total_bytes,
            max_bytes=self.max_bytes,
        )


# ----------------------------------------------------------------------
# process-wide active cache
# ----------------------------------------------------------------------
# Every grid runner consults this — ``run_policies`` (and so ``run_one``
# and the CLI commands), ``Sweep.run`` and the figures — so the whole
# program can be cached without threading a cache handle through each
# call site. It is always a directory cache in practice (``--cache-dir``,
# ``$REPRO_CACHE_DIR``); the figures fall back to their own in-memory
# ``ResultCache()`` when none is set.
_active_cache: Optional[ResultCache] = None


def set_active_cache(cache: Optional[ResultCache]) -> Optional[ResultCache]:
    """Install ``cache`` as the process-wide default; returns the old one."""
    global _active_cache
    previous = _active_cache
    _active_cache = cache
    return previous


def get_active_cache() -> Optional[ResultCache]:
    """The process-wide default cache, if any."""
    return _active_cache


def cache_from_env(env_var: str = CACHE_DIR_ENV) -> Optional[ResultCache]:
    """Build a cache from ``$REPRO_CACHE_DIR``; ``None`` when unset/empty."""
    path = os.environ.get(env_var, "").strip()
    if not path:
        return None
    return ResultCache(path)
