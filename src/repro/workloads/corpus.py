"""Content-addressed trace corpus (DESIGN.md §16).

A corpus is a directory of verified trace archives addressed by the
SHA-256 of their bytes, plus a ``corpus.json`` manifest describing
each entry (digest, trace name, length, format version). Because
format-v2 archives are byte-deterministic, re-capturing the same
stream re-derives the same address — adding a duplicate is a no-op,
and two corpora holding the same trace agree on its identity. The
digest also rides inside :class:`~repro.exec.jobs.WorkloadSpec`
(``kind="trace"``), so the exec layer's result cache keys replayed
simulations by trace *content*, not path.

Layout::

    <root>/corpus.json
    <root>/objects/<sha256>.npz

``repro corpus add|list|verify`` is the CLI surface;
:func:`active_corpus` resolves the process-wide corpus for workload
building (``$REPRO_CORPUS_DIR`` — an environment variable so exec-pool
worker processes inherit it).
"""

from __future__ import annotations

import difflib
import hashlib
import json
import os
import pathlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..errors import WorkloadError
from ..utils import atomic_write
from .trace import TraceGenerator
from .tracefile import (
    ReplayTrace,
    TraceInfo,
    load_trace,
    save_trace,
    trace_info,
    verify_trace,
)

MANIFEST_NAME = "corpus.json"
OBJECTS_DIR = "objects"
CORPUS_SCHEMA_VERSION = 1

#: Environment variable naming the default corpus directory. Set (not
#: just read) by the CLI's ``--corpus`` flag so pool workers building
#: trace workloads resolve the same corpus as the parent process.
ENV_CORPUS_DIR = "REPRO_CORPUS_DIR"

#: Shortest digest prefix accepted as a lookup key.
MIN_DIGEST_PREFIX = 8


def file_digest(path: Union[str, pathlib.Path]) -> str:
    """SHA-256 of a file's bytes — the corpus content address."""
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


@dataclass(frozen=True)
class CorpusEntry:
    """One manifest row: a verified trace archive and its identity."""

    digest: str
    name: str
    length: int
    instr_per_ref: float
    version: int
    size_bytes: int
    source: str = ""

    def as_dict(self) -> Dict:
        return {
            "digest": self.digest,
            "name": self.name,
            "length": self.length,
            "instr_per_ref": self.instr_per_ref,
            "version": self.version,
            "size_bytes": self.size_bytes,
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CorpusEntry":
        try:
            return cls(
                digest=data["digest"],
                name=data["name"],
                length=int(data["length"]),
                instr_per_ref=float(data["instr_per_ref"]),
                version=int(data["version"]),
                size_bytes=int(data.get("size_bytes", 0)),
                source=data.get("source", ""),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise WorkloadError(f"malformed corpus entry: {exc}") from None


class TraceCorpus:
    """A content-addressed directory of trace archives + manifest."""

    def __init__(self, root: Union[str, pathlib.Path], create: bool = False) -> None:
        self.root = pathlib.Path(root)
        manifest = self.root / MANIFEST_NAME
        if not manifest.exists() and not create:
            raise WorkloadError(
                f"no trace corpus at {self.root} ({MANIFEST_NAME} missing); "
                "add a trace with `repro corpus add` to create one"
            )
        self._entries: Dict[str, CorpusEntry] = {}
        if manifest.exists():
            self._load_manifest(manifest)

    # ------------------------------------------------------------------
    # manifest I/O
    # ------------------------------------------------------------------
    def _load_manifest(self, manifest: pathlib.Path) -> None:
        try:
            doc = json.loads(manifest.read_text())
        except (OSError, ValueError) as exc:
            raise WorkloadError(f"cannot read {manifest}: {exc}") from None
        if doc.get("schema") != CORPUS_SCHEMA_VERSION:
            raise WorkloadError(
                f"{manifest} has schema {doc.get('schema')!r}; "
                f"expected {CORPUS_SCHEMA_VERSION}"
            )
        for raw in doc.get("traces", []):
            entry = CorpusEntry.from_dict(raw)
            self._entries[entry.digest] = entry

    def _write_manifest(self) -> None:
        doc = {
            "schema": CORPUS_SCHEMA_VERSION,
            "traces": [
                e.as_dict()
                for e in sorted(self._entries.values(), key=lambda e: (e.name, e.digest))
            ],
        }
        self.root.mkdir(parents=True, exist_ok=True)
        atomic_write(self.root / MANIFEST_NAME, json.dumps(doc, indent=2, sort_keys=True) + "\n")

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> Tuple[CorpusEntry, ...]:
        """Every entry, ordered by trace name then digest."""
        return tuple(sorted(self._entries.values(), key=lambda e: (e.name, e.digest)))

    def names(self) -> Tuple[str, ...]:
        return tuple(e.name for e in self.entries())

    def object_path(self, digest: str) -> pathlib.Path:
        return self.root / OBJECTS_DIR / f"{digest}.npz"

    def get(self, ref: str) -> CorpusEntry:
        """Resolve a digest, a unique digest prefix, or a trace name."""
        if ref in self._entries:
            return self._entries[ref]
        by_name = [e for e in self.entries() if e.name == ref]
        if len(by_name) == 1:
            return by_name[0]
        if len(by_name) > 1:
            digests = ", ".join(e.digest[:12] for e in by_name)
            raise WorkloadError(
                f"trace name {ref!r} is ambiguous in {self.root}: "
                f"digests {digests} — use a digest (prefix)"
            )
        if len(ref) >= MIN_DIGEST_PREFIX:
            by_prefix = [d for d in self._entries if d.startswith(ref)]
            if len(by_prefix) == 1:
                return self._entries[by_prefix[0]]
            if len(by_prefix) > 1:
                raise WorkloadError(
                    f"digest prefix {ref!r} is ambiguous in {self.root} "
                    f"({len(by_prefix)} matches)"
                )
        message = (
            f"unknown trace {ref!r} in corpus {self.root}; "
            f"known traces: {', '.join(self.names()) or '(none)'}"
        )
        near = difflib.get_close_matches(ref, self.names(), n=1, cutoff=0.5)
        if near:
            message += f" (did you mean {near[0]!r}?)"
        raise WorkloadError(message)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(
        self,
        trace_path: Union[str, pathlib.Path],
        name: Optional[str] = None,
        source: Optional[str] = None,
    ) -> CorpusEntry:
        """Verify and ingest one trace archive; returns its entry.

        The archive is fully validated (:func:`verify_trace`) *before*
        it is copied, so a corpus never holds a trace that cannot
        replay. Adding content that is already present is a no-op
        returning the existing entry.
        """
        trace_path = pathlib.Path(trace_path)
        info = verify_trace(trace_path)
        digest = file_digest(info.path)
        existing = self._entries.get(digest)
        if existing is not None:
            return existing
        target = self.object_path(digest)
        target.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(target, info.path.read_bytes())
        entry = CorpusEntry(
            digest=digest,
            name=name or info.name,
            length=info.length,
            instr_per_ref=info.instr_per_ref,
            version=info.version,
            size_bytes=target.stat().st_size,
            source=str(source if source is not None else info.path),
        )
        self._entries[digest] = entry
        self._write_manifest()
        return entry

    def capture(
        self,
        generator: TraceGenerator,
        n: int,
        name: Optional[str] = None,
        batch: int = 65536,
    ) -> CorpusEntry:
        """Materialise ``n`` references from ``generator`` straight into
        the corpus (capture + add in one step)."""
        staging = self.root / OBJECTS_DIR / f"capture.tmp.{os.getpid()}.npz"
        staging.parent.mkdir(parents=True, exist_ok=True)
        try:
            save_trace(staging, generator, n, batch=batch)
            return self.add(staging, name=name, source=f"captured:{generator.name}")
        finally:
            staging.unlink(missing_ok=True)

    def remove(self, ref: str) -> CorpusEntry:
        """Drop an entry from the manifest and delete its object."""
        entry = self.get(ref)
        del self._entries[entry.digest]
        self.object_path(entry.digest).unlink(missing_ok=True)
        self._write_manifest()
        return entry

    # ------------------------------------------------------------------
    # verification / loading
    # ------------------------------------------------------------------
    def verify(self) -> List[str]:
        """Re-validate every entry; returns one problem string per fault.

        Checks, per entry: the object file exists, its bytes still hash
        to the manifest digest, the archive passes full
        :func:`verify_trace` validation (chunk lengths + checksum), and
        the archive's own metadata agrees with the manifest row. v1
        entries are reported as a problem — they carry no checksum, so
        content corruption is undetectable; re-add to migrate.
        """
        problems: List[str] = []
        for entry in self.entries():
            label = f"{entry.name} ({entry.digest[:12]})"
            path = self.object_path(entry.digest)
            if not path.exists():
                problems.append(f"{label}: object file {path} is missing")
                continue
            actual = file_digest(path)
            if actual != entry.digest:
                problems.append(
                    f"{label}: content address mismatch — file hashes to "
                    f"{actual[:12]}, manifest says {entry.digest[:12]}"
                )
                continue
            try:
                info = verify_trace(path)
            except WorkloadError as exc:
                problems.append(f"{label}: {exc}")
                continue
            if info.length != entry.length:
                problems.append(
                    f"{label}: archive holds {info.length} references, "
                    f"manifest says {entry.length}"
                )
            if info.version != entry.version:
                problems.append(
                    f"{label}: archive is format v{info.version}, "
                    f"manifest says v{entry.version}"
                )
            if info.version < 2:
                problems.append(
                    f"{label}: format v{info.version} carries no checksum; "
                    "re-add the trace to migrate it to v2"
                )
        return problems

    def load(self, ref: str, loop: bool = True, checksum: bool = False) -> ReplayTrace:
        """Load an entry as a :class:`ReplayTrace`."""
        entry = self.get(ref)
        path = self.object_path(entry.digest)
        if not path.exists():
            raise WorkloadError(
                f"corpus object for {entry.name!r} missing: {path} "
                "(run `repro corpus verify`)"
            )
        replay = load_trace(path, loop=loop, checksum=checksum)
        if len(replay) != entry.length:
            raise WorkloadError(
                f"corpus entry {entry.name!r} declares {entry.length} "
                f"references but archive replays {len(replay)}"
            )
        return replay

    def info(self, ref: str) -> TraceInfo:
        """Archive metadata for one entry (no arrays loaded)."""
        return trace_info(self.object_path(self.get(ref).digest))


# ----------------------------------------------------------------------
# the process-wide active corpus
# ----------------------------------------------------------------------
_ACTIVE: Optional[TraceCorpus] = None


def set_active_corpus(corpus: Optional[TraceCorpus]) -> Optional[TraceCorpus]:
    """Install the process-wide corpus; returns the previous one."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, corpus
    return previous


def active_corpus(required: bool = False) -> Optional[TraceCorpus]:
    """The installed corpus, else one from ``$REPRO_CORPUS_DIR``.

    Exec-pool workers rebuild trace workloads in fresh processes; they
    find the corpus through the environment variable, which the CLI
    sets before the pool starts.
    """
    if _ACTIVE is not None:
        return _ACTIVE
    root = os.environ.get(ENV_CORPUS_DIR)
    if root:
        return TraceCorpus(root)
    if required:
        raise WorkloadError(
            "no trace corpus configured: pass --corpus / --dir or set "
            f"${ENV_CORPUS_DIR}"
        )
    return None
