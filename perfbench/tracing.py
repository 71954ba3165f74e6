"""Layer attribution for one traced benchmark pass.

Two modes, each used for its own pass so neither distorts the other:

- ``spans``: timing wrappers around each layer's public entry points
  (``Simulator``, ``CacheHierarchy.access``, ``kernel.batch.run_kernel``,
  ``LLCEnergyModel.compute``, ``WorkloadSpec.build``, generator
  ``batch``, ``ResultCache.get/put``, result (de)serialisation and
  ``execute_jobs``). Each wrapper adds one call and a count to the
  process's :class:`Recorder`.
- ``profile``: stdlib ``cProfile`` over the pass's work, later folded
  into self time and calls per reference for each ``repro`` package.

Pool workers do their layers' work out of sight of the parent, so the
pool's worker entry point is replaced by :func:`worker_entry`, which
resets the (fork-inherited) state on its first job in a process and
leaves a per-process record in ``$PERFBENCH_RECORDS`` after every job.
The parent merges those records after the batch.

Nothing here changes what the program computes: every wrapper returns
exactly what the wrapped function returned.
"""

from __future__ import annotations

import cProfile
import functools
import hashlib
import json
import os
import pathlib
import pstats
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional

RECORDS_ENV = "PERFBENCH_RECORDS"
MODE_ENV = "PERFBENCH_TRACE"

SPANS = "spans"
PROFILE = "profile"


class Recorder:
    """Per-process counts, seconds and run identities."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.secs: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.run_digests: List[str] = []
        self.backends: Dict[str, int] = defaultdict(int)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "calls": dict(self.calls),
            "secs": dict(self.secs),
            "counts": dict(self.counts),
            "run_digests": list(self.run_digests),
            "backends": dict(self.backends),
        }

    def merge(self, data: Dict[str, Any]) -> None:
        for key, value in data["calls"].items():
            self.calls[key] += value
        for key, value in data["secs"].items():
            self.secs[key] += value
        for key, value in data["counts"].items():
            self.counts[key] += value
        self.run_digests.extend(data["run_digests"])
        for key, value in data["backends"].items():
            self.backends[key] += value


_REC = Recorder()
_STATE: Dict[str, Any] = {"mode": None, "pid": None, "profile": None}
_ORIGINALS: Dict[str, Callable] = {}


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _timed(key: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
    """``fn`` plus a call count and seconds under ``key``; ``after``
    sees ``(args, result)`` once the clock has stopped."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            _REC.calls[key] += 1
            _REC.secs[key] += time.perf_counter() - start
        if after is not None:
            after(args, out)
        return out

    return wrapper


def replace_function(original: Callable, replacement: Callable) -> None:
    """Rebind every ``repro`` module attribute that *is* ``original``
    (modules import these by name, so patching one module misses the rest)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def run_digest(result) -> str:
    """Identity of a run's simulated events: the serialised RunResult
    without ``energy`` and ``system``, which pricing alone sets."""
    data = _ORIGINALS["result_to_dict"](result)
    data.pop("energy", None)
    data.pop("system", None)
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _after_sim_init(args, _out) -> None:
    _REC.backends[args[0].tag_backend] += 1


def _after_sim_run(args, result) -> None:
    _REC.counts["sim.refs"] += result.refs_per_core * len(result.core_instructions)
    _REC.run_digests.append(run_digest(result))


def _after_kernel(args, _out) -> None:
    sim, refs_per_core = args[0], args[1]
    _REC.counts["kernel.refs"] += refs_per_core * sim.workload.ncores


def _after_batch(_args, outcome) -> None:
    _REC.counts["exec.jobs"] += len(outcome)
    _REC.counts["exec.cache_hits"] += outcome.cache_hits
    _REC.counts["exec.cache_misses"] += outcome.cache_misses
    _REC.counts["exec.retries"] += sum(p.retries for p in outcome.profiles)
    _REC.counts["exec.busy_s"] += sum(p.wall_s for p in outcome.profiles)
    _REC.counts["exec.capacity_s"] += outcome.wall_s * outcome.max_workers


def _install_spans() -> None:
    from repro.energy.model import LLCEnergyModel
    from repro.exec import pool, serialize
    from repro.exec.cache import ResultCache
    from repro.exec.jobs import WorkloadSpec
    from repro.hierarchy.hierarchy import CacheHierarchy
    from repro.kernel import batch
    from repro.sim.simulator import Simulator
    from repro.workloads.synthetic import SyntheticTrace

    Simulator.__init__ = _timed("sim.init", Simulator.__init__, _after_sim_init)
    Simulator.run = _timed("sim.run", Simulator.run, _after_sim_run)
    CacheHierarchy.access = _timed("hierarchy.access", CacheHierarchy.access)
    LLCEnergyModel.compute = _timed("energy.compute", LLCEnergyModel.compute)
    build = _timed("workloads.build", WorkloadSpec.build)
    WorkloadSpec.build = build
    WorkloadSpec.__call__ = build
    # SharedStateTrace.batch delegates here, so this sees every batch once.
    SyntheticTrace.batch = _timed("workloads.batch", SyntheticTrace.batch)
    ResultCache.get = _timed("exec.cache_get", ResultCache.get)
    ResultCache.put = _timed("exec.cache_put", ResultCache.put)
    for key, fn, after in (
        ("kernel.run", batch.run_kernel, _after_kernel),
        ("exec.serialize", serialize.result_to_dict, None),
        ("exec.deserialize", serialize.result_from_dict, None),
        ("exec.batch", pool.execute_jobs, _after_batch),
    ):
        replace_function(fn, _timed(key, fn, after))


def install(mode: str, records_dir: str) -> None:
    """Instrument this process for ``mode`` and route pool jobs through
    :func:`worker_entry`. Idempotent per process."""
    if _STATE["mode"] is not None:
        return
    from repro.exec import pool, serialize

    _ORIGINALS["result_to_dict"] = serialize.result_to_dict
    _ORIGINALS["run_job"] = pool._run_job_dict
    os.environ[MODE_ENV] = mode
    os.environ[RECORDS_ENV] = records_dir
    if mode == SPANS:
        _install_spans()
    pool._run_job_dict = worker_entry
    _STATE["mode"] = mode
    _STATE["pid"] = os.getpid()


def worker_entry(job):
    """Pool-worker stand-in for ``repro.exec.pool._run_job_dict``."""
    if _STATE["pid"] != os.getpid():
        # First job in a fresh worker: forget counts inherited from the
        # parent by fork (or install from scratch under spawn).
        global _REC
        _REC = Recorder()
        if _STATE["mode"] is None:
            install(os.environ[MODE_ENV], os.environ[RECORDS_ENV])
        _STATE["pid"] = os.getpid()
        _STATE["profile"] = None
    records = pathlib.Path(os.environ[RECORDS_ENV])
    if _STATE["mode"] == PROFILE:
        if _STATE["profile"] is None:
            _STATE["profile"] = cProfile.Profile()
        profiler = _STATE["profile"]
        profiler.enable()
        try:
            out = _ORIGINALS["run_job"](job)
        finally:
            profiler.disable()
        profiler.dump_stats(str(records / f"{os.getpid()}.prof"))
    else:
        out = _ORIGINALS["run_job"](job)
    (records / f"{os.getpid()}.json").write_text(json.dumps(_REC.as_dict()))
    return out


def merged_recorder(records_dir: str) -> Recorder:
    """This process's recorder plus every worker record left behind."""
    total = Recorder()
    total.merge(_REC.as_dict())
    for path in sorted(pathlib.Path(records_dir).glob("*.json")):
        total.merge(json.loads(path.read_text()))
    return total


def merged_profile(profiler: cProfile.Profile, records_dir: str) -> pstats.Stats:
    stats = pstats.Stats(profiler)
    for path in sorted(pathlib.Path(records_dir).glob("*.prof")):
        stats.add(str(path))
    return stats


# ---------------------------------------------------------------------------
# reductions to per-layer metrics
# ---------------------------------------------------------------------------


def _per(numer: float, denom: float, scale: float = 1.0) -> float:
    return numer / denom * scale if denom else 0.0


def span_metrics(rec: Recorder) -> Dict[str, float]:
    """Per-layer metrics from a ``spans`` pass (times per call unless
    the name says per pass)."""
    calls, secs, counts = rec.calls, rec.secs, rec.counts
    hits, misses = counts["exec.cache_hits"], counts["exec.cache_misses"]
    return {
        "sim.runs": calls["sim.run"],
        "sim.refs": counts["sim.refs"],
        "sim.us_per_ref": _per(secs["sim.run"], counts["sim.refs"], 1e6),
        "sim.init_ms": _per(secs["sim.init"], calls["sim.init"], 1e3),
        "sim.redundant_runs": sum(n - 1 for n in Counter(rec.run_digests).values()),
        "hierarchy.access_calls": calls["hierarchy.access"],
        "hierarchy.access_us": _per(
            secs["hierarchy.access"], calls["hierarchy.access"], 1e6
        ),
        "kernel.runs": calls["kernel.run"],
        "kernel.us_per_ref": _per(secs["kernel.run"], counts["kernel.refs"], 1e6),
        "energy.compute_calls": calls["energy.compute"],
        "energy.compute_us": _per(secs["energy.compute"], calls["energy.compute"], 1e6),
        "workloads.build_ms": _per(
            secs["workloads.build"], calls["workloads.build"], 1e3
        ),
        "workloads.batch_s": secs["workloads.batch"],
        "exec.jobs": counts["exec.jobs"],
        "exec.cache_hits": hits,
        "exec.cache_misses": misses,
        "exec.cache_hit_frac": _per(hits, hits + misses),
        "exec.cache_get_ms": _per(secs["exec.cache_get"], calls["exec.cache_get"], 1e3),
        "exec.deserialize_ms": _per(
            secs["exec.deserialize"], calls["exec.deserialize"], 1e3
        ),
        "exec.cache_put_ms": _per(secs["exec.cache_put"], calls["exec.cache_put"], 1e3),
        "exec.serialize_ms": _per(secs["exec.serialize"], calls["exec.serialize"], 1e3),
        "exec.batch_s": secs["exec.batch"],
        "exec.worker_busy_frac": _per(counts["exec.busy_s"], counts["exec.capacity_s"]),
        "exec.retries": counts["exec.retries"],
    }


def _package(filename: str, src_root: str) -> Optional[str]:
    if not filename.startswith(src_root):
        return None
    head = filename[len(src_root):].split(os.sep, 1)[0]
    return None if head.endswith(".py") else head


def profile_metrics(
    stats: pstats.Stats, src_root: str, refs: int, packages: Iterable[str]
) -> Dict[str, float]:
    """Calls per requested reference and share of self time per package.

    ``src_root`` is the ``.../src/repro/`` directory. C functions count
    under ``builtins`` only when a ``repro`` function called them, which
    keeps the pool's waiting (whose length depends on timing) out of the
    counts. The shares are of the self time so counted (every ``repro``
    package plus ``builtins``), so that waiting stays out of them too.
    """
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    for (filename, _line, _name), (_cc, nc, tt, _ct, callers) in stats.stats.items():
        pkg = _package(filename, src_root)
        if pkg is not None:
            calls[pkg] += nc
            self_s[pkg] += tt
        elif filename == "~":
            for caller, edge in callers.items():
                if _package(caller[0], src_root) is not None:
                    calls["builtins"] += edge[0]
                    self_s["builtins"] += edge[2]
    total_s = sum(self_s.values())
    out: Dict[str, float] = {}
    for pkg in packages:
        out[f"{pkg}.calls_per_ref"] = _per(calls[pkg], refs)
        out[f"{pkg}.self_share"] = _per(self_s[pkg], total_s)
    return out
