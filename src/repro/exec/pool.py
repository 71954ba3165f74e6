"""Parallel job execution over a process pool, with caching and retry.

:func:`execute_jobs` runs every grid in the repository — figures,
``run_policies``, ``Sweep.run``, suites, the CLI and ``repro serve``:
it resolves cache hits first, runs the misses in-process or fans them
out over a :class:`~concurrent.futures.ProcessPoolExecutor`
(``max_workers > 1``), and returns results in the *input* order
regardless of completion order, so parallel sweeps are
record-for-record identical to serial ones.

The return value is an :class:`ExecutionOutcome` — a list of
:class:`RunResult` (so every existing caller keeps working) that also
carries one :class:`~repro.obs.profiling.JobProfile` per job
(wall time, throughput, retries, provenance, peak RSS) plus cache
hit/miss totals, and can roll them up into a
:class:`~repro.obs.profiling.RunManifest`. Pass ``manifest_dir``
to have the manifest written as ``manifest.json`` (a sweep run with a
cache does this automatically, next to the cached results), and
``heartbeat_interval`` to get rate-limited progress lines on stderr
during long sweeps.

Failure policy: library errors (:class:`~repro.errors.ReproError`) are
deterministic — a retry would fail identically — so they propagate
unchanged. Anything else (a worker killed by the OS, a broken pool, a
pickling hiccup) is treated as transient: a job gets one more attempt,
in-process, and a second failure raises
:class:`~repro.errors.ExecutionError`.

Interruption policy: SIGINT (Ctrl-C) and SIGTERM (a supervisor's stop)
during a batch cancel the pending work, but every *completed* job is
still cached and profiled and the manifest is still written; then the
``KeyboardInterrupt`` propagates, so no caller ever receives a grid
with cells missing. SIGTERM is bridged to ``KeyboardInterrupt`` while
the batch runs, main thread only — worker-thread callers such as the
serve daemon inherit their host's signal handling untouched. The CLI
turns the interrupt into one stderr line and exit code 130.

Workers serialise results with :mod:`repro.exec.serialize` rather than
pickling :class:`RunResult` objects, so the parallel path returns
byte-identical data to the cache path. They also ship each job's spans
and metric deltas back, so a pooled run records what a serial one does.
"""

from __future__ import annotations

import concurrent.futures as cf
import contextlib
import pathlib
import signal
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

from ..errors import ExecutionError, ReproError
from ..obs import (
    SOURCE_CACHE,
    SOURCE_POOL,
    SOURCE_SERIAL,
    Heartbeat,
    JobProfile,
    MetricsRegistry,
    RunManifest,
    SpanRecorder,
    current_recorder,
    get_registry,
    install_recorder,
    peak_rss_kb,
    set_registry,
    span,
    tracing_enabled,
)
from ..sim.results import RunResult
from .cache import ResultCache
from .jobs import JobSpec
from .serialize import result_from_dict, result_to_dict

#: Attempts per job: a transient failure gets one retry, in-process.
ATTEMPTS = 2


class ExecutionOutcome(List[RunResult]):
    """Ordered results plus per-job execution telemetry.

    Behaves exactly like the plain ``List[RunResult]`` this function
    used to return; the telemetry rides along as attributes.
    """

    def __init__(
        self,
        results: Sequence[RunResult],
        profiles: Sequence[JobProfile],
        max_workers: int,
        wall_s: float,
    ) -> None:
        super().__init__(results)
        self.profiles: List[JobProfile] = list(profiles)
        self.max_workers = max_workers
        self.wall_s = wall_s

    @property
    def cache_hits(self) -> int:
        return self.manifest().cache_hits

    @property
    def cache_misses(self) -> int:
        return self.manifest().cache_misses

    def manifest(self) -> RunManifest:
        return RunManifest(
            jobs=list(self.profiles), max_workers=self.max_workers, wall_s=self.wall_s
        )


def _init_worker(tracing: bool) -> None:
    """Pool initializer: drop the registry and span recorder a forked
    worker inherits; record afresh (spans only if the parent traces)."""
    set_registry(MetricsRegistry())
    if tracing:
        install_recorder(SpanRecorder())


def _run_job_dict(job: JobSpec) -> Dict[str, Any]:
    """Worker entry point: run one job, return its serialised result,
    wall time and peak RSS, plus its spans and metric deltas (the
    registry is reset after each snapshot)."""
    start = time.perf_counter()
    registry = get_registry()
    recorder = current_recorder()
    try:
        with span("exec.job", policy=job.policy, workload=job.workload.label):
            result = job.run()
    finally:  # a failed job's records must not ride along with the next job
        metrics = registry.snapshot()
        registry.reset()
        spans = recorder.drain() if recorder is not None else []
    return {
        "result": result_to_dict(result),
        "wall_s": time.perf_counter() - start,
        "peak_rss_kb": peak_rss_kb(),
        "spans": spans,
        "metrics": metrics,
    }


def _run_in_process(
    jobs: Sequence[JobSpec],
    i: int,
    results: List[Optional[RunResult]],
    profiles: List[Optional[JobProfile]],
    spent: int = 0,
) -> None:
    """Run ``jobs[i]`` in this process under the failure policy and
    record its result and profile in place; ``spent`` counts attempts
    already made elsewhere (a failed pool worker)."""
    job = jobs[i]
    job_start = time.perf_counter()
    attempt = spent
    with span("exec.job", index=i, policy=job.policy, workload=job.workload.label):
        while True:
            try:
                result = job.run()
                break
            except ReproError:
                raise
            except Exception as exc:  # transient by assumption
                attempt += 1
                if attempt >= ATTEMPTS:
                    raise ExecutionError(
                        f"job {i} ({job.workload.label} / {job.policy}) failed "
                        f"after {ATTEMPTS} attempts: {exc}"
                    ) from exc
    results[i] = result
    profile = _profile_for(i, job, SOURCE_SERIAL, result)
    profile.wall_s = time.perf_counter() - job_start
    profile.retries = attempt
    profile.peak_rss_kb = peak_rss_kb()
    profiles[i] = profile


@contextlib.contextmanager
def _sigterm_as_interrupt() -> Iterator[None]:
    """Bridge SIGTERM to ``KeyboardInterrupt`` for the enclosed batch.

    Lets a supervisor's ``kill`` stop the batch the way Ctrl-C does.
    Signal handlers are a main-thread-only, process-global resource, so
    this is a no-op off the main thread (e.g. ``execute_jobs`` running
    inside a serve worker thread) and on platforms that refuse the
    handler.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    def _raise(signum, frame):  # noqa: ARG001
        raise KeyboardInterrupt
    try:
        previous = signal.signal(signal.SIGTERM, _raise)
    except (ValueError, OSError, AttributeError):  # no SIGTERM / exotic host
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _profile_for(
    index: int, job: JobSpec, source: str, result: RunResult
) -> JobProfile:
    return JobProfile(
        index=index,
        key=job.key(),
        workload=job.workload.label,
        policy=job.policy,
        system=job.system.label,
        source=source,
        accesses=result.hier.accesses,
    )


def execute_jobs(
    jobs: Sequence[JobSpec],
    max_workers: int = 1,
    cache: Optional[ResultCache] = None,
    manifest_dir: Optional[Union[str, pathlib.Path]] = None,
    heartbeat_interval: Optional[float] = None,
) -> ExecutionOutcome:
    """Execute ``jobs`` and return one :class:`RunResult` per job, in order.

    ``max_workers <= 1`` (or a pool that fails to start) runs serially
    in-process; ``cache`` short-circuits jobs whose content address is
    already stored and records fresh results on the way out.
    ``manifest_dir`` writes the run manifest there (``manifest.json``);
    ``heartbeat_interval`` emits progress lines on stderr at most that
    many seconds apart.

    SIGINT/SIGTERM mid-batch cancels the pending work, then caches,
    profiles and manifest-logs the completed jobs as usual (counting
    ``exec.interrupted``) and re-raises ``KeyboardInterrupt``.
    """
    start = time.perf_counter()
    jobs = list(jobs)
    for i, job in enumerate(jobs):
        if not isinstance(job, JobSpec):
            raise ExecutionError(f"jobs[{i}] is not a JobSpec: {type(job).__name__}")
    results: List[Optional[RunResult]] = [None] * len(jobs)
    profiles: List[Optional[JobProfile]] = [None] * len(jobs)
    pulse = Heartbeat(len(jobs), heartbeat_interval)

    batch_span = span("exec.batch", jobs=len(jobs), max_workers=max_workers)
    misses: List[int] = []
    if cache is not None:
        with span("exec.cache_probe", jobs=len(jobs)) as probe_span:
            for i, job in enumerate(jobs):
                lookup_start = time.perf_counter()
                hit = cache.get(job)
                if hit is not None:
                    results[i] = hit
                    profile = _profile_for(i, job, SOURCE_CACHE, hit)
                    profile.wall_s = time.perf_counter() - lookup_start
                    profiles[i] = profile
                else:
                    misses.append(i)
            probe_span.set(hits=len(jobs) - len(misses), misses=len(misses))
    else:
        misses = list(range(len(jobs)))
    cached_count = len(jobs) - len(misses)

    interrupt: Optional[KeyboardInterrupt] = None
    try:
        if misses:
            with _sigterm_as_interrupt():
                try:
                    pooled = max_workers > 1 and len(misses) > 1 and _execute_pooled(
                        jobs, misses, results, profiles, max_workers, pulse,
                        cached_count,
                    )
                    if not pooled:
                        for n, i in enumerate(misses):
                            _run_in_process(jobs, i, results, profiles)
                            pulse.beat(cached_count + n + 1, cached_count)
                except KeyboardInterrupt as exc:
                    # Keep everything that finished; re-raised below.
                    # (_execute_pooled has already cancelled its futures.)
                    interrupt = exc
            if cache is not None:
                for i in misses:
                    if results[i] is not None:
                        cache.put(jobs[i], results[i])
    except BaseException:
        batch_span.finish("error")
        raise

    completed = [
        i for i in range(len(jobs))
        if results[i] is not None and profiles[i] is not None
    ]
    wall_s = time.perf_counter() - start
    outcome = ExecutionOutcome(
        [results[i] for i in completed],  # type: ignore[misc]
        [profiles[i] for i in completed],  # type: ignore[misc]
        max_workers=max_workers,
        wall_s=wall_s,
    )
    batch_span.set(
        completed=len(completed), cache_hits=cached_count,
        interrupted=interrupt is not None,
    )
    batch_span.finish()
    _report_metrics(outcome, interrupted=interrupt is not None)
    if jobs:
        pulse.final(len(completed), cached_count)
    if manifest_dir is not None:
        outcome.manifest().write(manifest_dir)
        if tracing_enabled():
            # The span dump rides next to the manifest so the ledger
            # scanner finds both in one pass. Dumping the whole
            # recorder (not a drained slice) means later batches in
            # the same process supersede the file with a superset.
            recorder = current_recorder()
            if recorder is not None and len(recorder):
                recorder.dump(pathlib.Path(manifest_dir))
    if interrupt is not None:
        raise interrupt
    return outcome


def _report_metrics(outcome: ExecutionOutcome, interrupted: bool) -> None:
    """Pool roll-ups into the process metrics registry (once per batch)."""
    manifest = outcome.manifest()
    registry = get_registry()
    registry.counter("exec.jobs").inc(len(outcome))
    if interrupted:
        registry.counter("exec.interrupted").inc()
    registry.counter("exec.cache_hits").inc(manifest.cache_hits)
    registry.counter("exec.cache_misses").inc(manifest.cache_misses)
    registry.counter("exec.retries").inc(manifest.total_retries)
    job_wall = registry.histogram("exec.job_wall_s")
    for profile in outcome.profiles:
        if profile.source != SOURCE_CACHE:
            job_wall.observe(profile.wall_s)


def _execute_pooled(
    jobs: Sequence[JobSpec],
    misses: Sequence[int],
    results: List[Optional[RunResult]],
    profiles: List[Optional[JobProfile]],
    max_workers: int,
    pulse: Heartbeat,
    cached_count: int,
) -> bool:
    """Fan ``misses`` out over a process pool, filling ``results`` and
    ``profiles`` in place; False (nothing run) when no pool starts."""
    workers = min(max_workers, len(misses))
    try:
        pool = cf.ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker,
            initargs=(tracing_enabled(),),
        )
    except (OSError, ValueError, RuntimeError):
        # Pool cannot start (sandboxed environment, missing semaphores,
        # spawn failure): the caller degrades to serial execution.
        return False

    try:
        futures = {i: pool.submit(_run_job_dict, jobs[i]) for i in misses}
        for done, i in enumerate(misses):
            try:
                payload = _wait_with_heartbeat(
                    futures[i], pulse, cached_count + done, cached_count
                )
                results[i] = result_from_dict(payload["result"])
                profile = _profile_for(i, jobs[i], SOURCE_POOL, results[i])
                profile.wall_s = payload.get("wall_s", 0.0)
                profile.peak_rss_kb = payload.get("peak_rss_kb")
                profiles[i] = profile
                get_registry().merge(payload["metrics"])
                recorder = current_recorder()
                if recorder is not None:
                    recorder.adopt(payload["spans"], index=i)
            except ReproError:
                raise  # deterministic library failure: retrying is pointless
            except Exception:
                # A crashed worker may have broken the whole pool; the
                # retry runs in-process, which also covers
                # unpicklable-job failures.
                _run_in_process(jobs, i, results, profiles, spent=1)
            pulse.beat(cached_count + done + 1, cached_count)
    except KeyboardInterrupt:
        # Drop work that has not started and abandon the in-flight job
        # (a process pool cannot preempt it); the caller keeps every
        # result already collected.
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    except BaseException:
        pool.shutdown(wait=True, cancel_futures=True)
        raise
    else:
        pool.shutdown(wait=True)
    return True


def _wait_with_heartbeat(
    future: "cf.Future", pulse: Heartbeat, done: int, cached: int
) -> Dict[str, Any]:
    """``future.result()`` that keeps the heartbeat alive: it waits in
    slices no longer than the heartbeat interval, so progress lines keep
    flowing while a slow job blocks the ordered collection loop."""
    interval = pulse.interval or None  # 0 beats once per job, not in a spin
    while not cf.wait((future,), timeout=interval).done:
        pulse.beat(done, cached)
    return future.result()
