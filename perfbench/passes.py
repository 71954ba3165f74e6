"""One benchmark pass, in a fresh interpreter.

Usage: ``python3 perfbench/passes.py CONFIG.json`` where the config (written
by ``run.py``) names the workload, seed, cache directory, trace mode and
the file to write the pass's report to. The report holds monotonic
timestamps (``time.monotonic`` is system-wide, so the parent can subtract
its own spawn time), the seconds spent checking outputs, peak memory, the
outputs to check and, for traced passes, the per-layer metrics. Unless
the pass runs under ``cProfile``, it also carries the host-speed probe
(``hostspeed.py``).
"""

from __future__ import annotations

import cProfile
import contextlib
import functools
import hashlib
import json
import os
import pathlib
import resource
import sys
import time
from collections import Counter, defaultdict
from typing import Optional

import hostspeed
import spec
import tracing


def _plain(value):
    """Figure rows as JSON-ready data (tuples become lists)."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def result_digest(to_dict, result) -> str:
    """SHA-256 of a RunResult's canonical serialised form."""
    blob = json.dumps(to_dict(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@contextlib.contextmanager
def _paused(profiler: Optional[cProfile.Profile]):
    """Keep the benchmark's own output checking out of the profile."""
    if profiler is not None:
        profiler.disable()
    try:
        yield
    finally:
        if profiler is not None:
            profiler.enable()


def _mark_first_job(report: dict) -> None:
    """Set-up ends when the first job starts: the first simulation on the
    serial path (after imports, configs, the first workload build and
    hierarchy construction) or the first ``execute_jobs`` batch, whichever
    comes first, so the mark holds wherever the program runs its jobs."""
    from repro.exec import pool
    from repro.sim.simulator import Simulator

    def marked(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            report.setdefault("t_first", time.monotonic())
            return fn(*args, **kwargs)

        return wrapper

    Simulator.run = marked(Simulator.run)
    tracing.replace_function(pool.execute_jobs, marked(pool.execute_jobs))


def _watch_duels() -> list:
    """``[run, duel intervals]`` for every set-dueling simulation, so
    ``run.py`` can check that the pass is long enough for the duels
    (LAP's replacement duel, the FLEXclusion/Dswitch mode duels) to
    decide several times rather than only time their warm-up."""
    from repro.sim.simulator import Simulator

    seen: list = []
    run = Simulator.run

    @functools.wraps(run)
    def wrapper(self, *args, **kwargs):
        result = run(self, *args, **kwargs)
        extra = result.extra
        if "duel_decisions_a" in extra:
            intervals = extra["duel_decisions_a"] + extra["duel_decisions_b"]
            seen.append([f"{result.workload}/{result.policy}", intervals])
        return result

    Simulator.run = wrapper
    return seen


def _fig_grid(report: dict) -> None:
    from repro.analysis import figures

    duels = _watch_duels()
    outputs, errors, seconds = {}, {}, {}
    for name, kwargs, _cells in spec.FIGURES:
        start = time.perf_counter()
        try:
            outputs[name] = _plain(getattr(figures, name)(refs=spec.FIG_REFS, **kwargs))
        except Exception as exc:  # a failed job, reported and counted
            errors[name] = f"{type(exc).__name__}: {exc}"
        seconds[name] = time.perf_counter() - start
    report["t_done"] = time.monotonic()
    report.update(outputs=outputs, errors=errors, figure_s=seconds, duels=duels)


def _sweep(report: dict, seed: int, cache_dir: str, repeats: int, digest, paused) -> None:
    """``repeats`` sweeps of the grid, every result of every repeat
    checked: the first repeat's by digest, each later one by equality
    with the first repeat's result for its cell (a result that differs
    gets its own digest). Checking is not the program's work, so it runs
    with the profiler ``paused`` and its time goes to ``check_s``, which
    ``run.py`` takes off the pass's wall time."""
    from repro.exec.cache import ResultCache
    from repro.sim import sweeps
    from repro.sim.runner import mix_builder
    from repro.sim.system import SystemConfig

    sweep = sweeps.Sweep(
        systems={"scaled-probe-free": SystemConfig.scaled().probe_free()},
        workloads={m: mix_builder(m, seed=seed) for m in spec.SWEEP_MIXES},
        policies=spec.SWEEP_POLICIES,
        refs_per_core=spec.SWEEP_REFS,
    )
    cache = ResultCache(cache_dir)
    # Sweep.run returns only flattened records; keep each batch's RunResults.
    outcomes: list = []
    execute = sweeps.execute_jobs

    def capture(*args, **kwargs):
        outcomes.append(execute(*args, **kwargs))
        return outcomes[-1]

    sweeps.execute_jobs = capture
    digests: dict = defaultdict(Counter)
    first: list = []  # (cell, result, digest) of the first repeat
    check_s = 0.0
    for _ in range(repeats):
        records = sweep.run(max_workers=spec.SWEEP_WORKERS, cache=cache)
        start = time.monotonic()
        with paused():
            results = outcomes.pop()
            if not first:
                first = [
                    (f"{r.workload}/{r.policy}", res, digest(res))
                    for r, res in zip(records, results)
                ]
            for (cell, known, known_digest), result in zip(first, results):
                digests[cell][known_digest if result == known else digest(result)] += 1
        check_s += time.monotonic() - start
    report["t_done"] = time.monotonic()
    sweeps.execute_jobs = execute
    report.update(
        outputs={c: dict(n) for c, n in digests.items()},
        first_digests={cell: d for cell, _result, d in first},
        errors={},
        check_s=check_s,
    )


def main() -> int:
    cfg = json.loads(pathlib.Path(sys.argv[1]).read_text())
    if cfg["probes"]:
        hostspeed.install(cfg["probes"])
    root = pathlib.Path(cfg["root"])
    src_root = str(root / "src" / "repro") + os.sep
    import repro
    from repro.exec.serialize import result_to_dict  # before tracing wraps it

    if not repro.__file__.startswith(src_root):
        raise SystemExit(f"imported repro from {repro.__file__}, not {src_root}")
    workload, mode = cfg["workload"], cfg["trace"]
    profiler = None
    if mode:
        tracing.install(mode, cfg["records"])
        if mode == tracing.PROFILE:
            profiler = cProfile.Profile()
            profiler.enable()
    report: dict = {}
    _mark_first_job(report)
    if workload == "fig-grid":
        _fig_grid(report)
    else:
        digest = functools.partial(result_digest, result_to_dict)
        paused = functools.partial(_paused, profiler)
        _sweep(report, cfg["seed"], cfg["cache_dir"], spec.SWEEP_REPEATS, digest, paused)
    if profiler is not None:
        profiler.disable()
    report.setdefault("t_first", report["t_done"])  # no job ever started
    usage = resource.getrusage
    # ru_maxrss is in KiB on Linux; children are the reaped pool workers.
    rss = [usage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           usage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0]
    if cfg["probes"]:
        # The host-speed probe's array is resident in every process it
        # ran in (the workers were forked after it was made); it is the
        # benchmark's memory, not the program's.
        rss = [mb - hostspeed.FOOTPRINT_MIB if mb else 0.0 for mb in rss]
    report["rss_mb"] = sum(rss)
    if mode == tracing.SPANS:
        rec = tracing.merged_recorder(cfg["records"])
        layer = tracing.span_metrics(rec)
        for name, _kwargs, _cells in spec.FIGURES:
            layer[f"analysis.{name}_s"] = report.get("figure_s", {}).get(name, 0.0)
        report["layer"] = layer
        report["backends"] = dict(rec.backends)
    elif mode == tracing.PROFILE:
        stats = tracing.merged_profile(profiler, cfg["records"])
        report["layer"] = tracing.profile_metrics(
            stats, src_root, spec.requested_refs(workload), spec.PACKAGES
        )
    pathlib.Path(cfg["out"]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
