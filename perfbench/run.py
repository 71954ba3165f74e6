"""The repository benchmark: what reproducing the paper costs, end to end
and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload fig-grid --seed 0 --seconds 45 --trace 0

Every pass runs in a fresh interpreter (``passes.py``) against the
checkout's ``src/`` with the environment variables that silently change
what runs removed, a private cache directory and a private ``TMPDIR``,
all under ``.perfbench_work/`` in the checkout. A run repeats passes
while the next one should end within ``--seconds`` (at least
``spec.MIN_PASSES`` of them), checks every pass's outputs, and reports medians of the pass times at
the reference host speed (``hostspeed.py``). ``--trace 1`` makes
``spec.MIN_PASSES`` untraced passes (their median is the overhead
baseline), one pass with timing wrappers and one under ``cProfile``, and
reports the per-layer metrics instead. The last line of stdout is the
result as JSON.

Other entry points:

- ``--selftest``: two traced passes per workload must give identical
  deterministic counts (``spec.DETERMINISTIC``).
- ``--regen-expected``: rewrite ``expected/`` from the current program.
- ``--write-spec``: write ``BENCHMARK.json`` from ``spec.py``.

See ``README.md`` next to this file for the metric table.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import hostspeed
import spec
import tracing

HERE = pathlib.Path(__file__).resolve().parent
EXPECTED = HERE / "expected"
WORKLOAD_NAMES = tuple(name for name, _ in spec.WORKLOADS)
RUN_SECONDS = 45
#: a pass that takes longer than this is killed and the run fails
PASS_TIMEOUT_S = 150
_pass_ids = itertools.count()


class BenchError(RuntimeError):
    """The benchmark could not produce a measurement."""


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def child_env(root: pathlib.Path, work: pathlib.Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in spec.SCRUBBED_ENV}
    tmp = work / "tmp"
    tmp.mkdir(exist_ok=True)
    env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0", TMPDIR=str(tmp))
    return env


def run_pass(
    root: pathlib.Path,
    work: pathlib.Path,
    env: Dict[str, str],
    workload: str,
    seed: int,
    cache_dir: Optional[pathlib.Path] = None,
    trace: str = "",
) -> dict:
    """One pass in a fresh interpreter; returns its report with
    ``wall_s`` and ``setup_s`` measured from the spawn and, unless the
    pass runs under ``cProfile`` (which would slow the probe itself),
    the host's ``slowdown`` over the pass and both times at the
    reference speed, ``ref_wall_s`` and ``ref_setup_s``."""
    n = next(_pass_ids)
    records, probes = work / f"records{n}", work / f"probes{n}"
    records.mkdir()
    probed = trace != tracing.PROFILE
    if probed:
        probes.mkdir()
    cfg_path, out = work / f"pass{n}.json", work / f"pass{n}.out.json"
    cfg_path.write_text(json.dumps({
        "root": str(root), "workload": workload, "seed": seed, "trace": trace,
        "cache_dir": str(cache_dir) if cache_dir else None,
        "records": str(records), "out": str(out),
        "probes": str(probes) if probed else None,
    }))
    t_spawn = time.monotonic()
    # Own session, so a timeout can take the pass's pool workers down too.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "passes.py"), str(cfg_path)],
        cwd=root, env=env, stdout=sys.stderr, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=PASS_TIMEOUT_S)
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{workload} pass took over {PASS_TIMEOUT_S} s") from None
        raise
    finally:
        shutil.rmtree(records, ignore_errors=True)
        samples = hostspeed.read_samples(probes) if probed else []
        shutil.rmtree(probes, ignore_errors=True)
    if code != 0:
        raise BenchError(f"{workload} pass exited with code {code}")
    report = json.loads(out.read_text())
    report["wall_s"] = report["t_done"] - t_spawn - report.get("check_s", 0.0)
    report["setup_s"] = report["t_first"] - t_spawn
    if probed:
        slow = hostspeed.slowdown(samples, t_spawn, report["t_done"])
        if slow is None:
            raise BenchError(f"{workload} pass left no host-speed probes")
        # Set-up is short; without probes of its own it takes the pass's.
        setup_slow = hostspeed.slowdown(samples, t_spawn, report["t_first"]) or slow
        report.update(
            slowdown=slow,
            ref_wall_s=report["wall_s"] / slow,
            ref_setup_s=report["setup_s"] / setup_slow,
        )
    return report


# ---------------------------------------------------------------------------
# expected outputs
# ---------------------------------------------------------------------------


def fig_config() -> dict:
    return json.loads(json.dumps({
        "refs_per_core": spec.FIG_REFS,
        "figures": [[name, kwargs] for name, kwargs, _ in spec.FIGURES],
    }))


def sweep_config(seed: int) -> dict:
    return json.loads(json.dumps({
        "seed": seed, "system": "SystemConfig.scaled().probe_free()",
        "refs_per_core": spec.SWEEP_REFS, "mixes": spec.SWEEP_MIXES,
        "policies": spec.SWEEP_POLICIES,
    }))


def expected_path(workload: str, seed: int) -> pathlib.Path:
    if workload == "fig-grid":
        return EXPECTED / "fig-grid.json"
    return EXPECTED / f"sweep-seed{seed}.json"


def load_expected(workload: str, seed: int) -> Optional[dict]:
    """Committed outputs for this workload and seed, or None if no seed
    has them stored (fig-grid's inputs are fixed, so it always has)."""
    path = expected_path(workload, seed)
    if not path.is_file():
        return None
    data = json.loads(path.read_text())
    config = fig_config() if workload == "fig-grid" else sweep_config(seed)
    if data["config"] != config:
        raise BenchError(
            f"{path.name} was made for another configuration; "
            "run perfbench/run.py --regen-expected"
        )
    return data["outputs"]


def rows_match(want, got) -> bool:
    """Figure rows equal by value (floats to 1e-9 relative)."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and want.keys() == got.keys()
                and all(rows_match(want[k], got[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(want) == len(got)
                and all(rows_match(a, b) for a, b in zip(want, got)))
    if isinstance(want, float) or isinstance(got, float):
        return (isinstance(got, (int, float)) and isinstance(want, (int, float))
                and math.isclose(want, got, rel_tol=1e-9, abs_tol=1e-12))
    return want == got


def failed_jobs(workload: str, report: dict, reference: dict) -> int:
    """Jobs of one pass that raised or whose output differs. Sweep passes
    report ``cell -> {digest: how many sweeps gave it}``, so every result
    of every sweep in the pass is checked."""
    outputs, errors = report["outputs"], report["errors"]
    if workload == "fig-grid":
        return sum(
            name in errors or not rows_match(reference[name], outputs.get(name))
            for name, _, _ in spec.FIGURES
        )
    matched = sum(outputs.get(cell, {}).get(digest, 0) for cell, digest in reference.items())
    return spec.jobs_per_pass(workload) - matched


def check_duels(report: dict) -> None:
    """A fig-grid pass must be long enough for every set duel to decide
    ``spec.FIG_MIN_DUEL_INTERVALS`` times; a shorter one times only the
    duels' warm-up, which the figures at their default size pass through."""
    runs = report["duels"]
    if not runs:
        raise BenchError("fig-grid ran no set-dueling policy")
    run, fewest = min(runs, key=lambda item: item[1])
    if fewest < spec.FIG_MIN_DUEL_INTERVALS:
        raise BenchError(
            f"fig-grid is too small: {run} decided its duel {fewest} times, "
            f"fewer than {spec.FIG_MIN_DUEL_INTERVALS}; raise spec.FIG_REFS"
        )


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


class Run:
    """Passes of one workload sharing a work directory and a reference."""

    def __init__(self, root: pathlib.Path, work: pathlib.Path, workload: str, seed: int):
        self.root, self.work, self.workload, self.seed = root, work, workload, seed
        self.env = child_env(root, work)
        self.reference = load_expected(workload, seed)
        self.attempted = 0
        self.failed = 0

    def _check(self, report: dict) -> None:
        workload = self.workload
        if workload == "fig-grid":
            check_duels(report)
        if self.reference is None:
            # A sweep seed without stored outputs: the first pass's cold
            # sweep is the reference for everything after it, its own
            # re-read from the cache included.
            self.reference = report["first_digests"]
        self.attempted += spec.jobs_per_pass(workload)
        self.failed += failed_jobs(workload, report, self.reference)

    def one_pass(self, trace: str = "") -> dict:
        cache_dir = None
        if self.workload == "sweep-cold":
            cache_dir = self.work / f"cold-cache{next(_pass_ids)}"
        try:
            report = run_pass(
                self.root, self.work, self.env, self.workload, self.seed, cache_dir, trace
            )
        finally:
            if cache_dir is not None:
                shutil.rmtree(cache_dir, ignore_errors=True)
        self._check(report)
        return report

    def timed_passes(self, seconds: float) -> List[dict]:
        """At least ``spec.MIN_PASSES`` passes, then more while the next
        one, as long as the median pass so far, still ends in time."""
        passes: List[dict] = []
        took: List[float] = []
        start = time.monotonic()
        while (len(passes) < spec.MIN_PASSES
               or time.monotonic() - start + statistics.median(took) <= seconds):
            began = time.monotonic()
            passes.append(self.one_pass())
            took.append(time.monotonic() - began)
        return passes

    def traced_layers(self) -> tuple:
        """(spans pass, profile pass) reports."""
        return self.one_pass("spans"), self.one_pass("profile")


def end_to_end(workload: str, passes: List[dict]) -> Dict[str, float]:
    """Medians over the passes; times at the reference host speed."""
    wall = statistics.median(p["ref_wall_s"] for p in passes)
    return {
        "ref_wall_s": wall,
        "ref_refs_per_s": spec.requested_refs(workload) / wall,
        "setup_s": statistics.median(p["ref_setup_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


def host_metrics(workload: str, passes: List[dict]) -> Dict[str, float]:
    """The same passes' raw host times and the host's slowdown."""
    wall = statistics.median(p["wall_s"] for p in passes)
    return {
        "wall_s": wall,
        "refs_per_s": spec.requested_refs(workload) / wall,
        "host.slowdown": statistics.median(p["slowdown"] for p in passes),
    }


def environment(workload: str, seed: int, backends: Optional[dict]) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "workload": workload,
        "seed": seed if workload != "fig-grid" else "fixed (figure functions use seed 0)",
        "default_seed": spec.DEFAULT_SEED,
        "heldout_seed": spec.HELDOUT_SEED,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "scrubbed_env_set": sorted(k for k in spec.SCRUBBED_ENV if k in os.environ),
        "tag_backends": backends if backends is not None else "traced runs only",
    }


def measure(root: pathlib.Path, work: pathlib.Path, args) -> dict:
    run = Run(root, work, args.workload, args.seed)
    # A traced run needs only a baseline for the overhead fractions.
    if args.trace:
        passes = [run.one_pass() for _ in range(spec.MIN_PASSES)]
    else:
        passes = run.timed_passes(args.seconds)
    metrics = end_to_end(args.workload, passes)
    units = {name: unit for name, unit, _, _ in spec.END_TO_END}
    backends = None
    if args.trace:
        spans, prof = run.traced_layers()
        backends = spans["backends"]
        host = host_metrics(args.workload, passes)
        metrics = {
            "ops_failed_frac": run.failed / run.attempted,
            **host,
            **spans["layer"],
            **prof["layer"],
            "trace.overhead_frac": spans["ref_wall_s"] / metrics["ref_wall_s"] - 1.0,
            # The cProfile pass carries no probe: raw times, so a rough figure.
            "trace.profile_overhead_frac": prof["wall_s"] / host["wall_s"] - 1.0,
        }
        units = {name: unit for name, unit, _ in spec.PER_LAYER}
    if metrics.keys() != units.keys():
        raise BenchError(f"metrics {sorted(metrics.keys() ^ units.keys())} disagree with spec.py")
    print("# env " + json.dumps(environment(args.workload, args.seed, backends)))
    print(f"# {len(passes)} timed passes, {run.attempted} jobs checked, {run.failed} failed")
    for key in ("wall_s", "slowdown", "ref_wall_s", "ref_setup_s"):
        print(f"# pass {key} " + " ".join(f"{p[key]:.3f}" for p in passes))
    if args.workload == "fig-grid":
        name, fewest = min(passes[0]["duels"], key=lambda item: item[1])
        print(f"# fewest duel decisions in one simulation: {fewest} ({name})")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def selftest(root: pathlib.Path, work: pathlib.Path, workloads, seed: int) -> bool:
    """Two traced passes per workload must agree on every deterministic count."""
    ok = True
    for workload in workloads:
        run = Run(root, work, workload, seed)
        first = run.traced_layers()
        second = run.traced_layers()
        a = {**first[0]["layer"], **first[1]["layer"]}
        b = {**second[0]["layer"], **second[1]["layer"]}
        for name in spec.DETERMINISTIC:
            same = a[name] == b[name]
            ok &= same
            print(f"{workload:10s} {name:28s} {a[name]!r:>22} {b[name]!r:>22} "
                  f"{'ok' if same else 'DIFFERS'}")
        if run.failed:
            ok = False
            print(f"{workload}: {run.failed} of {run.attempted} jobs failed the output check")
    return ok


def regen_expected(root: pathlib.Path, work: pathlib.Path) -> None:
    env = child_env(root, work)
    EXPECTED.mkdir(exist_ok=True)
    seed = spec.DEFAULT_SEED
    fig = run_pass(root, work, env, "fig-grid", seed)
    cold = run_pass(root, work, env, "sweep-cold", seed, work / "regen-cache")
    check_duels(fig)
    if failed_jobs("sweep-cold", cold, cold["first_digests"]):
        raise BenchError("sweep-cold: the re-read from the cache differs from the cold sweep")
    for workload, outputs, report, config in (
        ("fig-grid", fig["outputs"], fig, fig_config()),
        ("sweep-cold", cold["first_digests"], cold, sweep_config(seed)),
    ):
        if report["errors"]:
            raise BenchError(f"{workload} raised: {report['errors']}")
        path = expected_path(workload, seed)
        doc = {"config": config, "outputs": outputs}
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(root)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--regen-expected", action="store_true")
    parser.add_argument("--write-spec", action="store_true")
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd().resolve()
    if args.write_spec:
        doc = spec.benchmark_json(RUN_SECONDS)
        (root / "BENCHMARK.json").write_text(json.dumps(doc, indent=2) + "\n")
        return 0
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    if not (args.workload or args.selftest or args.regen_expected):
        parser.error("--workload is required")
    work = root / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        if args.regen_expected:
            regen_expected(root, work)
            return 0
        if args.selftest:
            workloads = (args.workload,) if args.workload else WORKLOAD_NAMES
            return 0 if selftest(root, work, workloads, args.seed) else 1
        result = measure(root, work, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
