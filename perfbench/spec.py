"""What the benchmark runs and what it reports.

This module is the single source of truth for the workloads, the pass
sizes and the metric table. ``run.py --write-spec`` renders it into the
repository's ``BENCHMARK.json``; ``passes.py`` and ``run.py`` read the
sizes and grids from here. Changing anything in this file changes the
benchmark, so the parent commit must be re-measured afterwards.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------

#: the seed whose outputs are committed under ``expected/``
DEFAULT_SEED = 0
#: a seed kept out of all tuning; performance claims must also hold on it
HELDOUT_SEED = 7

# ---------------------------------------------------------------------------
# fig-grid: the figure functions, default instrumentation, seed fixed at 0
# ---------------------------------------------------------------------------

#: refs/core: enough for every set duel on the grid to decide at least
#: FIG_MIN_DUEL_INTERVALS times (LAP and the switchers decide every 4,096
#: LLC accesses; WL2/WH1/WH5 make 0.5-0.65 LLC accesses per reference)
FIG_REFS = 8_000
FIG_MIN_DUEL_INTERVALS = 3
FIG_MIXES = ("WL2", "WH1", "WH5")
FIG_CORES = 4
FIG14_POLICIES = ("non-inclusive", "exclusive", "flexclusion", "dswitch", "lap")
FIG15_POLICIES = ("non-inclusive", "exclusive", "lap")
FIG19_POLICIES = ("non-inclusive", "lap-lru", "lap-loop", "lap")
FIG20_BENCHMARKS = ("canneal",)
FIG20_POLICIES = ("non-inclusive", "exclusive", "flexclusion", "dswitch", "lap")
FIG23_RATIOS = (2, 25)

#: (figure function, keyword arguments, grid cells it asks for) in call order
FIGURES = (
    ("fig14_policy_comparison",
     {"mixes": FIG_MIXES, "policies": FIG14_POLICIES},
     len(FIG_MIXES) * len(FIG14_POLICIES)),
    ("fig15_write_breakdown",
     {"mixes": FIG_MIXES, "policies": FIG15_POLICIES},
     len(FIG_MIXES) * len(FIG15_POLICIES)),
    ("fig16_loop_occupancy",
     {"mixes": FIG_MIXES, "policies": FIG14_POLICIES},
     len(FIG_MIXES) * len(FIG14_POLICIES)),
    ("fig18_mpki",
     {"mixes": FIG_MIXES, "policies": FIG15_POLICIES},
     len(FIG_MIXES) * len(FIG15_POLICIES)),
    ("fig19_lap_variants",
     {"mixes": FIG_MIXES, "policies": FIG19_POLICIES},
     len(FIG_MIXES) * len(FIG19_POLICIES)),
    ("fig20_multithreaded",
     {"benchmarks": FIG20_BENCHMARKS, "policies": FIG20_POLICIES},
     len(FIG20_BENCHMARKS) * len(FIG20_POLICIES)),
    ("fig23_energy_ratio",
     {"ratios": FIG23_RATIOS, "mixes": FIG_MIXES, "include_published": False},
     len(FIG23_RATIOS) * len(FIG_MIXES) * 2),
)

# ---------------------------------------------------------------------------
# sweep-cold: Table III mixes x kernel-eligible policies
# ---------------------------------------------------------------------------

SWEEP_MIXES = ("WL1", "WL2", "WL3", "WL4", "WL5", "WH1", "WH2", "WH3", "WH4", "WH5")
SWEEP_REFS = 10_000
SWEEP_CORES = 4
SWEEP_POLICIES = ("non-inclusive", "exclusive", "lap", "lap-lru", "lap-loop")
SWEEP_WORKERS = 2
#: sweeps of the grid per pass: the first into an empty result cache,
#: the second re-reading every result from it (50 hits), so the cache's
#: read path is measured too (sweep-warm, which measured it alone, was
#: dropped as unsteady; see README.md)
SWEEP_REPEATS = 2

# ---------------------------------------------------------------------------
# run protocol
# ---------------------------------------------------------------------------

#: every run times at least this many fresh-interpreter passes, and a
#: traced run's overhead baseline is the median of exactly this many
MIN_PASSES = 2
#: environment variables that silently change what runs; passes scrub them
SCRUBBED_ENV = (
    "REPRO_REFS",
    "REPRO_CACHE_DIR",
    "REPRO_TAG_BACKEND",
    "REPRO_SPANS",
    "REPRO_CORPUS_DIR",
)

WORKLOADS = (
    ("fig-grid",
     "the figure path: Figs. 14-20 and 23 on the generic per-access loop with "
     "probes, coherence and the figure memo; inputs fixed at seed 0"),
    ("sweep-cold",
     "a 50-job probe-free sweep into an empty cache over 2 workers, then one "
     "re-read (50 hits): kernel, pool, cache writes; sweep-warm was dropped: "
     "its runs spread 0.275, over the 0.25 bound"),
)

# (name, unit, better, bound). Times are at the reference host speed
# (hostspeed.py): a pass's wall time over the host's slowdown during it.
END_TO_END = (
    ("ref_wall_s", "s", "lower", 0.25),
    ("ref_refs_per_s", "refs/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

PACKAGES = (
    "workloads", "sim", "hierarchy", "cache", "inclusion", "core", "arena",
    "instr", "kernel", "energy", "exec", "analysis", "obs", "telemetry",
    "builtins",
)

# (name, unit, better)
PER_LAYER = (
    ("ops_failed_frac", "fraction", "lower"),
    # the untraced passes' raw host times, and the host's slowdown then
    ("wall_s", "s", "lower"),
    ("refs_per_s", "refs/s", "higher"),
    ("host.slowdown", "x", "lower"),
    ("sim.runs", "count", "lower"),
    ("sim.refs", "refs", "lower"),
    ("sim.us_per_ref", "us", "lower"),
    ("sim.init_ms", "ms", "lower"),
    ("sim.redundant_runs", "count", "lower"),
    ("hierarchy.access_calls", "count", "lower"),
    ("hierarchy.access_us", "us", "lower"),
    ("kernel.runs", "count", "higher"),
    ("kernel.us_per_ref", "us", "lower"),
    ("energy.compute_calls", "count", "lower"),
    ("energy.compute_us", "us", "lower"),
    ("workloads.build_ms", "ms", "lower"),
    ("workloads.batch_s", "s", "lower"),
    ("exec.jobs", "count", "higher"),
    ("exec.cache_hits", "count", "higher"),
    ("exec.cache_misses", "count", "lower"),
    ("exec.cache_hit_frac", "fraction", "higher"),
    ("exec.cache_get_ms", "ms", "lower"),
    ("exec.deserialize_ms", "ms", "lower"),
    ("exec.cache_put_ms", "ms", "lower"),
    ("exec.serialize_ms", "ms", "lower"),
    ("exec.batch_s", "s", "lower"),
    ("exec.worker_busy_frac", "fraction", "higher"),
    ("exec.retries", "count", "lower"),
    *((f"analysis.{name}_s", "s", "lower") for name, _, _ in FIGURES),
    *((f"{pkg}.calls_per_ref", "calls/ref", "lower") for pkg in PACKAGES),
    *((f"{pkg}.self_share", "fraction", "lower") for pkg in PACKAGES),
    ("trace.overhead_frac", "fraction", "lower"),
    ("trace.profile_overhead_frac", "fraction", "lower"),
)

#: per-layer counts that must repeat exactly between two traced passes
DETERMINISTIC = (
    "sim.runs", "sim.redundant_runs", "sim.refs", "hierarchy.access_calls",
    "kernel.runs", "energy.compute_calls", "exec.cache_hits",
    *(f"{pkg}.calls_per_ref" for pkg in PACKAGES),
)


def requested_refs(workload: str) -> int:
    """References one pass asks for, however they end up being served."""
    if workload == "fig-grid":
        return sum(cells for _, _, cells in FIGURES) * FIG_REFS * FIG_CORES
    cells = len(SWEEP_MIXES) * len(SWEEP_POLICIES)
    return cells * SWEEP_REFS * SWEEP_CORES * SWEEP_REPEATS


def jobs_per_pass(workload: str) -> int:
    """Checked jobs in one pass (a figure call, or one sweep cell)."""
    if workload == "fig-grid":
        return len(FIGURES)
    return len(SWEEP_MIXES) * len(SWEEP_POLICIES) * SWEEP_REPEATS


def benchmark_json(run_seconds: int) -> dict:
    """The repository's ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
