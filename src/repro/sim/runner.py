"""Experiment runner: one workload under several policies.

Trace generators are stateful streams, so comparing policies fairly
requires rebuilding the workload (same seed → bit-identical trace) for
every run. A :class:`~repro.exec.jobs.WorkloadSpec` is that recipe:
:func:`run_policies` lowers each (system, spec, policy) cell to a
:class:`~repro.exec.jobs.JobSpec` and runs the batch through
:func:`~repro.exec.pool.execute_jobs`, which consults the process-wide
result cache (see :func:`repro.exec.set_active_cache`) when one is set.
Larger grids are a :class:`~repro.sim.sweeps.Sweep`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

from ..errors import AnalysisError
from ..exec.jobs import JobSpec, WorkloadSpec
from .results import RunResult
from .system import SystemConfig

# Default reference count per core for harness runs; large enough for
# working sets to cycle through the scaled hierarchy several times.
DEFAULT_REFS = 120_000


def duplicate_builder(benchmark: str, ncores: int = 4, seed: int = 0) -> WorkloadSpec:
    """Spec for N duplicate copies of one benchmark (Figs. 2/4/6)."""
    return WorkloadSpec.duplicate(benchmark, ncores=ncores, seed=seed)


def mix_builder(mix_name: str, seed: int = 0) -> WorkloadSpec:
    """Spec for a Table III mix (WL1..WH5)."""
    return WorkloadSpec.mix(mix_name, seed=seed)


def benchmarks_builder(
    benchmarks: Sequence[str], seed: int = 0, name: str | None = None
) -> WorkloadSpec:
    """Spec for an arbitrary multiprogrammed combination."""
    return WorkloadSpec.multiprogrammed(benchmarks, seed=seed, name=name)


def multithreaded_builder(benchmark: str, nthreads: int = 4, seed: int = 0) -> WorkloadSpec:
    """Spec for a PARSEC-like multithreaded workload (Fig. 20)."""
    return WorkloadSpec.multithreaded(benchmark, nthreads=nthreads, seed=seed)


def run_policies(
    system: SystemConfig,
    policies: Iterable[str],
    workload: WorkloadSpec,
    refs_per_core: int = DEFAULT_REFS,
) -> Dict[str, RunResult]:
    """Run several policies against bit-identical copies of a workload.

    Returns ``{policy: result}`` keyed by the names as given. The probe
    list (instrumentation) is derived from ``system.instrumentation``
    by the simulator — run a ``system.probe_free()`` config for
    uninstrumented sweeps. The field is part of the content-addressed
    cache key, so instrumented and probe-free runs never alias.
    """
    # exec.cache imports this package (RunResult): import at call time.
    from ..exec.cache import get_active_cache
    from ..exec.pool import execute_jobs

    policies = list(policies)
    jobs = [
        JobSpec(system=system, workload=workload, policy=p, refs_per_core=refs_per_core)
        for p in policies
    ]
    outcome = execute_jobs(jobs, cache=get_active_cache())
    if outcome.interrupted:
        raise KeyboardInterrupt
    return dict(zip(policies, outcome))


def run_one(
    system: SystemConfig,
    policy: str,
    workload: WorkloadSpec,
    refs_per_core: int = DEFAULT_REFS,
) -> RunResult:
    """Simulate one (policy, workload) pair on a fresh hierarchy."""
    return run_policies(system, (policy,), workload, refs_per_core)[policy]


def normalized(
    results: Dict[str, RunResult],
    metric: str,
    baseline: str = "non-inclusive",
) -> Dict[str, float]:
    """Normalise a metric across policies to a baseline policy.

    ``metric`` names a :class:`RunResult` property (``"epi"``,
    ``"mpki"``, ``"throughput"``, ``"llc_writes"``, ...).
    """
    if baseline not in results:
        raise AnalysisError(
            f"baseline policy {baseline!r} missing from results "
            f"(have: {sorted(results)})"
        )
    base = getattr(results[baseline], metric)
    if base == 0:
        raise AnalysisError(
            f"cannot normalise {metric!r}: baseline {baseline!r} has zero {metric!r}"
        )
    return {name: getattr(r, metric) / base for name, r in results.items()}
