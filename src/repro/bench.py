"""Hot-path throughput benchmarking of the two simulation engines.

One bench run measures the probe-free simulation rate (accesses/sec,
best of ``reps`` to shed scheduler noise) for each requested policy on
both engines — the generic per-access loop and the batched kernel — and
appends the result as one timestamped, engine-tagged entry to
``BENCH_hotpath.json``. The entry format is
append-only history: re-running the bench never overwrites earlier
measurements, so before/after comparisons across refactors stay in the
file (ROADMAP item 1 asks exactly for that record).

File schema (version 2)::

    {
      "schema": 2,
      "legacy": {...},          # the pre-refactor flat record, if any
      "entries": [
        {
          "timestamp": "2026-08-08T12:34:56Z",
          "workload": "WL1", "refs_per_core": 30000, "reps": 5,
          "engines": ["generic", "kernel"],
          "accesses_per_sec": {"lap": {"generic": 101873, "kernel": 317849}},
          "speedup_kernel_vs_generic": {"lap": 3.12},
          ...
        }, ...
      ]
    }

A version-1 file (one flat dict, no ``entries``) is migrated in place
on first append: the old record moves under ``"legacy"``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Sequence, Union

from .sim.simulator import Simulator
from .sim.system import SystemConfig
from .utils import atomic_write

#: the kernel-eligible policies the hot-path bench tracks by default —
#: one per batched-kernel mode (non-inclusion, exclusion, LAP).
BENCH_POLICIES = ("non-inclusive", "exclusive", "lap")

#: the engines every bench entry measures, in column order.
ENGINES = ("generic", "kernel")

DEFAULT_REFS = 30_000
DEFAULT_REPS = 5


def measure_throughput(
    system: SystemConfig,
    policy: str,
    workload_name: str = "WL1",
    refs_per_core: int = DEFAULT_REFS,
    reps: int = DEFAULT_REPS,
    seed: int = 7,
    kernel: bool = True,
) -> float:
    """Best-of-``reps`` accesses/sec for one (policy, system).

    Each rep builds a fresh simulator (cold caches — the measurement is
    of the engine, not of a warmed state) and times ``Simulator.run``
    wall-to-wall, workload generation included. Best-of is deliberate:
    the floor of a throughput measurement is noise, the ceiling is the
    engine. ``kernel=False`` forces the generic loop on runs the batched
    kernel could take.
    """
    from .workloads.mixes import make_table3_mix

    best = 0.0
    for _ in range(max(1, reps)):
        workload = make_table3_mix(workload_name, system.scale_context(), seed=seed)
        sim = Simulator(system, policy, workload)
        sim.enable_batch_kernel = kernel
        start = time.perf_counter()
        sim.run(refs_per_core)
        elapsed = time.perf_counter() - start
        rate = (refs_per_core * workload.ncores) / elapsed
        if rate > best:
            best = rate
    return best


def run_hotpath_bench(
    policies: Sequence[str] = BENCH_POLICIES,
    *,
    workload: str = "WL1",
    refs_per_core: int = DEFAULT_REFS,
    reps: int = DEFAULT_REPS,
    seed: int = 7,
) -> dict:
    """Measure every (policy, engine) cell and return one bench entry.

    Both engines run the same probe-free system; the ``generic`` column
    forces the per-access loop with ``Simulator.enable_batch_kernel =
    False``.
    """
    system = SystemConfig.scaled().probe_free()
    rates: Dict[str, Dict[str, int]] = {}
    for policy in policies:
        rates[policy] = {
            engine: round(
                measure_throughput(
                    system,
                    policy,
                    workload_name=workload,
                    refs_per_core=refs_per_core,
                    reps=reps,
                    seed=seed,
                    kernel=engine == "kernel",
                )
            )
            for engine in ENGINES
        }
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": workload,
        "refs_per_core": refs_per_core,
        "reps": reps,
        "seed": seed,
        "engines": list(ENGINES),
        "accesses_per_sec": rates,
        "speedup_kernel_vs_generic": {
            policy: round(rates[policy]["kernel"] / rates[policy]["generic"], 2)
            for policy in policies
        },
    }


def load_bench_file(path: Union[str, Path]) -> dict:
    """Read ``BENCH_hotpath.json`` in schema-2 form (migrating v1)."""
    path = Path(path)
    if not path.exists():
        return {"schema": 2, "entries": []}
    data = json.loads(path.read_text())
    if "entries" not in data:
        # Version-1 flat record: preserve it under "legacy".
        data = {"schema": 2, "legacy": data, "entries": []}
    data.setdefault("schema", 2)
    return data


def append_entry(path: Union[str, Path], entry: dict) -> dict:
    """Append one bench entry to ``path`` and return the full document.

    The write is crash-safe (:func:`~repro.utils.atomic_write`), so an
    interrupted bench run (ctrl-C, OOM-kill mid-write) can lose the
    temp file but never the history —
    ``BENCH_hotpath.json`` is the repo's only append-only perf record
    and a half-written JSON file would lose every prior entry.
    """
    path = Path(path)
    data = load_bench_file(path)
    data["entries"].append(entry)
    atomic_write(path, json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data


def entry_rows(entry: dict) -> List[list]:
    """Flatten one entry into (policy, engine..., speedup) table rows."""
    rows = []
    for policy, rates in sorted(entry["accesses_per_sec"].items()):
        row: List[object] = [policy]
        row += [rates.get(e, "-") for e in entry["engines"]]
        speed = entry.get("speedup_kernel_vs_generic", {}).get(policy)
        row.append(f"{speed:.2f}x" if speed is not None else "-")
        rows.append(row)
    return rows
