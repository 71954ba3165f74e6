"""Engine parity: the batched kernel must be bit-identical to the
generic per-access loop on the one tag-store layout.

DESIGN.md §13's parity criteria, as executable tests. Every comparison
runs one :class:`Simulator` twice, with ``enable_batch_kernel`` True and
False, and requires equality of the *entire* RunResult (stats, cycles,
energy inputs, dueling extras) and of the final tag-array state of
every cache (each block's fields, the per-set tag maps and loop
counters, the cache ticks):

1. **Fuzzer traces** — the phased traces of the invariant fuzzer,
   replayed through a Simulator on the micro hierarchy, also match a
   replay with the armed invariant checker (``run_trace``).
2. **Table III mixes** — every kernel policy, homogeneous and hybrid
   LLC, two back-to-back ``run()`` calls on one Simulator, and run
   lengths that are not a multiple of the batch.
3. **Engine selection** — the kernel runs exactly on probe-free,
   non-coherent runs under a policy it inlines.
"""

from __future__ import annotations

from dataclasses import asdict
from functools import partial

import pytest

from repro.arena import registry
from repro.core.policies import make_policy
from repro.kernel import batch, batched_policy_names
from repro.sim.simulator import Simulator
from repro.sim.system import SystemConfig
from repro.testing import micro_hierarchy_config
from repro.validate import DEFAULT_POLICIES, generate_trace, run_trace
from repro.workloads.mixes import MULTIPROGRAMMED, Workload, make_table3_mix
from repro.workloads.trace import FixedTrace, MemRef

#: registered policies the batched kernel can run (derived from
#: ``kernel_mode``), so a policy the kernel learns joins the kernel
#: parity matrix automatically.
KERNEL_POLICIES = batched_policy_names()

#: duel cadence for the fuzz replays: short enough that set-dueling
#: policies decide many times within a few hundred LLC accesses.
FUZZ_DUEL_INTERVAL = 32


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count batched-kernel runs (the Simulator looks the entry point up
    on the module at call time)."""
    calls = []
    run_kernel = batch.run_kernel

    def spy(sim, refs_per_core, size):
        calls.append(refs_per_core)
        return run_kernel(sim, refs_per_core, size)

    monkeypatch.setattr(batch, "run_kernel", spy)
    return calls


def _snapshots(h):
    return (
        h.stats.snapshot(),
        h.llc.stats.snapshot(),
        [c.stats.snapshot() for c in h.l1s],
        [c.stats.snapshot() for c in h.l2s],
    )


def _tag_state(h):
    """Every cache's full tag-array state, block by block."""
    out = []
    for cache in (*h.l1s, *h.l2s, h.llc):
        out.append(cache._tick)
        for s in cache.sets:
            out.append(
                (
                    [
                        (b.tag, b.valid, b.dirty, b.loop_bit, b.last_access,
                         b.insert_seq, b.rrpv, b.state, b.tech)
                        for b in s.blocks
                    ],
                    {t: b.way for t, b in s.tag_map.items()},
                    s.loop_count,
                )
            )
            # the maps point at this set's own blocks, and the loop
            # counter agrees with a scan
            assert all(s.blocks[b.way] is b and b.tag == t for t, b in s.tag_map.items())
            assert s.loop_count == sum(1 for b in s.blocks if b.valid and b.loop_bit)
    return out


def _both_engines(build, refs_list):
    """Run ``build()``'s Simulator on each engine through ``refs_list``
    back-to-back runs; return per-engine (results, final state)."""
    out = {}
    for kernel in (True, False):
        sim = build()
        sim.enable_batch_kernel = kernel
        results = [asdict(sim.run(refs)) for refs in refs_list]
        out[kernel] = (results, _tag_state(sim.hierarchy), sim)
    return out


def _assert_parity(runs):
    assert runs[True][0] == runs[False][0]
    assert runs[True][1] == runs[False][1]


# ----------------------------------------------------------------------
# 1. fuzzer traces
# ----------------------------------------------------------------------
def _policy(name):
    """A fresh policy instance with the fuzz duel cadence, when it duels."""
    try:
        return make_policy(name, duel_interval=FUZZ_DUEL_INTERVAL)
    except TypeError:
        return make_policy(name)


def _round_robin(trace, ncores):
    """Split a fuzz trace into equal per-core streams; also return them
    re-interleaved in the Simulator's round-robin reference order."""
    streams = [[(a, w) for c, a, w in trace if c == core] for core in range(ncores)]
    n = min(len(s) for s in streams)
    streams = [s[:n] for s in streams]
    order = [(core, *streams[core][i]) for i in range(n) for core in range(ncores)]
    return streams, order


@pytest.mark.parametrize("policy", DEFAULT_POLICIES)
@pytest.mark.parametrize(
    "ncores,coherent", [(1, False), (2, False), (2, True)]
)
def test_fuzz_trace_parity(policy, ncores, coherent, kernel_calls):
    seed = DEFAULT_POLICIES.index(policy) * 10 + ncores * 2 + int(coherent)
    streams, order = _round_robin(generate_trace(seed, refs=1200, ncores=ncores), ncores)
    refs = len(streams[0])
    assert refs >= 200, "fuzz trace too lopsided to replay"
    sram_ways = 4 if registry.get(policy).hybrid_only else None
    system = SystemConfig(
        hierarchy=micro_hierarchy_config(ncores=ncores, sram_ways=sram_ways),
        instrumentation="none",
    )

    def build():
        gens = [FixedTrace([MemRef(a, w) for a, w in s]) for s in streams]
        workload = Workload("fuzz", MULTIPROGRAMMED, gens, ("fuzz",) * ncores)
        return Simulator(system, _policy(policy), workload, enable_coherence=coherent)

    runs = _both_engines(build, [refs // 3, refs - refs // 3])
    _assert_parity(runs)
    eligible = policy in KERNEL_POLICIES and not coherent
    assert len(kernel_calls) == (2 if eligible else 0)

    # The same references through run_trace, with the invariant checker
    # armed (a violation raises), leave the same cache stats and state.
    h_ref = run_trace(
        _policy(policy), order, ncores=ncores, enable_coherence=coherent,
        interval=16, sram_ways=sram_ways,
    )
    h_sim = runs[True][2].hierarchy
    assert _snapshots(h_ref) == _snapshots(h_sim)
    assert _tag_state(h_ref) == runs[True][1]
    if coherent:
        assert h_ref.coherence.stats == h_sim.coherence.stats


# ----------------------------------------------------------------------
# 2. Table III mixes
# ----------------------------------------------------------------------
def _mix_sim(policy, workload, *, hybrid=False, seed=11):
    system = SystemConfig.scaled(hybrid=hybrid).probe_free()
    w = make_table3_mix(workload, system.scale_context(), seed=seed)
    return Simulator(system, policy, w)


@pytest.mark.parametrize("policy", KERNEL_POLICIES)
@pytest.mark.parametrize("workload", ("WL1", "WH1"))
def test_runresult_parity_kernel(policy, workload, kernel_calls):
    """kernel == generic, entire RunResult and final state, on a
    homogeneous and a hybrid LLC."""
    for hybrid in (False, True):
        runs = _both_engines(partial(_mix_sim, policy, workload, hybrid=hybrid), [3000])
        _assert_parity(runs)
    # the kernel must actually have been exercised, not silently skipped
    assert kernel_calls == [3000, 3000]


@pytest.mark.parametrize("policy", KERNEL_POLICIES)
def test_back_to_back_runs_parity(policy, kernel_calls):
    """Two ``run()`` calls on one Simulator — the second checks out the
    state the first checked in — with lengths of 1 and 777 references
    (neither a multiple of the 4096 batch)."""
    for hybrid in (False, True):
        runs = _both_engines(partial(_mix_sim, policy, "WH5", hybrid=hybrid), [1, 777])
        _assert_parity(runs)
    assert kernel_calls == [1, 777, 1, 777]


@pytest.mark.parametrize("policy", registry.names())
def test_runresult_parity_generic(policy, kernel_calls):
    """Every registered policy, probe-free: equal RunResults with the
    kernel enabled and disabled, and the kernel engages exactly for the
    policies the registry declares batched. Parametrized over the
    registry, so a new policy is covered the moment it is registered."""
    hybrid = registry.get(policy).hybrid_only  # Lhybrid family needs SRAM ways
    runs = _both_engines(partial(_mix_sim, policy, "WH2", hybrid=hybrid, seed=3), [1500])
    _assert_parity(runs)
    assert len(kernel_calls) == (1 if policy in KERNEL_POLICIES else 0)


# ----------------------------------------------------------------------
# 3. engine selection
# ----------------------------------------------------------------------
def test_engine_selection(kernel_calls):
    """The kernel runs a probe-free, non-coherent lap run; inclusive,
    instrumented and coherent runs take the generic path."""
    probe_free = SystemConfig.scaled().probe_free()
    w = make_table3_mix("WL1", probe_free.scale_context(), seed=1)
    Simulator(probe_free, "lap", w).run(100)
    assert kernel_calls == [100]

    w = make_table3_mix("WL1", probe_free.scale_context(), seed=1)
    sim = Simulator(probe_free, "inclusive", w)
    assert not batch.eligible(sim.hierarchy)
    sim.run(100)

    instrumented = SystemConfig.scaled()
    w = make_table3_mix("WL1", instrumented.scale_context(), seed=1)
    sim = Simulator(instrumented, "lap", w)
    assert not batch.eligible(sim.hierarchy)
    sim.run(100)

    w = make_table3_mix("WL1", probe_free.scale_context(), seed=1)
    sim = Simulator(probe_free, "lap", w, enable_coherence=True)
    assert not batch.eligible(sim.hierarchy)
    sim.run(100)

    assert kernel_calls == [100]
