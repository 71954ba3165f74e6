"""Interruption semantics of execute_jobs: SIGINT/SIGTERM mid-batch
caches and manifest-logs the completed work, then re-raises
KeyboardInterrupt, so no caller ever receives a partial grid."""

import os
import signal

import pytest

from repro.exec import JobSpec, ResultCache, WorkloadSpec, execute_jobs
from repro.sim import SystemConfig
from repro.obs.profiling import RunManifest


def jobs(n=3, refs=400):
    return [
        JobSpec(
            system=SystemConfig.scaled(ncores=2, llc_kb=32, l2_kb=4),
            workload=WorkloadSpec.duplicate("mcf", ncores=2, seed=seed),
            policy="lap",
            refs_per_core=refs,
        )
        for seed in range(n)
    ]


def interrupt_on_call(monkeypatch, n_before_interrupt, exc=KeyboardInterrupt):
    """Let ``n_before_interrupt`` jobs run, then raise in the next one."""
    calls = {"n": 0}
    real_run = JobSpec.run

    def run(self):
        calls["n"] += 1
        if calls["n"] > n_before_interrupt:
            raise exc
        return real_run(self)

    monkeypatch.setattr(JobSpec, "run", run)
    return calls


class TestGracefulInterrupt:
    def test_interrupt_propagates(self, monkeypatch):
        calls = interrupt_on_call(monkeypatch, 1)
        with pytest.raises(KeyboardInterrupt):
            execute_jobs(jobs(3))
        assert calls["n"] == 2, "no job may start after the interrupt"

    def test_completed_jobs_are_cached_and_manifested(self, monkeypatch, tmp_path):
        batch = jobs(3)
        cache = ResultCache(tmp_path / "cache")
        interrupt_on_call(monkeypatch, 2)
        with pytest.raises(KeyboardInterrupt):
            execute_jobs(batch, cache=cache, manifest_dir=tmp_path)
        # the two finished jobs are in the shared cache...
        monkeypatch.undo()
        assert cache.get(batch[0]) is not None
        assert cache.get(batch[1]) is not None
        assert cache.get(batch[2]) is None
        # ...and the manifest records exactly the completed jobs
        manifest = RunManifest.load(tmp_path)
        assert len(manifest.jobs) == 2

    def test_interrupted_results_match_uninterrupted_prefix(self, monkeypatch):
        batch = jobs(3)
        clean = execute_jobs(batch)
        cache = ResultCache()
        interrupt_on_call(monkeypatch, 2)
        with pytest.raises(KeyboardInterrupt):
            execute_jobs(batch, cache=cache)
        monkeypatch.undo()
        partial = [cache.get(job) for job in batch[:2]]
        assert [r.to_dict() for r in partial] == [r.to_dict() for r in clean[:2]]

    def test_sigterm_is_bridged_to_graceful_shutdown(self, monkeypatch):
        """A supervisor's SIGTERM mid-batch behaves exactly like Ctrl-C:
        KeyboardInterrupt with the first job cached, no process death."""
        if not hasattr(signal, "SIGTERM") or os.name == "nt":
            pytest.skip("POSIX-only")
        calls = {"n": 0}
        real_run = JobSpec.run

        def run(self):
            calls["n"] += 1
            if calls["n"] == 2:
                os.kill(os.getpid(), signal.SIGTERM)
                # give the signal time to be delivered at a bytecode
                # boundary inside this (interruptible) loop
                for _ in range(10_000_000):
                    pass
                pytest.fail("SIGTERM was not bridged to KeyboardInterrupt")
            return real_run(self)

        monkeypatch.setattr(JobSpec, "run", run)
        batch = jobs(3)
        cache = ResultCache()
        with pytest.raises(KeyboardInterrupt):
            execute_jobs(batch, cache=cache)
        monkeypatch.undo()
        assert cache.get(batch[0]) is not None
        assert cache.get(batch[1]) is None

    def test_clean_run_is_unflagged(self):
        from repro.obs.metrics import MetricsRegistry, set_registry

        previous = set_registry(MetricsRegistry())
        try:
            outcome = execute_jobs(jobs(2))
            from repro.obs.metrics import get_registry

            assert len(outcome) == len(outcome.profiles) == 2
            assert get_registry().counter("exec.interrupted").value == 0
        finally:
            set_registry(previous)

    def test_interrupt_counted_in_metrics(self, monkeypatch):
        from repro.obs.metrics import MetricsRegistry, set_registry

        previous = set_registry(MetricsRegistry())
        try:
            interrupt_on_call(monkeypatch, 1)
            with pytest.raises(KeyboardInterrupt):
                execute_jobs(jobs(2))
            from repro.obs.metrics import get_registry

            assert get_registry().counter("exec.interrupted").value == 1
        finally:
            set_registry(previous)
