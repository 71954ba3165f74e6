"""Tests for the parallel execution engine (repro.exec.pool)."""

import pytest

from repro.errors import AnalysisError, ExecutionError, SimulationError
from repro.exec import JobSpec, WorkloadSpec, execute_jobs
from repro.sim import SystemConfig
from repro.sim.runner import duplicate_builder, mix_builder
from repro.sim.sweeps import Sweep


def small_system(**kwargs) -> SystemConfig:
    return SystemConfig.scaled(**{"ncores": 2, "llc_kb": 32, "l2_kb": 4, **kwargs})


def small_grid(refs=600) -> Sweep:
    """The satellite's 2-system x 2-workload x 2-policy determinism grid."""
    return Sweep(
        systems={
            "base": small_system(),
            "big": small_system(llc_kb=64, label="big"),
        },
        workloads={
            "mcf": duplicate_builder("mcf", ncores=2),
            "lbm": duplicate_builder("lbm", ncores=2, seed=3),
        },
        policies=("non-inclusive", "lap"),
        refs_per_core=refs,
    )


class TestDeterminism:
    def test_parallel_records_equal_serial(self):
        sweep = small_grid()
        serial = sweep.run()
        parallel = sweep.run(max_workers=4)
        assert len(serial) == sweep.size() == 8
        # same order, same labels, bit-identical metric values
        assert parallel == serial


class TestExecuteJobs:
    def jobs(self, n=3):
        return [
            JobSpec(
                system=small_system(),
                workload=WorkloadSpec.duplicate("mcf", ncores=2, seed=seed),
                policy="lap",
                refs_per_core=400,
            )
            for seed in range(n)
        ]

    def test_results_in_input_order(self):
        jobs = self.jobs()
        serial = execute_jobs(jobs, max_workers=1)
        parallel = execute_jobs(jobs, max_workers=3)
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]
        assert [r.workload for r in serial] == [j.workload.label for j in jobs]

    def test_rejects_non_jobs(self):
        with pytest.raises(ExecutionError):
            execute_jobs(["not a job"])

    def test_transient_failure_retried_once(self, monkeypatch):
        calls = {"n": 0}
        real_run = JobSpec.run

        def flaky_run(self):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("simulated transient worker failure")
            return real_run(self)

        monkeypatch.setattr(JobSpec, "run", flaky_run)
        [result] = execute_jobs(self.jobs(1))
        assert calls["n"] == 2
        assert result.epi > 0

    def test_persistent_failure_raises_execution_error(self, monkeypatch):
        def broken_run(self):
            raise RuntimeError("always broken")

        monkeypatch.setattr(JobSpec, "run", broken_run)
        with pytest.raises(ExecutionError, match="after 2 attempts"):
            execute_jobs(self.jobs(1))

    def test_library_errors_propagate_without_retry(self, monkeypatch):
        calls = {"n": 0}

        def doomed_run(self):
            calls["n"] += 1
            raise SimulationError("deterministic failure")

        monkeypatch.setattr(JobSpec, "run", doomed_run)
        with pytest.raises(SimulationError):
            execute_jobs(self.jobs(1))
        assert calls["n"] == 1, "ReproErrors are permanent: no retry"


class TestSweepSpecRequirement:
    def test_closure_builders_rejected_in_parallel_mode(self):
        closure = lambda ctx: duplicate_builder("mcf", ncores=2).build(ctx)  # noqa: E731
        sweep = Sweep(
            systems={"base": small_system()},
            workloads={"mcf": closure},
            policies=("lap",),
            refs_per_core=400,
        )
        with pytest.raises(ExecutionError, match="WorkloadSpec"):
            sweep.run(max_workers=2)
        # the serial path is the same execute_jobs batch: also rejected
        with pytest.raises(ExecutionError, match="WorkloadSpec"):
            sweep.run()


class TestBuilderSpecs:
    def test_builders_are_picklable_specs(self):
        import pickle

        for spec in (
            duplicate_builder("mcf", ncores=2),
            mix_builder("WH1", seed=2),
        ):
            assert isinstance(spec, WorkloadSpec)
            assert pickle.loads(pickle.dumps(spec)) == spec

    def test_spec_is_a_workload_builder(self):
        system = small_system()
        wl = duplicate_builder("mcf", ncores=2)(system.scale_context())
        assert wl.ncores == 2
        assert wl.name == "mcfx2"

    def test_normalized_raises_analysis_error(self):
        from repro.sim.runner import normalized, run_policies

        results = run_policies(
            small_system(), ("non-inclusive", "lap"), duplicate_builder("mcf", ncores=2), 400
        )
        norm = normalized(results, "llc_writes")
        assert norm["non-inclusive"] == 1.0
        with pytest.raises(AnalysisError, match="missing"):
            normalized(results, "epi", baseline="nonexistent")
        with pytest.raises(AnalysisError, match="zero"):
            normalized(results, "snoop_traffic")  # zero for multiprogrammed
