"""Tests for the parameter-sweep framework (sim.sweeps)."""

import pytest

from repro.errors import AnalysisError
from repro.sim import SystemConfig
from repro.sim.runner import duplicate_builder
from repro.sim.sweeps import (
    Sweep,
    SweepRecord,
    load_csv,
    normalize_records,
    records_to_csv,
)


def small_sweep(policies=("non-inclusive", "lap"), refs=1200):
    system = SystemConfig.scaled(ncores=2, llc_kb=32, l2_kb=4)
    return Sweep(
        systems={"base": system},
        workloads={"mcf": duplicate_builder("mcf", ncores=2)},
        policies=policies,
        refs_per_core=refs,
    )


class TestSweepConstruction:
    def test_size(self):
        s = small_sweep(policies=("a", "b", "c"))
        assert s.size() == 3

    def test_empty_axes_rejected(self):
        with pytest.raises(AnalysisError):
            Sweep(systems={}, workloads={"w": duplicate_builder("mcf")}, policies=("lap",))

    def test_bad_refs_rejected(self):
        with pytest.raises(AnalysisError):
            Sweep(
                systems={"s": SystemConfig.scaled()},
                workloads={"w": duplicate_builder("mcf")},
                policies=("lap",),
                refs_per_core=0,
            )


class TestSweepExecution:
    @pytest.fixture(scope="class")
    def records(self):
        return small_sweep().run()

    def test_one_record_per_cell(self, records):
        assert len(records) == 2
        assert {r.policy for r in records} == {"non-inclusive", "lap"}

    def test_metrics_populated(self, records):
        for r in records:
            assert r.metrics["epi"] > 0
            assert r.metrics["mpki"] > 0

    def test_progress_callback(self):
        seen = []
        small_sweep(policies=("non-inclusive",)).run(progress=seen.append)
        assert len(seen) == 1
        assert isinstance(seen[0], SweepRecord)

    def test_normalize_records(self, records):
        norm = normalize_records(records, "llc_writes")
        cell = norm[("base", "mcf")]
        assert cell["non-inclusive"] == 1.0
        assert 0 < cell["lap"] < 1.5

    def test_normalize_missing_baseline(self, records):
        only_lap = [r for r in records if r.policy == "lap"]
        with pytest.raises(AnalysisError):
            normalize_records(only_lap, "epi")


class TestCSVRoundtrip:
    def test_roundtrip(self, tmp_path):
        records = small_sweep(policies=("non-inclusive",), refs=800).run()
        path = tmp_path / "sweep.csv"
        text = records_to_csv(records, path)
        assert "epi" in text.splitlines()[0]
        loaded = load_csv(path)
        assert len(loaded) == len(records)
        assert loaded[0].policy == records[0].policy
        assert loaded[0].metrics["epi"] == pytest.approx(records[0].metrics["epi"])

    def test_empty_records_rejected(self):
        with pytest.raises(AnalysisError):
            records_to_csv([])

    def test_missing_csv_rejected(self, tmp_path):
        with pytest.raises(AnalysisError):
            load_csv(tmp_path / "none.csv")


class TestLoadCSVHardening:
    HEADER = "system,workload,policy,epi,mpki"
    GOOD = "base,mcf,lap,1.5e-10,12.5"

    def write(self, tmp_path, *lines):
        path = tmp_path / "sweep.csv"
        path.write_text("\n".join((self.HEADER,) + lines) + "\n")
        return path

    def test_empty_metric_value_raises_naming_row(self, tmp_path):
        path = self.write(tmp_path, self.GOOD, "base,mcf,exclusive,,12.5")
        with pytest.raises(AnalysisError) as exc:
            load_csv(path)
        msg = str(exc.value)
        assert ":3:" in msg and "'epi'" in msg and "exclusive" in msg

    def test_short_row_raises_naming_row(self, tmp_path):
        path = self.write(tmp_path, "base,mcf,lap,1.5e-10")
        with pytest.raises(AnalysisError, match="mpki"):
            load_csv(path)

    def test_non_numeric_value_raises_naming_row(self, tmp_path):
        path = self.write(tmp_path, "base,mcf,lap,oops,12.5")
        with pytest.raises(AnalysisError, match="'oops'"):
            load_csv(path)

    def test_missing_meta_column_raises(self, tmp_path):
        path = self.write(tmp_path, ",mcf,lap,1.5e-10,12.5")
        with pytest.raises(AnalysisError, match="'system'"):
            load_csv(path)

    def test_skip_mode_drops_bad_rows(self, tmp_path):
        path = self.write(tmp_path, self.GOOD, "base,mcf,exclusive,,12.5", self.GOOD)
        records = load_csv(path, on_error="skip")
        assert len(records) == 2
        assert all(r.policy == "lap" for r in records)

    def test_unknown_on_error_rejected(self, tmp_path):
        path = self.write(tmp_path, self.GOOD)
        with pytest.raises(AnalysisError, match="on_error"):
            load_csv(path, on_error="ignore")


class TestInterruptedGrids:
    """A batch cut short by Ctrl-C reaches the caller of a grid runner
    as the interrupt, never as a grid with cells missing."""

    @pytest.fixture(autouse=True)
    def interrupt_second_job(self, monkeypatch):
        from repro.exec import JobSpec

        calls = {"n": 0}
        real_run = JobSpec.run

        def run(self):
            calls["n"] += 1
            if calls["n"] > 1:
                raise KeyboardInterrupt
            return real_run(self)

        monkeypatch.setattr(JobSpec, "run", run)

    def test_sweep(self):
        with pytest.raises(KeyboardInterrupt):
            small_sweep(refs=404).run()

    def test_run_policies(self):
        from repro.sim.runner import run_policies

        system = SystemConfig.scaled(ncores=2, llc_kb=32, l2_kb=4)
        with pytest.raises(KeyboardInterrupt):
            run_policies(
                system, ("non-inclusive", "lap"), duplicate_builder("mcf", ncores=2), 404
            )

    def test_figure_grid(self):
        import repro.analysis.figures as F

        with pytest.raises(KeyboardInterrupt):
            F.fig18_mpki(refs=404, mixes=("WL3",))
