"""Smoke and value tests for every figure-assembly function.

Each paper figure's assembly code runs on a reduced workload subset.
Its rows are compared by value with ``tests/data/figure_golden.json``
and its structure is checked, so harness regressions are caught in the
fast test-suite rather than only during the long benchmark run.

The pinned calls live in :data:`CALLS`; after a deliberate change to a
figure's numbers, ``python tests/data/regen_figure_golden.py`` prints a
per-row diff and ``--write`` rewrites the golden file.
"""

import functools
import json
import pathlib

import pytest

import repro.analysis.figures as F
from repro.exec import JobSpec, ResultCache, WorkloadSpec, set_active_cache
from repro.sim import SystemConfig
from repro.sim.simulator import Simulator

REFS = 2000
MIXES = ("WL3", "WH5")
GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "figure_golden.json"

#: name -> (figure function, keyword arguments), pinned by value
CALLS = {
    "fig2": ("fig2_motivation", {"refs": REFS, "benchmarks": ("libquantum",)}),
    "fig4": ("fig4_loop_blocks", {"refs": REFS, "benchmarks": ("omnetpp", "lbm")}),
    "fig6": ("fig6_redundant_fill", {"refs": REFS, "benchmarks": ("omnetpp", "lbm")}),
    "fig12": ("fig12_noni_vs_ex", {"refs": REFS, "mixes": MIXES}),
    "fig13": ("fig13_scatter", {"refs": REFS, "mixes": MIXES}),
    "fig14": (
        "fig14_policy_comparison",
        {"refs": REFS, "mixes": MIXES, "policies": ("non-inclusive", "lap")},
    ),
    "fig15": ("fig15_write_breakdown", {"refs": REFS, "mixes": ("WL3",)}),
    "fig16": (
        "fig16_loop_occupancy",
        {"refs": REFS, "mixes": ("WH5",), "policies": ("non-inclusive", "lap")},
    ),
    "fig17": ("fig17_redundant_fill_mixes", {"refs": REFS, "mixes": MIXES}),
    "fig18": ("fig18_mpki", {"refs": REFS, "mixes": ("WL3",)}),
    "fig19": ("fig19_lap_variants", {"refs": REFS, "mixes": ("WH5",)}),
    "fig20": (
        "fig20_multithreaded",
        {"refs": 1200, "benchmarks": ("dedup",), "policies": ("non-inclusive", "lap")},
    ),
    "fig21": (
        "fig21_capacity_ratio",
        {"refs": 1200, "mixes": ("WL3",), "policies": ("non-inclusive", "lap")},
    ),
    "fig22": ("fig22_core_count", {"refs": 1200, "policies": ("non-inclusive", "lap")}),
    "fig23": ("fig23_energy_ratio", {"refs": 1200, "ratios": (2, 25), "mixes": ("WL3",)}),
    "fig24": (
        "fig24_hybrid",
        {"refs": REFS, "mixes": ("WL3",), "policies": ("non-inclusive", "lhybrid")},
    ),
    "fig25": (
        "fig25_lhybrid_stages",
        {"refs": REFS, "mixes": ("WL3",), "policies": ("lap", "lhybrid")},
    ),
}


def plain(value):
    """Figure output as JSON-shaped data (tuples become lists)."""
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value


@functools.lru_cache(maxsize=None)
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def compute(name: str):
    """Run one pinned call and return the figure's raw output."""
    fn, kwargs = CALLS[name]
    return getattr(F, fn)(**kwargs)


def figure(name: str):
    """Run one pinned call; its rows must equal the golden exactly."""
    out = compute(name)
    assert plain(out) == golden()[name], (
        f"{name} rows differ from {GOLDEN_PATH.name}; "
        "run tests/data/regen_figure_golden.py for the per-row diff"
    )
    return out


def test_every_call_is_pinned():
    assert set(golden()) == set(CALLS)


class TestMotivationFigures:
    def test_fig2(self):
        sram, stt = figure("fig2")
        assert set(sram) == set(stt) == {"libquantum"}
        assert stt["libquantum"]["ex_epi"] > 0
        assert "rel_writes" in stt["libquantum"]

    def test_fig4(self):
        rows = figure("fig4")
        assert set(rows) == {"omnetpp", "lbm"}
        assert 0 <= rows["omnetpp"]["loop_fraction"] <= 1

    def test_fig6(self):
        rows = figure("fig6")
        assert 0 <= rows["lbm"]["redundant_fill_fraction"] <= 1


class TestMixFigures:
    def test_fig12(self):
        sram, stt = figure("fig12")
        for rows in (sram, stt):
            assert set(rows) == set(MIXES)
        assert 0 < stt["WL3"]["noni_static_share"] < 1

    def test_fig13(self):
        rows = figure("fig13")
        assert set(rows) == set(MIXES)
        assert rows["WH5"]["favors_exclusion"] in (0.0, 1.0)

    def test_fig14(self):
        epi, dyn, perf = figure("fig14")
        for rows in (epi, dyn, perf):
            assert rows["WL3"]["non-inclusive"] == 1.0
        assert epi["WL3"]["lap"] > 0

    def test_fig15(self):
        rows = figure("fig15")
        assert rows["WL3/non-inclusive"]["total"] == 1.0
        assert set(rows) == {"WL3/non-inclusive", "WL3/exclusive", "WL3/lap"}

    def test_fig16(self):
        rows = figure("fig16")
        assert 0 <= rows["WH5"]["lap"] <= 1

    def test_fig17(self):
        rows = figure("fig17")
        assert set(rows) == set(MIXES)

    def test_fig18(self):
        rows = figure("fig18")
        assert rows["WL3"]["non-inclusive"] == 1.0

    def test_fig19(self):
        rows = figure("fig19")
        assert {"lap-lru", "lap-loop", "lap"} <= set(rows["WH5"])


class TestMultithreadedFigure:
    def test_fig20(self):
        energy, perf, snoop = figure("fig20")
        assert energy["dedup"]["non-inclusive"] == 1.0
        assert perf["dedup"]["lap"] > 0
        assert snoop["dedup"]["lap"] > 0


class TestSensitivityFigures:
    def test_fig21(self):
        rows = figure("fig21")
        assert set(rows) == {"L2:L3=1:8", "L2:L3=1:4", "L2:L3=1:2", "2x LLC"}

    def test_fig22(self):
        rows = figure("fig22")
        assert set(rows) == {"4-core", "8-core"}
        assert rows["8-core"]["lap"] > 0

    def test_fig23(self):
        curve, published = figure("fig23")
        assert set(curve) == {"ratio=2", "ratio=25"}
        assert published


class TestHybridFigures:
    def test_fig24(self):
        rows = figure("fig24")
        assert rows["WL3"]["lhybrid"] > 0

    def test_fig25(self):
        rows = figure("fig25")
        assert {"lap", "lhybrid"} == set(rows["WL3"])


@pytest.fixture
def sim_runs(monkeypatch):
    """Count ``Simulator.run`` calls, with no process-wide cache set."""
    calls = []
    real_run = Simulator.run

    def counting_run(self, *args, **kwargs):
        calls.append(self)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(Simulator, "run", counting_run)
    previous = set_active_cache(None)
    yield calls
    set_active_cache(previous)


class TestFigureMemo:
    def test_fig15_after_fig14_simulates_nothing(self, sim_runs):
        F.fig14_policy_comparison(
            refs=REFS, mixes=("WL3",), policies=("non-inclusive", "exclusive", "lap")
        )
        before = len(sim_runs)
        F.fig15_write_breakdown(refs=REFS, mixes=("WL3",))
        assert len(sim_runs) == before

    def test_active_cache_serves_warm_figures(self, sim_runs, tmp_path):
        set_active_cache(ResultCache(tmp_path))
        cold = F.fig18_mpki(refs=REFS, mixes=("WL3",))
        cold_runs = len(sim_runs)
        assert cold_runs == 3, "the in-memory memo is not consulted"
        warm = F.fig18_mpki(refs=REFS, mixes=("WL3",))
        assert len(sim_runs) == cold_runs
        assert warm == cold

    def test_cells_differing_outside_geometry_do_not_alias(self, sim_runs):
        """The memo keys on the whole JobSpec: systems that share the
        cache geometry but differ in pricing or instrumentation never
        serve each other's results."""
        spec = WorkloadSpec.mix("WL3")
        for system in (
            SystemConfig.scaled(),
            SystemConfig.scaled().probe_free(),
            SystemConfig.scaled(leakage_compensation=1.0),
        ):
            cell = F._grid({"WL3": (system, spec)}, ("lap",), 1000)["WL3"]["lap"]
            assert cell == JobSpec(system, spec, "lap", 1000).run()


class TestFig21FixedWorkloads:
    def test_workloads_do_not_rescale_with_swept_llc(self):
        """Fig. 21's sweep must hold workload footprints fixed: the same
        mix built for the 2x-LLC config and the baseline config must be
        identical streams (regions sized from the baseline geometry)."""
        import numpy as np

        from repro.sim import SystemConfig
        from repro.workloads.mixes import make_table3_mix

        base_ctx = SystemConfig.scaled().scale_context()
        wl_a = make_table3_mix("WL3", base_ctx, seed=0)
        wl_b = make_table3_mix("WL3", base_ctx, seed=0)
        a = wl_a.generators[0].batch(500)[0]
        b = wl_b.generators[0].batch(500)[0]
        assert (np.asarray(a) == np.asarray(b)).all()
        # and a context from the 2x system gives a DIFFERENT stream,
        # which is exactly what fig21 must avoid using
        big_ctx = SystemConfig.scaled(llc_kb=256).scale_context()
        wl_c = make_table3_mix("WL3", big_ctx, seed=0)
        c = wl_c.generators[0].batch(500)[0]
        assert (np.asarray(a) != np.asarray(c)).any()
