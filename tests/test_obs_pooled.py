"""A pooled run is recorded like a serial one, and repro.obs is the one
observability package: worker spans and metric deltas ship back with
each pooled job, ``MetricsRegistry.merge`` and ``SpanRecorder.adopt``
graft them in, and the light ``repro.obs`` import stays light."""

import collections
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import main
from repro.errors import TelemetryError
from repro.obs import (
    MetricsRegistry,
    SpanRecorder,
    install_recorder,
    set_registry,
    span,
    uninstall_recorder,
)

SWEEP = [
    "sweep", "--workloads", "WL1,WH1", "--policies", "non-inclusive,lap",
    "--refs", "2000",
]


def _sweep(tmp_path, jobs):
    """Run the 4-job CLI sweep with ``--jobs N``; return (spans, snapshot)."""
    spans = tmp_path / f"spans{jobs}.jsonl"
    metrics = tmp_path / f"metrics{jobs}.json"
    previous = set_registry(MetricsRegistry())
    try:
        code = main([
            "--spans", str(spans), "--metrics", str(metrics),
            "--jobs", str(jobs), *SWEEP,
        ])
    finally:
        set_registry(previous)
    assert code == 0
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    return records, json.loads(metrics.read_text())


def _span_multiset(records):
    """(name, parent name, attrs) per span; ``max_workers`` is the knob
    under test, and no attr carries timing."""
    names = {s["id"]: s["name"] for s in records}
    return collections.Counter(
        (
            s["name"],
            names.get(s["parent"]),
            json.dumps(
                {k: v for k, v in s["attrs"].items() if k != "max_workers"},
                sort_keys=True,
            ),
        )
        for s in records
    )


class TestPooledMatchesSerial:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("pooled")
        return _sweep(tmp_path, 1), _sweep(tmp_path, 2)

    def test_spans_match(self, runs):
        (serial, _), (pooled, _) = runs
        assert len(serial) == 9
        assert _span_multiset(pooled) == _span_multiset(serial)

    def test_worker_spans_are_reidentified_and_indexed(self, runs):
        _, (pooled, _) = runs
        ids = [s["id"] for s in pooled]
        assert len(set(ids)) == len(ids)
        (batch,) = [s for s in pooled if s["name"] == "exec.batch"]
        jobs = [s for s in pooled if s["name"] == "exec.job"]
        assert {s["parent"] for s in jobs} == {batch["id"]}
        assert sorted(s["attrs"]["index"] for s in jobs) == [0, 1, 2, 3]

    def test_counters_match(self, runs):
        (_, serial), (_, pooled) = runs
        assert serial["counters"]["sim.runs"] == 4
        assert pooled["counters"] == serial["counters"]

    def test_histogram_counts_match(self, runs):
        (_, serial), (_, pooled) = runs

        def counts(snap):
            return {k: v["count"] for k, v in snap["histograms"].items()}

        assert counts(pooled) == counts(serial)


class TestMetricsMerge:
    def test_counters_add_and_are_created_at_zero(self):
        reg = MetricsRegistry()
        reg.counter("sim.runs").inc(2)
        reg.merge({"counters": {"sim.runs": 3, "hierarchy.mem_writes": 0}})
        assert reg.snapshot()["counters"] == {"hierarchy.mem_writes": 0, "sim.runs": 5}

    def test_histograms_add_counts_sums_buckets_and_widen(self):
        worker = MetricsRegistry()
        for v in (0.003, 0.4):
            worker.histogram("sim.wall_s").observe(v)
        parent = MetricsRegistry()
        parent.histogram("sim.wall_s").observe(0.02)
        parent.merge(worker.snapshot())
        h = parent.snapshot()["histograms"]["sim.wall_s"]
        direct = MetricsRegistry()
        for v in (0.02, 0.003, 0.4):
            direct.histogram("sim.wall_s").observe(v)
        assert h == direct.snapshot()["histograms"]["sim.wall_s"]
        assert (h["count"], h["min"], h["max"]) == (3, 0.003, 0.4)

    def test_empty_histogram_is_created(self):
        reg = MetricsRegistry()
        reg.merge(MetricsRegistry().snapshot())
        assert len(reg) == 0
        worker = MetricsRegistry()
        worker.histogram("exec.job_wall_s")
        reg.merge(worker.snapshot())
        assert reg.snapshot()["histograms"]["exec.job_wall_s"]["count"] == 0

    def test_gauges_are_not_merged(self):
        worker = MetricsRegistry()
        worker.gauge("serve.queue_depth").set(7)
        reg = MetricsRegistry()
        reg.merge(worker.snapshot())
        assert reg.snapshot()["gauges"] == {}

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("sim.runs")
        with pytest.raises(TelemetryError, match="is a Histogram"):
            reg.merge({"counters": {"sim.runs": 1}})

    def test_unknown_bucket_label_raises_without_mutating(self):
        reg = MetricsRegistry()
        reg.histogram("h").observe(1.0)
        before = reg.snapshot()
        bad = {"count": 1, "sum": 3.0, "min": 3.0, "max": 3.0, "buckets": {"3e+00": 1}}
        with pytest.raises(TelemetryError, match="unknown bucket"):
            reg.merge({"histograms": {"h": bad}})
        assert reg.snapshot() == before


class TestSpanAdopt:
    def teardown_method(self):
        uninstall_recorder()

    def test_adopt_reids_reparents_and_tags_roots(self):
        worker = SpanRecorder()
        install_recorder(worker)
        with span("exec.job", policy="lap"):
            with span("simulate"):
                pass
        shipped = worker.drain()
        parent = SpanRecorder()
        install_recorder(parent)
        with span("exec.batch"):
            with span("other"):
                pass
            parent.adopt(shipped, index=3)
        by_name = {s["name"]: s for s in parent.spans()}
        ids = [s["id"] for s in parent.spans()]
        assert len(set(ids)) == len(ids) == 4
        assert by_name["exec.job"]["parent"] == by_name["exec.batch"]["id"]
        assert by_name["simulate"]["parent"] == by_name["exec.job"]["id"]
        assert by_name["exec.job"]["attrs"] == {"policy": "lap", "index": 3}
        assert by_name["simulate"]["attrs"] == {}
        # the shipped records are not mutated
        assert shipped[1]["attrs"] == {"policy": "lap"}


class TestOnePackage:
    def _run(self, code):
        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=False, env=env,
        )

    def test_exec_import_skips_report_modules(self):
        proc = self._run(
            "import sys, repro.exec\n"
            "print(sorted(m for m in ('repro.obs.ledger', 'repro.obs.dashboard',"
            " 'repro.obs.trend') if m in sys.modules))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("retired", ["telemetry"])
    def test_retired_package_is_gone(self, retired):
        proc = self._run(
            "import importlib\n"
            "try:\n"
            f"    importlib.import_module('repro.{retired}')\n"
            "except ModuleNotFoundError:\n"
            "    print('gone')\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "gone"
