"""Tests for Prometheus text exposition (repro.obs.prom)."""

import pytest

from repro.errors import TelemetryError
from repro.obs.prom import (
    CONTENT_TYPE,
    check_exposition,
    render_prometheus,
    sanitize_name,
)
from repro.obs.metrics import MetricsRegistry


def populated_registry() -> MetricsRegistry:
    r = MetricsRegistry()
    r.counter("exec.jobs").inc(7)
    r.counter("serve.backpressure").inc()
    r.gauge("serve.queue_depth").set(3)
    r.gauge("serve.inflight").set(1.5)
    h = r.histogram("sim.wall_s")
    for v in (0.0015, 0.0015, 0.04, 7_000_000, 1e12):
        h.observe(v)
    return r


class TestSanitize:
    def test_dots_become_underscores_with_prefix(self):
        assert sanitize_name("serve.job_wall_s") == "repro_serve_job_wall_s"

    def test_custom_prefix(self):
        assert sanitize_name("a.b", prefix="x_") == "x_a_b"

    def test_rejects_empty(self):
        with pytest.raises(TelemetryError):
            sanitize_name("")


class TestRender:
    def test_counters_get_total_suffix(self):
        text = render_prometheus(populated_registry())
        assert "# TYPE repro_exec_jobs_total counter" in text
        assert "repro_exec_jobs_total 7" in text

    def test_gauges_render_plain(self):
        text = render_prometheus(populated_registry())
        assert "# TYPE repro_serve_queue_depth gauge" in text
        assert "repro_serve_queue_depth 3" in text
        assert "repro_serve_inflight 1.5" in text

    def test_histogram_buckets_are_cumulative_with_inf(self):
        text = render_prometheus(populated_registry())
        lines = text.splitlines()
        buckets = [l for l in lines if l.startswith("repro_sim_wall_s_bucket")]
        # ladder order, cumulative counts: 2 at 2e-3, +1 at 5e-2 (0.04
        # rounds up to the 5e-2 bound), +1 at 1e7, +Inf = everything.
        assert 'le="0.002"} 2' in buckets[0]
        assert buckets[-1] == 'repro_sim_wall_s_bucket{le="+Inf"} 5'
        counts = [int(l.rsplit(" ", 1)[1]) for l in buckets]
        assert counts == sorted(counts), "bucket series must be cumulative"
        assert "repro_sim_wall_s_count 5" in text
        assert "repro_sim_wall_s_sum" in text

    def test_inf_bucket_equals_count_even_without_overflow(self):
        r = MetricsRegistry()
        r.histogram("h").observe(0.5)
        text = render_prometheus(r)
        assert 'repro_h_bucket{le="+Inf"} 1' in text
        assert "repro_h_count 1" in text

    def test_accepts_snapshot_dict(self):
        snap = populated_registry().snapshot()
        assert render_prometheus(snap) == render_prometheus(populated_registry())

    def test_rejects_other_sources(self):
        with pytest.raises(TelemetryError):
            render_prometheus([1, 2, 3])

    def test_extra_gauges_appended(self):
        text = render_prometheus(
            MetricsRegistry(), extra_gauges={"serve.uptime_s": 12.5}
        )
        assert "repro_serve_uptime_s 12.5" in text

    def test_empty_registry_renders_empty_document(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_every_metric_has_help_and_type(self):
        text = render_prometheus(populated_registry())
        names = {
            line.split()[0]
            for line in text.splitlines()
            if line and not line.startswith("#")
        }
        families = {n.split("{")[0] for n in names}
        for family in families:
            base = family
            for suffix in ("_bucket", "_sum", "_count"):
                if base.endswith(suffix) and f"# TYPE {base}" not in text:
                    base = base[: -len(suffix)]
            assert f"# HELP {base} " in text
            assert f"# TYPE {base} " in text

    def test_content_type_is_prometheus_0_0_4(self):
        assert "version=0.0.4" in CONTENT_TYPE


class TestExpositionFormat:
    """The acceptance check: the document parses under the line grammar."""

    def test_rendered_document_is_clean(self):
        text = render_prometheus(
            populated_registry(),
            extra_gauges={"serve.uptime_s": 3.25, "serve.jobs": 4},
        )
        assert check_exposition(text) == []

    def test_checker_catches_malformed_lines(self):
        problems = check_exposition("9leading_digit 1")
        assert problems, "names cannot start with a digit"
        problems = check_exposition("name_no_value")
        assert problems
        problems = check_exposition('ok{label="x"} not_a_number')
        assert problems

    def test_checker_accepts_labels_nan_and_inf(self):
        doc = (
            "# HELP m h\n"
            "# TYPE m gauge\n"
            'm{le="+Inf"} 4\n'
            "m_nan NaN\n"
            "m_inf +Inf\n"
        )
        assert check_exposition(doc) == []


class TestServeEndpoint:
    """/metrics?format=prom over real TCP (raw http.client: the client
    helper JSON-decodes, and this response is text/plain)."""

    def _fetch(self, port, target):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.request("GET", target)
            resp = conn.getresponse()
            return resp.status, resp.getheader("Content-Type"), resp.read()
        finally:
            conn.close()

    def test_prom_format_served_and_parses(self, tmp_path):
        from repro.exec import ResultCache
        from repro.serve import ServeConfig, ServeClient, serve_in_thread
        from repro.obs.metrics import MetricsRegistry, set_registry

        previous = set_registry(MetricsRegistry())
        try:
            config = ServeConfig(
                port=0, cache=ResultCache(tmp_path / "cache"),
                heartbeat_interval=None,
            )
            with serve_in_thread(config) as handle:
                from repro.exec import JobSpec, WorkloadSpec
                from repro.sim import SystemConfig

                job = JobSpec(
                    system=SystemConfig.scaled(ncores=2, llc_kb=32, l2_kb=4),
                    workload=WorkloadSpec.duplicate("mcf", ncores=2, seed=0),
                    policy="lap",
                    refs_per_core=300,
                )
                ServeClient(port=handle.port).run(job, timeout=120)
                status, ctype, body = self._fetch(
                    handle.port, "/metrics?format=prom"
                )
            assert status == 200
            assert ctype == CONTENT_TYPE
            text = body.decode("utf-8")
            assert check_exposition(text) == [], check_exposition(text)[:5]
            assert "repro_serve_completed_total 1" in text
            assert "repro_serve_queue_depth 0" in text
            assert "repro_serve_uptime_s" in text
            assert "repro_serve_jobs_done 1" in text
        finally:
            set_registry(previous)

    def test_json_stays_default_and_bad_format_is_400(self, tmp_path):
        import json as _json

        from repro.serve import ServeConfig, serve_in_thread
        from repro.obs.metrics import MetricsRegistry, set_registry

        previous = set_registry(MetricsRegistry())
        try:
            config = ServeConfig(port=0, heartbeat_interval=None)
            with serve_in_thread(config) as handle:
                status, ctype, body = self._fetch(handle.port, "/metrics")
                assert status == 200
                assert ctype == "application/json"
                payload = _json.loads(body)
                assert "registry" in payload and "serve" in payload
                status, _, _ = self._fetch(handle.port, "/metrics?format=xml")
                assert status == 400
        finally:
            set_registry(previous)
