"""repro.obs — the one observability package.

Where :mod:`repro.instr` observes one simulation from inside, this
package makes runs and grids observable: span tracing (``spans``), the
metrics registry and its Prometheus text (``metrics``, ``prom``), job
profiles and run manifests (``profiling``), and the flight recorder and
trace diffing (``trace``, ``diff``). All of it stays off the hot path.

This ``__init__`` pulls in only those light leaves, which the exec pool,
the simulator, the hierarchy and the serve layer import at module load.
``ledger``, ``dashboard`` and ``trend`` serve only ``repro report`` /
``repro bench trend`` and reach back into ``repro.exec``, so they stay
explicit submodule imports (``from repro.obs import ledger``) to keep
the import graph acyclic.
"""

from .diff import Divergence, TraceDiff, TraceSummary, diff_traces, summarize_trace
from .metrics import (
    BUCKET_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from .profiling import (
    MANIFEST_NAME,
    MANIFEST_SCHEMA_VERSION,
    SOURCE_CACHE,
    SOURCE_POOL,
    SOURCE_SERIAL,
    Heartbeat,
    JobProfile,
    RunManifest,
    peak_rss_kb,
)
from .prom import CONTENT_TYPE as PROM_CONTENT_TYPE
from .prom import check_exposition, render_prometheus, sanitize_name
from .spans import (
    SPANS_ENV,
    SPANS_NAME,
    SpanRecorder,
    current_recorder,
    install_recorder,
    read_spans,
    recorder_from_env,
    span,
    summarize_spans,
    tracing_enabled,
    uninstall_recorder,
)
from .trace import (
    EVENT_FIELDS,
    EVENT_GROUPS,
    EVENT_TYPES,
    TRACE_SCHEMA_VERSION,
    TraceProbe,
    TraceReader,
    read_events,
    record_simulation,
    resolve_events,
)

__all__ = [
    "BUCKET_BOUNDS",
    "Counter",
    "Divergence",
    "EVENT_FIELDS",
    "EVENT_GROUPS",
    "EVENT_TYPES",
    "Gauge",
    "Heartbeat",
    "Histogram",
    "JobProfile",
    "MANIFEST_NAME",
    "MANIFEST_SCHEMA_VERSION",
    "MetricsRegistry",
    "PROM_CONTENT_TYPE",
    "RunManifest",
    "SOURCE_CACHE",
    "SOURCE_POOL",
    "SOURCE_SERIAL",
    "SPANS_ENV",
    "SPANS_NAME",
    "SpanRecorder",
    "TRACE_SCHEMA_VERSION",
    "TraceDiff",
    "TraceProbe",
    "TraceReader",
    "TraceSummary",
    "check_exposition",
    "current_recorder",
    "diff_traces",
    "get_registry",
    "install_recorder",
    "peak_rss_kb",
    "read_events",
    "read_spans",
    "record_simulation",
    "recorder_from_env",
    "render_prometheus",
    "resolve_events",
    "sanitize_name",
    "set_registry",
    "span",
    "summarize_spans",
    "summarize_trace",
    "tracing_enabled",
    "uninstall_recorder",
]
