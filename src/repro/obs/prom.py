"""Prometheus text-exposition encoding of the metrics registry.

:func:`render_prometheus` turns a registry snapshot (the JSON shape
``MetricsRegistry.snapshot`` produces) into the Prometheus text format
(version 0.0.4): counters become ``<name>_total``, gauges stay plain,
and the fixed 1-2-5 log-ladder histograms become cumulative
``_bucket{le="..."}`` series with ``_sum`` and ``_count`` — the shape
every Prometheus scraper, including promtool, parses. ``repro serve``
exposes it at ``/metrics?format=prom`` (JSON stays the default).

Only stdlib; no client library. The format is small enough to emit by
hand and doing so keeps the dependency budget at zero:

- metric names are sanitised to ``[a-zA-Z_:][a-zA-Z0-9_:]*`` (dots
  become underscores) and prefixed (default ``repro_``) so they cannot
  collide with other exporters on a shared Prometheus;
- one ``# HELP`` and one ``# TYPE`` line precede each metric family;
- histogram buckets are emitted cumulatively in ladder order with a
  terminal ``+Inf`` bucket equal to ``_count`` (the invariant scrapers
  check first).
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Mapping, Optional, Union

from ..errors import TelemetryError
from .metrics import (
    BUCKET_BOUNDS,
    BUCKET_LABELS,
    OVERFLOW_LABEL,
    MetricsRegistry,
)

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

DEFAULT_PREFIX = "repro_"

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_NAME_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")

#: label -> upper bound, for turning snapshot bucket labels back into
#: the numeric ``le`` values Prometheus expects.
_LABEL_TO_BOUND: Dict[str, float] = dict(zip(BUCKET_LABELS, BUCKET_BOUNDS))


def sanitize_name(name: str, prefix: str = DEFAULT_PREFIX) -> str:
    """A valid, prefixed Prometheus metric name for a registry name.

    ``serve.job_wall_s`` -> ``repro_serve_job_wall_s``. Raises when the
    input is empty or sanitises to nothing.
    """
    if not name or not isinstance(name, str):
        raise TelemetryError(f"metric names must be non-empty strings, got {name!r}")
    flat = _NAME_BAD_CHARS.sub("_", name)
    full = f"{prefix}{flat}"
    if not _NAME_OK.match(full):
        full = f"_{full}"
    return full


def _format_value(value: Union[int, float]) -> str:
    """Prometheus sample values: integers bare, floats via repr-ish %g."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return format(value, ".10g")


def _bound_label(label: str) -> str:
    """The ``le`` value for one snapshot bucket label (``"2e-03"`` -> ``2e-05``-style floats)."""
    if label == OVERFLOW_LABEL:
        return "+Inf"
    bound = _LABEL_TO_BOUND.get(label)
    if bound is None:
        raise TelemetryError(f"unknown histogram bucket label {label!r}")
    return format(bound, "g")


def _histogram_lines(
    name: str, data: Mapping[str, object]
) -> Iterable[str]:
    count = int(data.get("count", 0))
    total = float(data.get("sum", 0.0))
    buckets = data.get("buckets", {})
    if not isinstance(buckets, Mapping):
        raise TelemetryError(f"histogram {name!r} snapshot has no bucket mapping")
    cumulative = 0
    # Ladder order is authoritative; a snapshot only stores non-empty
    # buckets, so walk the full ladder and emit the ones present.
    for label in BUCKET_LABELS:
        if label in buckets:
            cumulative += int(buckets[label])
            yield f'{name}_bucket{{le="{_bound_label(label)}"}} {cumulative}'
    if OVERFLOW_LABEL in buckets:
        cumulative += int(buckets[OVERFLOW_LABEL])
    yield f'{name}_bucket{{le="+Inf"}} {cumulative}'
    yield f"{name}_sum {_format_value(total)}"
    yield f"{name}_count {count}"


def render_prometheus(
    source: Union[MetricsRegistry, Mapping[str, Mapping]],
    prefix: str = DEFAULT_PREFIX,
    extra_gauges: Optional[Mapping[str, Union[int, float]]] = None,
) -> str:
    """The full exposition document for a registry (or its snapshot).

    ``extra_gauges`` lets a caller append point-in-time values that are
    not registry instruments (server uptime, job-state counts) without
    mutating the registry; keys are sanitised like registry names.
    """
    if isinstance(source, MetricsRegistry):
        snapshot = source.snapshot()
    elif isinstance(source, Mapping):
        snapshot = source
    else:
        raise TelemetryError(
            "render_prometheus needs a MetricsRegistry or a snapshot dict, "
            f"got {type(source).__name__}"
        )
    lines: List[str] = []

    def emit(name: str, kind: str, help_text: str, samples: Iterable[str]) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(samples)

    for raw, value in sorted(dict(snapshot.get("counters", {})).items()):
        name = sanitize_name(raw, prefix) + "_total"
        emit(name, "counter", f"repro counter {raw}",
             [f"{name} {_format_value(value)}"])
    gauges = dict(snapshot.get("gauges", {}))
    for raw, value in sorted(gauges.items()):
        name = sanitize_name(raw, prefix)
        emit(name, "gauge", f"repro gauge {raw}",
             [f"{name} {_format_value(value)}"])
    for raw, value in sorted(dict(extra_gauges or {}).items()):
        name = sanitize_name(raw, prefix)
        emit(name, "gauge", f"repro gauge {raw}",
             [f"{name} {_format_value(float(value))}"])
    for raw, data in sorted(dict(snapshot.get("histograms", {})).items()):
        name = sanitize_name(raw, prefix)
        emit(name, "histogram", f"repro histogram {raw}",
             _histogram_lines(name, data))
    return "\n".join(lines) + "\n" if lines else ""


# ----------------------------------------------------------------------
# line-format checking (tests, and a cheap self-check for callers)
# ----------------------------------------------------------------------
_COMMENT_RE = re.compile(r"# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* \S.*\Z")
_SAMPLE_RE = re.compile(
    r"[a-zA-Z_:][a-zA-Z0-9_:]*"            # metric name
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"'  # first label
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})?'  # more labels
    r" (NaN|[+-]?Inf|[+-]?[0-9]*\.?[0-9]+([eE][+-]?[0-9]+)?)"  # value
    r"( [0-9]+)?\Z"                         # optional timestamp
)


def check_exposition(text: str) -> List[str]:
    """Line-format problems in a rendered document (empty = clean).

    Not a full Prometheus parser — a line grammar check that catches
    the realistic failure modes (bad names, unquoted labels, malformed
    values) so the test suite can hold :func:`render_prometheus` to
    the format without a scraper in the loop.
    """
    problems: List[str] = []
    for n, line in enumerate(text.splitlines(), 1):
        if not line:
            problems.append(f"line {n}: blank line inside exposition")
            continue
        if line.startswith("#"):
            if not _COMMENT_RE.match(line):
                problems.append(f"line {n}: malformed comment: {line!r}")
            continue
        if not _SAMPLE_RE.match(line):
            problems.append(f"line {n}: malformed sample: {line!r}")
    return problems
