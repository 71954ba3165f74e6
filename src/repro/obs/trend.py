"""Per-PR perf trajectory analysis over ``BENCH_hotpath.json``.

The bench file is append-only history (one timestamped entry per
``repro bench`` run); this module turns it into trends: for every
(policy, engine) cell, the series of accesses/sec across entries, the
latest value, the best *prior* value, and the percentage delta between
them. ``repro bench trend`` renders that as a table (or JSON) and, with
``--fail-on-regression PCT``, exits non-zero when any cell's latest
measurement sits more than PCT percent below its prior best — the
guard CI uses to keep the hot path from quietly decaying.

Comparing latest-vs-prior-best (not latest-vs-previous) is deliberate:
throughput measurements are best-of-N but still noisy, and a slow CI
host should not *reset* the baseline — a regression is only real when
the newest number cannot reach what the same cell has provably done
before, within the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..errors import TelemetryError


@dataclass
class TrendCell:
    """One (policy, engine) series across bench entries."""

    policy: str
    engine: str
    #: (timestamp, accesses/sec) in file (= chronological append) order.
    series: List[tuple] = field(default_factory=list)

    @property
    def latest(self) -> Optional[float]:
        return self.series[-1][1] if self.series else None

    @property
    def best_prior(self) -> Optional[float]:
        if len(self.series) < 2:
            return None
        return max(v for _, v in self.series[:-1])

    @property
    def delta_pct(self) -> Optional[float]:
        """Latest vs best prior, in percent (negative = slower)."""
        best = self.best_prior
        if best is None or not best:
            return None
        return (self.latest - best) / best * 100.0

    def regressed(self, threshold_pct: float) -> bool:
        delta = self.delta_pct
        return delta is not None and delta < -abs(threshold_pct)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "policy": self.policy,
            "engine": self.engine,
            "entries": len(self.series),
            "series": [{"timestamp": t, "accesses_per_sec": v}
                       for t, v in self.series],
            "latest": self.latest,
            "best_prior": self.best_prior,
            "delta_pct": self.delta_pct,
        }


def bench_trend(doc: Dict[str, Any]) -> List[TrendCell]:
    """Extract every (policy, engine) trend cell from a bench document.

    ``doc`` is the schema-2 shape :func:`repro.bench.load_bench_file`
    returns; a v1 ``legacy`` record (flat, engine-less) contributes a
    leading ``generic``-engine point when its rates are recoverable, so
    the trajectory reaches back past the schema migration.
    """
    if not isinstance(doc, dict):
        raise TelemetryError("bench trend needs the parsed BENCH_hotpath.json dict")
    cells: Dict[tuple, TrendCell] = {}

    def cell(policy: str, engine: str) -> TrendCell:
        key = (policy, engine)
        found = cells.get(key)
        if found is None:
            found = cells[key] = TrendCell(policy=policy, engine=engine)
        return found

    legacy = doc.get("legacy")
    if isinstance(legacy, dict):
        rates = legacy.get("accesses_per_sec")
        if isinstance(rates, dict):
            stamp = legacy.get("timestamp", "legacy")
            for policy, value in sorted(rates.items()):
                if isinstance(value, (int, float)):
                    cell(policy, "generic").series.append((stamp, float(value)))

    for entry in doc.get("entries", []):
        if not isinstance(entry, dict):
            continue
        stamp = entry.get("timestamp", "?")
        rates = entry.get("accesses_per_sec", {})
        if not isinstance(rates, dict):
            continue
        for policy in sorted(rates):
            per_engine = rates[policy]
            if not isinstance(per_engine, dict):
                continue
            for engine in sorted(per_engine):
                value = per_engine[engine]
                if isinstance(value, (int, float)):
                    cell(policy, engine).series.append((stamp, float(value)))

    return sorted(cells.values(), key=lambda c: (c.policy, c.engine))


def regressions(
    cells: List[TrendCell], threshold_pct: float
) -> List[TrendCell]:
    """The cells whose latest point regressed beyond the tolerance."""
    return [c for c in cells if c.regressed(threshold_pct)]


def trend_rows(cells: List[TrendCell], threshold_pct: Optional[float] = None) -> List[list]:
    """CLI table rows: policy, engine, n, latest, best prior, delta."""
    rows: List[list] = []
    for c in cells:
        delta = c.delta_pct
        verdict = "-"
        if delta is not None:
            verdict = f"{delta:+.1f}%"
            if threshold_pct is not None and c.regressed(threshold_pct):
                verdict += " REGRESSION"
        rows.append([
            c.policy,
            c.engine,
            len(c.series),
            round(c.latest) if c.latest is not None else "-",
            round(c.best_prior) if c.best_prior is not None else "-",
            verdict,
        ])
    return rows
