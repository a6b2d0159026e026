"""Versioned result schema for the perf harness.

Every artifact the harness writes — ``BENCH_<suite>.json`` documents
and the per-run archives under ``benchmarks/results/perf/`` — is built
from these three records.  The
on-disk layout is::

    {
      "schema": "repro.perf/1",
      "suite": "quick",
      "environment": {"python": ..., "numpy": ..., "git_sha": ...},
      "run_config": {"repeats": 3, "warmup": 1},
      "records": [
        {
          "scenario": "fig3_left@quick",
          "kind": "figure",
          "params": {"shape": [120, 120, 120], ...},
          "wall": {"repeats": 3, "warmup": 1, "min": ..., "median": ...,
                   "mean": ..., "stddev": ...},
          "metrics": {
            "socket/standard Jacobi": {"value": ..., "unit": "MLUP/s",
                                       "higher_is_better": true,
                                       "gate": true},
            ...
          }
        },
        ...
      ]
    }

``gate`` marks a metric as participating in the regression gate.  The
simulated throughputs from the calibrated DES are deterministic across
hosts, so they gate reliably; host-clock-derived metrics (real kernel
MLUP/s, STREAM GB/s) carry ``gate: false`` and are reported but never
fail CI.  Wall-clock statistics are likewise informational unless the
comparison explicitly opts in (``repro.perf compare --wall``).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, Mapping, Sequence

__all__ = ["SCHEMA", "Metric", "WallStats", "RunRecord", "SchemaError"]

#: Identifier + version of the on-disk document layout.  Bump the suffix
#: whenever a field changes meaning; readers refuse unknown versions.
SCHEMA = "repro.perf/1"


class SchemaError(ValueError):
    """A document (or record) does not match the expected schema."""


@dataclass(frozen=True)
class Metric:
    """One scalar measurement with its gating semantics."""

    value: float
    unit: str = ""
    #: Comparison direction: throughputs are better when higher,
    #: traffic/time volumes when lower.
    higher_is_better: bool = True
    #: Whether the regression gate may fail a run on this metric.
    gate: bool = True

    def to_dict(self) -> Dict[str, object]:
        return {
            # Strict JSON has no NaN/Infinity token; round-trip them as
            # null so the CI artifact stays parseable by any consumer.
            "value": self.value if math.isfinite(self.value) else None,
            "unit": self.unit,
            "higher_is_better": self.higher_is_better,
            "gate": self.gate,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, object]) -> "Metric":
        try:
            raw = d["value"]
            return cls(value=float("nan") if raw is None else float(raw),  # type: ignore[arg-type]
                       unit=str(d.get("unit", "")),
                       higher_is_better=bool(d.get("higher_is_better", True)),
                       gate=bool(d.get("gate", True)))
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed metric {d!r}") from exc


@dataclass(frozen=True)
class WallStats:
    """Wall-clock statistics over the measured repeats (warmups excluded)."""

    repeats: int
    warmup: int
    min: float
    median: float
    mean: float
    stddev: float

    @classmethod
    def from_samples(cls, samples: Sequence[float],
                     warmup: int = 0) -> "WallStats":
        if not samples:
            raise ValueError("need at least one timed repeat")
        return cls(
            repeats=len(samples),
            warmup=warmup,
            min=min(samples),
            median=statistics.median(samples),
            mean=statistics.fmean(samples),
            # Population stddev: well-defined for a single repeat (0.0).
            stddev=statistics.pstdev(samples),
        )

    def to_dict(self) -> Dict[str, object]:
        return {"repeats": self.repeats, "warmup": self.warmup,
                "min": self.min, "median": self.median,
                "mean": self.mean, "stddev": self.stddev}

    @classmethod
    def from_dict(cls, d: Mapping[str, object]) -> "WallStats":
        try:
            return cls(repeats=int(d["repeats"]), warmup=int(d["warmup"]),
                       min=float(d["min"]), median=float(d["median"]),
                       mean=float(d["mean"]), stddev=float(d["stddev"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed wall stats {d!r}") from exc


def _jsonable(value: object) -> object:
    """Coerce scenario params to JSON-stable types (tuples -> lists)."""
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


@dataclass(frozen=True)
class RunRecord:
    """One scenario's outcome: timing statistics plus extracted metrics."""

    scenario: str
    kind: str
    params: Mapping[str, object] = field(default_factory=dict)
    wall: WallStats = field(default_factory=lambda: WallStats.from_samples([0.0]))
    metrics: Mapping[str, Metric] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "kind": self.kind,
            "params": _jsonable(dict(self.params)),
            "wall": self.wall.to_dict(),
            "metrics": {k: m.to_dict() for k, m in self.metrics.items()},
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, object]) -> "RunRecord":
        try:
            name = str(d["scenario"])
        except KeyError as exc:
            raise SchemaError(f"record without scenario name: {d!r}") from exc
        metrics = d.get("metrics", {})
        if not isinstance(metrics, Mapping):
            raise SchemaError(f"record {name!r}: metrics must be a mapping")
        return cls(
            scenario=name,
            kind=str(d.get("kind", "")),
            params=dict(d.get("params", {})),  # type: ignore[arg-type]
            wall=WallStats.from_dict(d.get("wall", {})),  # type: ignore[arg-type]
            metrics={str(k): Metric.from_dict(m) for k, m in metrics.items()},
        )

    def gated_metrics(self) -> Dict[str, Metric]:
        """The metrics that may fail a regression gate."""
        return {k: m for k, m in self.metrics.items() if m.gate}
