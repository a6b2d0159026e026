"""OpenMetrics text exposition and health-snapshot rendering.

:func:`to_openmetrics` turns registry snapshots plus fixed-bucket
histograms into the OpenMetrics text format Prometheus scrapes —
counters as ``<name>_total``, gauges plain, histograms as cumulative
``_bucket{le="..."}`` series with ``_sum``/``_count``, ``# EOF``
terminated.  :func:`validate_openmetrics` is the self-check CI runs
over the produced output (name charset, TYPE declarations, bucket
monotonicity, count consistency, EOF) so the exporter can never drift
from the format without a red build.

:func:`render_health` pretty-prints a ``Service.health()`` JSON
snapshot — the ``python -m repro.obs top`` verb.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Mapping, Tuple

from ...text import banner, format_table
from .histogram import FixedHistogram

__all__ = ["metric_name", "to_openmetrics", "validate_openmetrics",
           "render_health"]

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def metric_name(name: str, prefix: str = "repro") -> str:
    """A dotted repo metric name as a legal OpenMetrics metric name."""
    flat = _INVALID.sub("_", name.strip())
    if prefix:
        flat = f"{prefix}_{flat}"
    if not _NAME_OK.match(flat):
        flat = f"_{flat}"
    return flat


def _fmt(value: float) -> str:
    """Canonical sample-value rendering (integers without the .0)."""
    f = float(value)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def to_openmetrics(counters: Mapping[str, float],
                   gauges: Mapping[str, float],
                   histograms: Iterable[FixedHistogram] = (),
                   prefix: str = "repro") -> str:
    """The OpenMetrics text exposition of one monitoring snapshot."""
    lines: List[str] = []
    for name in sorted(counters):
        m = metric_name(name, prefix)
        lines.append(f"# TYPE {m} counter")
        lines.append(f"{m}_total {_fmt(counters[name])}")
    for name in sorted(gauges):
        m = metric_name(name, prefix)
        lines.append(f"# TYPE {m} gauge")
        lines.append(f"{m} {_fmt(gauges[name])}")
    for hist in histograms:
        m = metric_name(hist.name, prefix)
        if hist.unit == "s":
            m += "_seconds"
        lines.append(f"# TYPE {m} histogram")
        cum = 0
        for edge, count in zip(hist.bounds, hist.bucket_counts()):
            cum += count
            lines.append(f'{m}_bucket{{le="{edge:g}"}} {cum}')
        total = hist.count
        lines.append(f'{m}_bucket{{le="+Inf"}} {total}')
        lines.append(f"{m}_sum {_fmt(hist.total)}")
        lines.append(f"{m}_count {total}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})? (?P<value>[^ ]+)$")


def validate_openmetrics(text: str) -> List[str]:
    """Problems with an OpenMetrics exposition (empty list = valid).

    Checks the invariants our exporter promises: every sample belongs
    to a declared metric family, histogram buckets are cumulative and
    consistent with ``_count``, and the exposition is ``# EOF``
    terminated.  Not a full spec parser — a format tripwire for CI.
    """
    problems: List[str] = []
    lines = text.splitlines()
    if not lines or lines[-1] != "# EOF":
        problems.append("exposition does not end with '# EOF'")
    declared: Dict[str, str] = {}
    buckets: Dict[str, List[Tuple[float, float]]] = {}
    counts: Dict[str, float] = {}
    for i, line in enumerate(lines, 1):
        if not line:
            problems.append(f"line {i}: empty line inside exposition")
            continue
        if line.startswith("#"):
            parts = line.split()
            if parts[:2] == ["#", "TYPE"] and len(parts) == 4:
                family, kind = parts[2], parts[3]
                if not _NAME_OK.match(family):
                    problems.append(
                        f"line {i}: invalid metric name {family!r}")
                if family in declared:
                    problems.append(
                        f"line {i}: duplicate TYPE for {family!r}")
                declared[family] = kind
            elif line != "# EOF":
                problems.append(f"line {i}: unrecognised comment {line!r}")
            continue
        m = _SAMPLE.match(line)
        if m is None:
            problems.append(f"line {i}: unparsable sample {line!r}")
            continue
        name = m.group("name")
        family = name
        for suffix in ("_total", "_bucket", "_sum", "_count"):
            if name.endswith(suffix):
                family = name[: -len(suffix)]
                break
        if family not in declared and name not in declared:
            problems.append(
                f"line {i}: sample {name!r} has no preceding TYPE")
            continue
        try:
            value = float(m.group("value").replace("+Inf", "inf"))
        except ValueError:
            problems.append(f"line {i}: non-numeric value in {line!r}")
            continue
        if name.endswith("_bucket"):
            labels = m.group("labels") or ""
            le = re.search(r'le="([^"]+)"', labels)
            if le is None:
                problems.append(f"line {i}: bucket without an le label")
                continue
            edge = float("inf") if le.group(1) == "+Inf" else float(le.group(1))
            buckets.setdefault(family, []).append((edge, value))
        elif name.endswith("_count"):
            counts[family] = value
    for family, series in buckets.items():
        edges = [e for e, _ in series]
        values = [v for _, v in series]
        if edges != sorted(edges):
            problems.append(f"{family}: bucket edges not ascending")
        if values != sorted(values):
            problems.append(f"{family}: bucket counts not cumulative")
        if edges and edges[-1] != float("inf"):
            problems.append(f"{family}: missing le=\"+Inf\" bucket")
        if family in counts and values and counts[family] != values[-1]:
            problems.append(
                f"{family}: _count {counts[family]:g} != +Inf bucket "
                f"{values[-1]:g}")
    return problems


# ---------------------------------------------------------------------------
# Health-snapshot rendering (the `top` CLI verb).
# ---------------------------------------------------------------------------

def render_health(health: Mapping[str, object]) -> str:
    """A terminal rendering of one ``Service.health()`` snapshot."""
    out: List[str] = []
    status = health.get("status", "?")
    out.append(banner(f"service health: {status}"))
    basics = [[k, health.get(k)] for k in
              ("workers", "queue_depth", "inflight") if k in health]
    sessions = health.get("sessions") or {}
    if isinstance(sessions, Mapping):
        basics += [[f"sessions.{k}", v] for k, v in sorted(sessions.items())]
    if basics:
        out.append(format_table(["field", "value"], basics))
    hists = health.get("histograms") or {}
    if isinstance(hists, Mapping) and hists:
        rows = [[name, h.get("count"), h.get("p50"), h.get("p95"),
                 h.get("p99"), h.get("max")]
                for name, h in sorted(hists.items())]
        out.append(banner("latency histograms (s)"))
        out.append(format_table(
            ["histogram", "count", "p50", "p95", "p99", "max"], rows,
            floatfmt="12.6f"))
    scores = health.get("stragglers") or []
    if scores:
        rows = [[s.get("worker"), s.get("jobs"), s.get("last_s"),
                 s.get("expected_s"), s.get("ratio"), s.get("over"),
                 "FLAGGED" if s.get("flagged") else "ok"]
                for s in scores]
        out.append(banner("workers (straggler scores)"))
        out.append(format_table(
            ["worker", "jobs", "last_s", "expected_s", "ratio", "over",
             "state"], rows, floatfmt="10.4f"))
    counters = health.get("counters") or {}
    if isinstance(counters, Mapping) and counters:
        out.append(banner("counters"))
        out.append(format_table(
            ["counter", "value"],
            [[k, v] for k, v in sorted(counters.items())]))
    return "\n".join(out)
