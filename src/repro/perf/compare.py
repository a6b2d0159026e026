"""Regression gate: diff two result documents, or one against the model.

``compare_documents`` matches records by scenario name and metrics by
name, computes the signed relative change and classifies each pair:

* ``ok`` — within the threshold either way;
* ``improved`` / ``regressed`` — beyond the threshold in the metric's
  better/worse direction (``higher_is_better`` decides which is which);
* ``added`` / ``removed`` — present on only one side (never fails the
  gate: growing the scenario matrix must not break CI).

Only metrics with ``gate: true`` can produce ``regressed`` by default —
the calibrated-DES throughputs and the deterministic communication
counters.  Host-clock metrics and wall statistics are informational
unless explicitly opted in (``gate_only=False`` / ``include_wall=True``).

``compare_to_model`` diffs a document against the analytical
:mod:`repro.models` predictions attached to its scenarios (Eq. 5
markers).  Deviation there is *expected* — the paper itself shows the
model failing for T >= 2 — so model verdicts use ``ok``/``deviates``
and never fail the gate unless the CLI is passed ``--strict``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from ..text import format_table
from .schema import RunRecord
from .store import records_of

__all__ = [
    "Delta",
    "compare_documents",
    "compare_to_model",
    "regressions",
    "render_deltas",
    "DEFAULT_THRESHOLD",
    "DEFAULT_MODEL_THRESHOLD",
]

#: Fail the gate beyond a 10 % slowdown, per the CI contract.
DEFAULT_THRESHOLD = 0.10
#: The Eq. 5 model is quoted as matching within ~15 % where it works.
DEFAULT_MODEL_THRESHOLD = 0.15

_RANK = {"regressed": 0, "deviates": 1, "improved": 2, "added": 3,
         "removed": 4, "ok": 5}


@dataclass(frozen=True)
class Delta:
    """One compared metric (or a whole added/removed scenario)."""

    scenario: str
    metric: str
    base: Optional[float]
    new: Optional[float]
    #: Signed relative change ``(new - base) / base``; None when either
    #: side is missing or the base is zero.
    rel: Optional[float]
    status: str

    def describe(self) -> str:
        pct = f"{self.rel:+.1%}" if self.rel is not None else "n/a"
        return (f"{self.scenario} :: {self.metric}: {self.base} -> "
                f"{self.new} ({pct}, {self.status})")


def _classify(base: float, new: float, higher_is_better: bool,
              threshold: float) -> Delta:
    rel: Optional[float] = None
    if math.isnan(base) and math.isnan(new):
        status = "ok"
    elif math.isnan(new):
        # The metric stopped being measurable — that must fail the gate,
        # not slip through with an undefined delta.
        status = "regressed"
    elif math.isnan(base):
        status = "improved"  # became measurable
    elif base == 0:
        if new == 0:
            status = "ok"
        else:
            # No finite relative change exists from a zero base; any
            # appearance of volume/time is worse, of throughput better.
            status = "improved" if higher_is_better else "regressed"
    else:
        rel = (new - base) / abs(base)
        if (-rel if higher_is_better else rel) > threshold:
            status = "regressed"
        elif (rel if higher_is_better else -rel) > threshold:
            status = "improved"
        else:
            status = "ok"
    return Delta(scenario="", metric="", base=base, new=new, rel=rel,
                 status=status)


def _by_name(records: Sequence[RunRecord]) -> Dict[str, RunRecord]:
    return {r.scenario: r for r in records}


def compare_documents(base_doc: Mapping[str, object],
                      new_doc: Mapping[str, object],
                      threshold: float = DEFAULT_THRESHOLD,
                      gate_only: bool = True,
                      include_wall: bool = False) -> List[Delta]:
    """Diff every shared scenario/metric of two result documents."""
    base = _by_name(records_of(base_doc))
    new = _by_name(records_of(new_doc))
    deltas: List[Delta] = []
    for name in sorted(set(base) | set(new)):
        if name not in new:
            deltas.append(Delta(name, "*", None, None, None, "removed"))
            continue
        if name not in base:
            deltas.append(Delta(name, "*", None, None, None, "added"))
            continue
        b, n = base[name], new[name]
        b_metrics = b.gated_metrics() if gate_only else dict(b.metrics)
        n_metrics = n.gated_metrics() if gate_only else dict(n.metrics)
        for metric in sorted(set(b_metrics) | set(n_metrics)):
            if metric not in n_metrics:
                deltas.append(Delta(name, metric,
                                    b_metrics[metric].value, None, None,
                                    "removed"))
                continue
            if metric not in b_metrics:
                deltas.append(Delta(name, metric, None,
                                    n_metrics[metric].value, None, "added"))
                continue
            bm, nm = b_metrics[metric], n_metrics[metric]
            d = _classify(bm.value, nm.value, nm.higher_is_better, threshold)
            deltas.append(Delta(name, metric, d.base, d.new, d.rel, d.status))
        if include_wall:
            d = _classify(b.wall.median, n.wall.median,
                          higher_is_better=False, threshold=threshold)
            deltas.append(Delta(name, "wall/median", d.base, d.new, d.rel,
                                d.status))
    return sorted(deltas, key=lambda d: (_RANK[d.status], d.scenario,
                                         d.metric))


def compare_to_model(doc: Mapping[str, object],
                     threshold: float = DEFAULT_MODEL_THRESHOLD,
                     ) -> List[Delta]:
    """Measured metrics vs the analytical predictions, where defined."""
    from .scenarios import get_scenario

    deltas: List[Delta] = []
    for record in records_of(doc):
        try:
            scenario = get_scenario(record.scenario)
        except KeyError:
            continue  # document from a newer/older scenario matrix
        if scenario.model is None:
            continue
        predictions = scenario.model()
        for metric, predicted in sorted(predictions.items()):
            measured = record.metrics.get(metric)
            if measured is None:
                deltas.append(Delta(record.scenario, metric, predicted,
                                    None, None, "removed"))
                continue
            rel = ((measured.value - predicted) / abs(predicted)
                   if predicted else None)
            status = ("ok" if rel is not None and abs(rel) <= threshold
                      else "deviates")
            deltas.append(Delta(record.scenario, metric, predicted,
                                measured.value, rel, status))
    return sorted(deltas, key=lambda d: (_RANK[d.status], d.scenario,
                                         d.metric))


def regressions(deltas: Sequence[Delta]) -> List[Delta]:
    """The deltas that should fail the gate."""
    return [d for d in deltas if d.status == "regressed"]


def render_deltas(deltas: Sequence[Delta],
                  base_label: str = "base",
                  new_label: str = "new") -> str:
    """ASCII table of the comparison, worst first."""
    if not deltas:
        return "(no comparable metrics)"

    def fmt(v: Optional[float]) -> object:
        return "-" if v is None else float(v)

    rows = []
    for d in deltas:
        pct = "-" if d.rel is None else f"{d.rel:+.1%}"
        rows.append([d.scenario, d.metric, fmt(d.base), fmt(d.new), pct,
                     d.status])
    return format_table(
        ["scenario", "metric", base_label, new_label, "delta", "status"],
        rows, floatfmt="10.3f")
