"""Result documents: summaries, calibrated bounds, self-agreement, compare.

A result document is ``{"meta": {...}, "sets": [{workload: {metric:
value}}, ...]}`` — one entry in ``sets`` per full run of the six
workloads.  ``results/latest.json``, ``baseline.json`` and the argument
files of ``--compare`` all have this shape.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from measure import quartile_spread, range_spread

#: End-to-end metrics: name -> (unit, better).  ``fail_frac`` is reported
#: by the suite too, but lives in the result's attempted/failed counts,
#: not here: a metric that is 0 on a healthy tree cannot carry a relative
#: bound, and it may not rise at all.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "mlups": ("MLUP/s", "higher"),
    "op_p50_s": ("s", "lower"),
    "op_p75_s": ("s", "lower"),
    "roofline_frac": ("frac", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

BOUND_FLOOR = 0.10
BOUND_CAP = 0.25


def values_of(doc: dict, workload: str, metric: str) -> List[float]:
    return [s[workload][metric] for s in doc["sets"] if workload in s]


def summary(doc: dict) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Median and quartiles of every workload x metric over the sets."""
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for workload in doc["sets"][0]:
        out[workload] = {}
        for metric in END_TO_END:
            vals = values_of(doc, workload, metric)
            q1, med, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                           else (vals[0],) * 3)
            out[workload][metric] = {"median": med, "q1": q1, "q3": q3}
    return out


def calibrated_bounds(doc: dict) -> Dict[str, float]:
    """max(0.10, 2 x worst set-to-set spread), capped at 0.25.

    Never less than 3 x the worst quartile spread either: the driver
    accepts a benchmark whose (Q3 - Q1) / median stays within the bound
    and asks for a factor of three in hand.  ``setup_s`` takes the cap
    outright: it is a few hundred milliseconds of process start and
    imports, the noisiest thing measured.
    """
    bounds = {}
    for metric in END_TO_END:
        per_workload = [values_of(doc, w, metric) for w in doc["sets"][0]]
        need = max(2.0 * max(map(range_spread, per_workload)),
                   3.0 * max(map(quartile_spread, per_workload)))
        bounds[metric] = round(min(BOUND_CAP, max(BOUND_FLOOR, need)), 3)
    bounds["setup_s"] = BOUND_CAP
    return bounds


def worsening(metric: str, base: float, new: float) -> float:
    """Relative change of ``new`` against ``base``, positive = worse."""
    change = (new - base) / base
    return -change if END_TO_END[metric][1] == "higher" else change


def compare(doc_a: dict, doc_b: dict, bounds: Dict[str, float]) -> List[dict]:
    """One row per workload x metric: values, ratio with its base, verdict."""
    rows = []
    for workload in doc_a["sets"][0]:
        if workload not in doc_b["sets"][0]:
            continue
        for metric in END_TO_END:
            a = values_of(doc_a, workload, metric)
            b = values_of(doc_b, workload, metric)
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = worsening(metric, med_a, med_b)
            bound = bounds[metric]
            spread = max(quartile_spread(a) if len(a) > 3 else range_spread(a),
                         quartile_spread(b) if len(b) > 3 else range_spread(b))
            overlap = min(a) <= max(b) and min(b) <= max(a)
            if abs(worse) <= bound:
                verdict = "same"
            elif spread > bound and overlap:
                verdict = "unresolved"
            else:
                verdict = "worse" if worse > 0 else "better"
            rows.append({"workload": workload, "metric": metric,
                         "unit": END_TO_END[metric][0], "a": med_a, "b": med_b,
                         "ratio": med_b / med_a, "base": "A", "spread": spread,
                         "bound": bound, "verdict": verdict})
    return rows


def format_rows(rows: List[dict]) -> str:
    lines = [f"{'workload':<18} {'metric':<14} {'A':>12} {'B':>12} "
             f"{'B/A':>7}  {'spread':>6} {'bound':>5}  verdict"]
    for r in rows:
        lines.append(
            f"{r['workload']:<18} {r['metric']:<14} {r['a']:>12.5g} "
            f"{r['b']:>12.5g} {r['ratio']:>6.3f}x  {r['spread']:>6.3f} "
            f"{r['bound']:>5.2f}  {r['verdict']}  [{r['unit']}, base A]")
    return "\n".join(lines)


def selfcheck(doc: dict, bounds: Dict[str, float]) -> List[str]:
    """Metrics on which the first two sets disagree by more than the bound."""
    first, second = doc["sets"][0], doc["sets"][1]
    bad = []
    for workload in first:
        for metric in END_TO_END:
            a, b = first[workload][metric], second[workload][metric]
            diff = abs(worsening(metric, a, b))
            if diff > bounds[metric]:
                bad.append(f"{workload} {metric}: {a:.5g} vs {b:.5g} "
                           f"differ by {diff:.3f} > bound {bounds[metric]}")
        for s in (first, second):
            if s[workload]["fail_frac"] > 0:
                bad.append(f"{workload} fail_frac {s[workload]['fail_frac']} > 0")
    return bad
