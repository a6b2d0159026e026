"""Harness tests for benchmarks/e2e (not collected by tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q

Fast unit tests of the pieces the numbers rest on — percentile, span
self-time reduction, the oracle, seeded inputs, the contract file — and
one end-to-end ``--smoke`` run of the whole suite.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402
from measure import percentile, quartile_spread, range_spread  # noqa: E402
from oracle import Oracle  # noqa: E402
from report import END_TO_END, calibrated_bounds, compare, selfcheck  # noqa: E402
from spans import BenchSpans, Span, self_time_by_name, self_times  # noqa: E402
from workloads import NAMES, SPECS, get_spec, make_fields, make_wave  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# -- percentile / spreads ----------------------------------------------------

def test_percentile_interpolates_like_numpy():
    rng = np.random.default_rng(0)
    xs = list(rng.random(48))
    for q in (0, 25, 50, 75, 95, 100):
        assert percentile(xs, q) == pytest.approx(np.percentile(xs, q))
    assert percentile([3.0], 75) == 3.0
    assert percentile([1.0, 2.0], 50) == 1.5


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_spreads():
    vals = [10.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3]
    assert range_spread(vals) == pytest.approx(0.1)
    assert 0 < quartile_spread(vals) < range_spread(vals)
    assert quartile_spread([1.0]) == 0.0


# -- span self-time reduction ------------------------------------------------

def test_self_time_nested_and_overlapping_tree():
    # solve [0, 10] on (0, 0)
    #   pass [1, 9] on (0, 0)
    #     block A [2, 6] on tid 1, with apply [3, 5] inside it
    #     block B [4, 8] on tid 2   (overlaps A: two stage threads at once)
    spans = [
        Span("solve", 0.0, 10.0),
        Span("pass", 1.0, 9.0),
        Span("block", 2.0, 6.0, tid=1),
        Span("apply", 3.0, 5.0, tid=1),
        Span("block", 4.0, 8.0, tid=2),
    ]
    by_name = self_time_by_name(spans)
    assert by_name["solve"] == pytest.approx(2.0)      # 10 - pass(8)
    # The blocks cover [2, 8] of the pass once, not 4 + 4 seconds.
    assert by_name["pass"] == pytest.approx(2.0)
    assert by_name["block"] == pytest.approx(2.0 + 4.0)  # A minus apply, B
    assert by_name["apply"] == pytest.approx(2.0)


def test_self_time_merged_rank_traces():
    # Ranks are other pids; their outermost span hangs off the driver's.
    spans = [
        Span("solve", 0.0, 10.0),
        Span("rank", 1.0, 8.0, pid=1),
        Span("rank", 1.5, 9.0, pid=2),
        Span("pass", 2.0, 5.0, pid=1),
        Span("exchange.phase", 5.0, 6.0, pid=1),
        Span("block", 2.5, 4.5, pid=1, tid=1),
    ]
    by_name = self_time_by_name(spans)
    assert by_name["solve"] == pytest.approx(10.0 - 8.0)   # ranks cover [1, 9]
    assert by_name["rank"] == pytest.approx((7.0 - 3.0 - 1.0) + 7.5)
    assert by_name["pass"] == pytest.approx(1.0)
    total = sum(self_s for _, self_s in self_times(spans))
    assert total == pytest.approx(2.0 + 3.0 + 7.5 + 1.0 + 1.0 + 2.0)


def test_child_reaching_past_its_parent_is_clipped():
    spans = [Span("solve", 0.0, 4.0), Span("rank", 3.0, 5.0, pid=1)]
    assert self_time_by_name(spans)["solve"] == pytest.approx(3.0)


def test_bench_spans_record_parent_and_workload(tmp_path):
    bench = BenchSpans("w")
    with bench.span("outer"):
        with bench.span("inner"):
            time.sleep(0.001)
    inner, outer = bench.spans
    assert (inner.name, inner.parent, inner.workload) == ("inner", "outer", "w")
    assert outer.parent is None and outer.end >= inner.end
    assert inner.end > inner.start
    bench.write(tmp_path / "spans.json")
    assert [s["name"] for s in json.loads((tmp_path / "spans.json").read_text())] \
        == ["inner", "outer"]


# -- the oracle --------------------------------------------------------------

def test_oracle_counts_a_perturbed_field():
    ref = np.random.default_rng(1).random((6, 6, 6))
    oracle = Oracle()
    oracle.observe("f", ref)
    oracle.observe("f", ref.copy())
    bad = ref.copy()
    bad[3, 3, 3] += 1e-9            # not bit-identical to the first result
    oracle.observe("f", bad)
    oracle.raised()
    oracle.settle("f", ref)
    assert (oracle.attempted, oracle.failed) == (4, 2)
    assert "f" not in oracle


def test_oracle_fails_every_op_that_matched_a_wrong_first_result():
    ref = np.random.default_rng(2).random((4, 4, 4))
    wrong = ref + 1e-6              # self-consistent, but off the reference
    oracle = Oracle()
    for _ in range(3):
        oracle.observe("f", wrong)
    oracle.settle("f", ref)
    assert (oracle.attempted, oracle.failed) == (3, 3)


def test_oracle_primed_result_is_not_an_attempt():
    ref = np.ones((2, 2, 2))
    oracle = Oracle()
    oracle.prime("hot", ref)
    oracle.observe("hot", ref)
    oracle.observe("hot", ref + 1.0)  # a cache hit that differs from cold
    oracle.settle("hot", ref)
    assert (oracle.attempted, oracle.failed) == (2, 1)


# -- seeded inputs -----------------------------------------------------------

def test_inputs_are_a_function_of_the_seed():
    spec = get_spec("serve-mixed", smoke=True)
    a, b = make_fields(7, spec), make_fields(7, spec)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[0], make_fields(8, spec)[0])
    assert not np.array_equal(a[0], a[1])
    other = get_spec("shared-smallblock", smoke=True)
    assert not np.array_equal(a[0], make_fields(7, other)[0])
    hot_a, fresh_a = make_wave(7, spec, 3)
    hot_b, fresh_b = make_wave(7, spec, 3)
    assert hot_a == hot_b and np.array_equal(fresh_a, fresh_b)
    assert not np.array_equal(fresh_a, make_wave(7, spec, 4)[1])
    assert a[0].dtype == np.float64 and a[0].shape == spec.shape


# -- the contract file -------------------------------------------------------

def test_benchmark_json_matches_the_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] \
        == [(s.name, s.why) for s in SPECS]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} \
        == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} \
        == PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    names = [w["name"] for w in doc["workloads"]] + list(END_TO_END) \
        + list(PER_LAYER)
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(n) for n in names)
    # 4 + 22 x workloads runs must fit the driver's 3420 s with set-up.
    assert 1 <= doc["run_seconds"] <= 60


# -- bounds, selfcheck, compare ----------------------------------------------

def _doc(*scales):
    base = {"mlups": 70.0, "op_p50_s": 0.22, "op_p75_s": 0.23,
            "roofline_frac": 0.1, "setup_s": 0.7, "peak_rss_mb": 230.0,
            "fail_frac": 0.0}
    sets = []
    for scale in scales:
        row = {k: (v / scale if END_TO_END.get(k, ("", ""))[1] == "higher"
                   else v * scale) for k, v in base.items()}
        sets.append({"w": row})
    return {"meta": {"git_sha": "x"}, "sets": sets}


def test_calibrated_bounds_floor_cap_and_setup():
    bounds = calibrated_bounds(_doc(1.0, 1.01, 0.99, 1.0, 1.02))
    assert bounds["mlups"] == 0.10 and bounds["setup_s"] == 0.25
    assert calibrated_bounds(_doc(1.0, 1.08, 1.0, 1.0, 1.0))["op_p50_s"] == 0.16
    assert calibrated_bounds(_doc(1.0, 1.5, 1.0, 1.0, 1.0))["op_p50_s"] == 0.25


def test_selfcheck_flags_disagreement_and_failures():
    bounds = {m: 0.10 for m in END_TO_END}
    assert selfcheck(_doc(1.0, 1.05), bounds) == []
    assert len(selfcheck(_doc(1.0, 1.2), bounds)) == len(END_TO_END)
    doc = _doc(1.0, 1.0)
    doc["sets"][1]["w"]["fail_frac"] = 0.02
    assert any("fail_frac" in line for line in selfcheck(doc, bounds))


def test_compare_verdicts():
    bounds = {m: 0.10 for m in END_TO_END}

    def verdict(a, b, metric="op_p50_s"):
        rows = compare(a, b, bounds)
        return next(r for r in rows if r["metric"] == metric)

    assert verdict(_doc(1.0, 1.01), _doc(1.02, 1.0))["verdict"] == "same"
    worse = verdict(_doc(1.0, 1.01), _doc(1.3, 1.31))
    assert worse["verdict"] == "worse" and worse["base"] == "A"
    assert worse["ratio"] == pytest.approx(1.305 / 1.005)
    assert verdict(_doc(1.3, 1.31), _doc(1.0, 1.01))["verdict"] == "better"
    # higher-is-better metrics flip direction
    assert verdict(_doc(1.0, 1.01), _doc(1.3, 1.31), "mlups")["verdict"] == "worse"
    # wide, overlapping runs cannot resolve a difference
    assert verdict(_doc(1.0, 1.4), _doc(1.2, 1.5))["verdict"] == "unresolved"


# -- smoke: the whole suite, small -------------------------------------------

def test_smoke_emits_every_metric_for_every_workload():
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke",
                           "--seed", "5"], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert time.perf_counter() - t0 < 20.0
    doc = json.loads((HERE / "results" / "smoke.json").read_text())
    assert list(doc["sets"][0]) == list(NAMES)
    for workload in NAMES:
        row = doc["sets"][0][workload]
        for metric in list(END_TO_END) + ["fail_frac"]:
            assert isinstance(row[metric], float), (workload, metric)
        assert row["fail_frac"] == 0.0 and row["samples"] >= 3
        assert all(row[m] > 0 for m in END_TO_END)
        traced = doc["per_layer"][workload]
        assert set(traced["metrics"]) == set(PER_LAYER)
        assert traced["failed"] == 0 and traced["attempted"] >= 3
        for name, value in traced["metrics"].items():
            assert NAME_RE.fullmatch(name)
            assert isinstance(value, float) or (value is None
                                                and traced["notes"][name])
    by_layer = {w: {n.split(".")[0] for n, v in
                    doc["per_layer"][w]["metrics"].items() if v is not None}
                for w in NAMES}
    assert "threads" in by_layer["threads-pipeline"]
    assert "dist" in by_layer["dist-halo"]
    assert "serve" in by_layer["serve-mixed"]
    assert not {"threads", "dist", "serve"} & by_layer["shared-bigblock"]
    for key in ("git_sha", "git_dirty", "nproc", "cpu_model", "llc", "numpy",
                "python", "stream_gbs", "stream_array_mib", "procmpi_start",
                "seed"):
        assert key in doc["meta"]
