#!/usr/bin/env python3
"""Wall-clock, layer-attributed benchmark of the real solve rails.

Driver contract (one workload, one result object on the last line)::

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0|1

Developer suite (all six workloads, untraced sets plus one traced pass)::

    python3 benchmarks/e2e/run.py --seed S              # full run, ~4 min
    python3 benchmarks/e2e/run.py --smoke               # 16^3..24^3, 3 ops
    python3 benchmarks/e2e/run.py --selfcheck           # two sets must agree
    python3 benchmarks/e2e/run.py --calibrate           # five sets -> bounds
    python3 benchmarks/e2e/run.py --compare A.json B.json

Every workload runs in a fresh child (worker.py) with pinned math
threads; this process only measures stream bandwidth around the child
and reduces what it reports.  See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
BASELINE_JSON = HERE / "baseline.json"
HISTORY = HERE / "history.jsonl"

#: Set-ups per run (two set-up-only children plus the measured one);
#: ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A child that outlives this is killed and the run fails.
CHILD_TIMEOUT_S = 150
#: Workloads whose wall clock needs two cores to mean anything.
NEEDS_TWO_CORES = ("threads-pipeline", "dist-halo")


def spawn(workload: str, seed: int, seconds: float, trace: int = 0,
          smoke: bool = False, setup_only: bool = False) -> dict:
    """Run worker.py in a fresh process and parse its last output line."""
    from measure import child_env

    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--results-dir", str(RESULTS),
           "--t0", repr(time.time())]
    if smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=child_env(ROOT / "src"), text=True,
                          capture_output=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_workload(workload: str, seed: int, seconds: float,
                     smoke: bool = False) -> dict:
    """The untraced run: end-to-end metrics of one workload."""
    from measure import stream_copy_gbs, stream_mib
    from workloads import get_spec

    before = stream_copy_gbs(stream_mib(smoke))
    setups = [spawn(workload, seed, seconds, smoke=smoke,
                    setup_only=True)["setup_s"]
              for _ in range(SETUP_REPEATS - 1)]
    out = spawn(workload, seed, seconds, smoke=smoke)
    after = stream_copy_gbs(stream_mib(smoke))
    # Mean, not max: over 30 calibration runs the max of the two had twice
    # the quartile spread of their mean (3.5 % against 1.7 %) — the host
    # hands out the occasional fast copy, and a ceiling should not chase it.
    stream = (before + after) / 2.0
    m = out["metrics"]
    m["setup_s"] = statistics.median(setups + [m["setup_s"]])
    # Eq. 2: P0 = stream bandwidth / bytes per site update, in MLUP/s.
    m["roofline_frac"] = m["mlups"] / (
        stream * 1e3 / get_spec(workload).bytes_per_lup)
    out["stream_gbs"] = stream
    out["stream_drift_frac"] = abs(after - before) / stream
    return out


def contract_main(args) -> int:
    from layers import PER_LAYER
    from report import END_TO_END

    if args.trace:
        out = spawn(args.workload, args.seed, args.seconds, trace=1)
        units = {k: unit for k, (unit, _) in PER_LAYER.items()}
    else:
        out = measure_workload(args.workload, args.seed, args.seconds)
        units = {k: unit for k, (unit, _) in END_TO_END.items()}
    # A layer that is not on this workload's path did no work and took no
    # time: 0 here, ``null`` plus the reason in the suite's own report.
    metrics = {k: {"value": out["metrics"][k] or 0.0, "unit": unit}
               for k, unit in units.items()}
    print(json.dumps({"correct": out["failed"] == 0,
                      "attempted": out["attempted"], "failed": out["failed"],
                      "metrics": metrics}))
    return 0 if out["failed"] == 0 else 1


# -- the developer suite ------------------------------------------------------

def run_set(seed: int, seconds: float, smoke: bool, reverse: bool) -> dict:
    from workloads import NAMES

    # Oversubscribed cores: counts stay valid, scaling numbers do not.
    degraded = NEEDS_TWO_CORES if (os.cpu_count() or 1) < 2 else ()
    result = {}
    for workload in (reversed(NAMES) if reverse else NAMES):
        out = measure_workload(workload, seed, seconds, smoke=smoke)
        row = dict(out["metrics"])
        row["fail_frac"] = out["failed"] / out["attempted"]
        row["samples"] = out["samples"]
        row["stream_gbs"] = out["stream_gbs"]
        row["stream_drift_frac"] = out["stream_drift_frac"]
        result[workload] = row
        print(f"  {workload:<18} " + "  ".join(
            f"{k}={row[k]:.4g}" for k in ("mlups", "op_p50_s", "op_p75_s",
                                          "roofline_frac", "setup_s",
                                          "peak_rss_mb", "fail_frac"))
            + f"  (n={row['samples']})"
            + ("  DEGRADED: fewer than 2 cores" if workload in degraded else ""),
            flush=True)
    return {w: result[w] for w in NAMES}


def run_sets(n_sets: int, args) -> dict:
    """``n_sets`` full runs, alternating workload order, one seed each."""
    from measure import host_info, stream_mib

    meta = host_info(ROOT)
    meta.update(seed=args.seed, seconds=args.seconds, smoke=args.smoke,
                stream_array_mib=stream_mib(args.smoke),
                started=time.strftime("%Y-%m-%dT%H:%M:%S"))
    if (os.cpu_count() or 1) < 2:
        meta["degraded"] = list(NEEDS_TWO_CORES)
    print(f"host: {meta['cpu_model']}, nproc={meta['nproc']}, "
          f"LLC {meta['llc']}; stream arrays 2 x {meta['stream_array_mib']} "
          f"MiB (below 4 x LLC: that rule cannot be met on this host); "
          f"tree {meta['git_sha'][:12]}{' (dirty)' if meta['git_dirty'] else ''}")
    sets = []
    for k in range(n_sets):
        print(f"set {k + 1}/{n_sets} (seed {args.seed + k})", flush=True)
        sets.append(run_set(args.seed + k, args.seconds, args.smoke,
                            reverse=bool(k % 2)))
    meta["stream_gbs"] = statistics.median(
        row["stream_gbs"] for s in sets for row in s.values())
    return {"meta": meta, "sets": sets}


def traced_pass(args) -> Dict[str, dict]:
    from layers import PER_LAYER
    from workloads import NAMES

    out = {}
    for workload in NAMES:
        res = spawn(workload, args.seed, args.seconds, trace=1,
                    smoke=args.smoke)
        out[workload] = res
        print(f"traced {workload}: attempted={res['attempted']} "
              f"failed={res['failed']} shares={res['shares']}")
        for name, (unit, _) in PER_LAYER.items():
            value = res["metrics"][name]
            shown = (f"{value:.6g} {unit}" if value is not None
                     else f"null ({res['notes'][name]})")
            print(f"    {name:<30} {shown}")
    return out


def load_bounds() -> Dict[str, float]:
    doc = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["bound"] for m in doc["end_to_end"]}


def append_history(doc: dict) -> None:
    from report import summary

    record = dict(doc["meta"])
    record["medians"] = {w: {m: v["median"] for m, v in ms.items()}
                         for w, ms in summary(doc).items()}
    with HISTORY.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def failures(doc: dict, traced: Optional[Dict[str, dict]] = None) -> List[str]:
    bad = [f"{w}: fail_frac {row['fail_frac']}" for s in doc["sets"]
           for w, row in s.items() if row["fail_frac"] > 0]
    bad += [f"{w} (traced): {res['failed']} of {res['attempted']} ops failed"
            for w, res in (traced or {}).items() if res["failed"]]
    return bad


def suite_main(args) -> int:
    from report import calibrated_bounds, compare, format_rows, selfcheck, summary

    if args.compare:
        doc_a, doc_b = (json.loads(Path(p).read_text()) for p in args.compare)
        print(f"A = {args.compare[0]} ({doc_a['meta'].get('git_sha', '?')[:12]})"
              f"\nB = {args.compare[1]} ({doc_b['meta'].get('git_sha', '?')[:12]})")
        print(format_rows(compare(doc_a, doc_b, load_bounds())))
        return 0
    RESULTS.mkdir(exist_ok=True)
    if args.selfcheck:
        doc = run_sets(2, args)
        bad = selfcheck(doc, load_bounds())
        print("\n".join(bad) if bad else
              "selfcheck: two sets agree within every bound, fail_frac = 0")
        return 1 if bad else 0
    if args.calibrate:
        doc = run_sets(5, args)
        bounds = calibrated_bounds(doc)
        bench = json.loads(BENCHMARK_JSON.read_text())
        for metric in bench["end_to_end"]:
            metric["bound"] = bounds[metric["name"]]
        BENCHMARK_JSON.write_text(json.dumps(bench, indent=2) + "\n")
        doc["summary"] = summary(doc)
        BASELINE_JSON.write_text(json.dumps(doc, indent=1) + "\n")
        append_history(doc)
        print("bounds:", bounds)
        return 1 if failures(doc) else 0
    doc = run_sets(1, args)
    doc["per_layer"] = traced_pass(args)
    (RESULTS / ("smoke.json" if args.smoke else "latest.json")).write_text(
        json.dumps(doc, indent=1) + "\n")
    if not args.smoke:
        append_history(doc)
    bad = failures(doc, doc["per_layer"])
    print("\n".join(bad) if bad else "all operations correct")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", help="run one workload (driver contract)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed seconds per workload (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--calibrate", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(json.loads(BENCHMARK_JSON.read_text())["run_seconds"])
    if not args.compare and not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT / 'src' / 'repro'} not found: nothing to measure")
    sys.path.insert(0, str(HERE))
    return contract_main(args) if args.workload else suite_main(args)


if __name__ == "__main__":
    sys.exit(main())
