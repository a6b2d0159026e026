"""One workload, one fresh process: set up, run the closed loop, report.

Spawned by run.py (never imported by it), so ``setup_s`` and
``peak_rss_mb`` are per workload and the parent's stream buffers are
not in this process's RSS.  The untraced path imports only names in
``repro.__all__``; the traced path lives in layers.py.

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from measure import peak_rss_mib, percentile
from workloads import Loop, ServeWorkload, SolverWorkload, get_spec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.time() at which the parent spawned this child")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--results-dir", default=None)
    args = ap.parse_args(argv)

    spec = get_spec(args.workload, smoke=args.smoke)
    min_ops, max_ops = (3, 3) if args.smoke else (8, None)
    if args.trace:
        from layers import traced_run

        print(json.dumps(traced_run(spec, args.seed, args.seconds, min_ops,
                                    max_ops, args.results_dir, args.smoke)))
        return 0

    work = (ServeWorkload if spec.served else SolverWorkload)(spec, args.seed)
    setup_s = time.time() - args.t0
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        work.run(Loop(args.seconds, min_ops, max_ops))
        rss = peak_rss_mib()  # read before the oracle's reference solves
        work.verify()
    finally:
        work.close()
    print(json.dumps({
        "attempted": work.oracle.attempted,
        "failed": work.oracle.failed,
        "samples": len(work.durations),
        "metrics": {
            "mlups": work.useful_updates / work.wall / 1e6,
            "op_p50_s": percentile(work.durations, 50),
            "op_p75_s": percentile(work.durations, 75),
            "setup_s": setup_s,
            "peak_rss_mb": rss,
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
