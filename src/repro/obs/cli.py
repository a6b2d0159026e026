"""``python -m repro.obs`` — traces, live monitoring, health views.

Subcommands::

    dump       print every span of a Chrome-trace JSON file as a table
    summarize  reduce a trace file to the flat metrics dict
    diff       compare the summarized metrics of two trace files
    monitor    run a small monitored workload; print/export its health
    top        render a Service.health() JSON snapshot as a terminal view

Examples::

    python -m repro.obs dump trace.json
    python -m repro.obs summarize trace.json
    python -m repro.obs diff before.json after.json
    python -m repro.obs monitor --jobs 6 --openmetrics metrics.txt --check
    python -m repro.obs top health.json

The trace files are the ``chrome://tracing`` JSON produced by
:func:`repro.obs.write_chrome_trace` (e.g. from
``repro.solve(..., trace=True)`` results) — load the same file in
``chrome://tracing`` or Perfetto for the visual timeline.  ``monitor``
is both a demo and CI's exporter tripwire: ``--check`` validates the
OpenMetrics exposition with :func:`repro.obs.validate_openmetrics` and
exits non-zero on any problem.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from ..text import banner, format_table
from .export import load_chrome_trace
from .metrics import trace_metrics
from .tracer import Trace

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro.obs",
        description="Inspect Chrome-trace JSON files produced by traced "
                    "solves (repro.solve(..., trace=True)) and drive the "
                    "live monitor.")
    sub = p.add_subparsers(dest="command", required=True)

    dump = sub.add_parser("dump", help="print every span as a table")
    dump.add_argument("trace", type=Path)
    dump.add_argument("--limit", type=int, default=0,
                      help="print at most N spans (0 = all)")

    summ = sub.add_parser("summarize",
                          help="reduce a trace to the flat metrics dict")
    summ.add_argument("trace", type=Path)

    diff = sub.add_parser("diff",
                          help="compare the summarized metrics of two traces")
    diff.add_argument("base", type=Path)
    diff.add_argument("new", type=Path)

    mon = sub.add_parser(
        "monitor",
        help="run a small monitored workload and report its health")
    mon.add_argument("--jobs", type=int, default=6,
                     help="solve jobs to run (default 6)")
    mon.add_argument("--size", type=int, default=12,
                     help="cubic grid edge for the demo problem (default 12)")
    mon.add_argument("--record", type=int, default=4,
                     help="flight-recorder ring size (default 4)")
    mon.add_argument("--seed", type=int, default=0,
                     help="RNG seed for the demo fields (default 0)")
    mon.add_argument("--openmetrics", type=Path, default=None,
                     help="write the OpenMetrics exposition here")
    mon.add_argument("--health", type=Path, default=None,
                     help="write the health snapshot JSON here")
    mon.add_argument("--check", action="store_true",
                     help="validate the OpenMetrics output; exit 1 on "
                          "problems")

    top = sub.add_parser(
        "top", help="render a Service.health() JSON snapshot")
    top.add_argument("health", type=Path)
    return p


def _load(path: Path):
    try:
        return load_chrome_trace(path)
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(f"error: cannot read trace {path}: {exc}")


def _empty(trace: Trace) -> bool:
    """No spans *and* no counters: nothing was recorded at all."""
    return not trace.spans and not trace.counters


def _cmd_dump(args: argparse.Namespace) -> int:
    trace = _load(args.trace)
    t0 = trace.start
    spans = sorted(trace.spans, key=lambda s: (s.start, s.pid, s.tid))
    if args.limit > 0:
        spans = spans[:args.limit]
    rows = [[s.pid, s.tid, s.name, s.cat,
             (s.start - t0) * 1e3, s.duration * 1e3,
             " ".join(f"{k}={v}" for k, v in s.args)]
            for s in spans]
    print(banner(f"{args.trace} — {len(trace.spans)} span(s), "
                 f"{len(trace.pids())} process(es)"))
    print(format_table(["pid", "tid", "name", "cat", "t_ms", "dur_ms",
                        "args"], rows, floatfmt="10.3f"))
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    trace = _load(args.trace)
    if _empty(trace):
        # An all-zero metrics table would look like a measured run that
        # did nothing in zero seconds; say what actually happened.
        print(f"{args.trace}: no spans or counters recorded "
              "(empty trace — was tracing enabled?)")
        return 0
    metrics = trace_metrics(trace)
    print(banner(f"{args.trace} — summarized"))
    print(format_table(["metric", "value"],
                       [[name, value] for name, value in metrics.items()],
                       floatfmt="14.6f"))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    base_trace = _load(args.base)
    new_trace = _load(args.new)
    empties = [str(p) for p, t in ((args.base, base_trace),
                                   (args.new, new_trace)) if _empty(t)]
    if empties:
        for path in empties:
            print(f"{path}: no spans or counters recorded "
                  "(empty trace — was tracing enabled?)")
        print("nothing to diff")
        return 0
    base = trace_metrics(base_trace)
    new = trace_metrics(new_trace)
    rows = []
    for name in sorted(set(base) | set(new)):
        b = base.get(name)
        n = new.get(name)
        if b is None:
            rows.append([name, "-", n, "added"])
        elif n is None:
            rows.append([name, b, "-", "removed"])
        else:
            if b != 0:
                note = f"{(n - b) / abs(b):+.1%}"
            else:
                note = "=" if n == b else "changed"
            rows.append([name, b, n, note])
    print(banner(f"{args.base} -> {args.new}"))
    print(format_table(["metric", "base", "new", "delta"], rows,
                       floatfmt="14.6f"))
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    import numpy as np

    from ..core.parameters import PipelineConfig, RelaxedSpec
    from ..grid.grid3d import Grid3D
    from ..serve.service import Service
    from .monitor import validate_openmetrics
    from .monitor.export import render_health

    if args.jobs < 1:
        raise SystemExit("error: --jobs must be >= 1")
    grid = Grid3D((args.size, args.size, args.size))
    rng = np.random.default_rng(args.seed)
    cfg = PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=2,
                         block_size=(4, 64, 64), sync=RelaxedSpec(1, 2))
    # workers=0 + drain: the whole demo is deterministic scheduling on
    # this thread, so counter totals in the exports are reproducible.
    with Service(workers=0, monitor=True,
                 record_traces=args.record) as svc:
        for _ in range(args.jobs):
            svc.submit(grid, rng.standard_normal(grid.shape), cfg)
        svc.drain()
        assert svc.monitor is not None
        svc.monitor.sample()
        exposition = svc.monitor.openmetrics()
        health = svc.health()
    if args.openmetrics is not None:
        args.openmetrics.write_text(exposition)
    if args.health is not None:
        args.health.write_text(
            json.dumps(health, indent=2, sort_keys=True) + "\n")
    print(render_health(health))
    if args.check:
        problems = validate_openmetrics(exposition)
        if problems:
            for problem in problems:
                print(f"openmetrics: {problem}", file=sys.stderr)
            return 1
        print(f"openmetrics: valid "
              f"({len(exposition.splitlines())} lines)")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from .monitor.export import render_health

    try:
        health = json.loads(args.health.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(
            f"error: cannot read health snapshot {args.health}: {exc}")
    if not isinstance(health, dict):
        raise SystemExit(
            f"error: {args.health} is not a health snapshot object")
    print(render_health(health))
    return 0


_COMMANDS = {"dump": _cmd_dump, "summarize": _cmd_summarize,
             "diff": _cmd_diff, "monitor": _cmd_monitor, "top": _cmd_top}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
