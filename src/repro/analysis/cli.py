"""Command-line front end: ``python -m repro.analysis <subcommand>``.

Two subcommands, matching the two halves of the pass:

* ``check-schedule`` — build a :class:`ScheduleSpec` from flags (or
  sweep every registered perf-suite schedule with ``--suite``) and run
  the static legality analysis; exit 1 on any error finding.
* ``lint`` — run the project-aware AST lint over files/directories;
  exit 1 on any finding.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence, Tuple

from .checker import analyze_schedule
from .findings import Report
from .lint import lint_paths
from .model import ScheduleSpec

__all__ = ["main"]


def _triple(text: str) -> Tuple[int, int, int]:
    parts = [int(p) for p in text.replace("x", ",").split(",") if p]
    if len(parts) == 1:
        parts = parts * 3
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected 3 comma/x-separated integers, got {text!r}")
    return (parts[0], parts[1], parts[2])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static schedule-legality analysis and project lint "
                    "for the pipelined temporal-blocking solver.")
    sub = parser.add_subparsers(dest="command", required=True)

    cs = sub.add_parser(
        "check-schedule",
        help="prove a pipeline schedule race/deadlock-free (or produce "
             "a witness)")
    cs.add_argument("--suite", metavar="NAME",
                    help="check every registered schedule of a perf suite "
                         "(e.g. 'quick') instead of building one from flags")
    cs.add_argument("--shape", type=_triple, default=(32, 32, 32),
                    help="grid shape, e.g. 32,32,32 (default) or 64x64x64")
    cs.add_argument("--topology", type=_triple, default=(1, 1, 1),
                    help="process grid for the distributed checks "
                         "(default 1,1,1 = shared memory only)")
    cs.add_argument("--teams", type=int, default=1)
    cs.add_argument("--threads", type=int, default=4,
                    help="threads per team (pipeline stages = teams*threads)")
    cs.add_argument("--updates", type=int, default=1, metavar="T",
                    help="updates per thread per block")
    cs.add_argument("--block", type=_triple, default=(8, 1_000_000, 1_000_000),
                    help="block size, e.g. 8,64,64")
    cs.add_argument("--sync", choices=("barrier", "relaxed"),
                    default="relaxed")
    cs.add_argument("--d-l", type=int, default=1, dest="d_l")
    cs.add_argument("--d-u", type=int, default=4, dest="d_u")
    cs.add_argument("--team-delay", type=int, default=0)
    cs.add_argument("--storage", choices=("twogrid", "compressed"),
                    default="twogrid")
    cs.add_argument("--passes", type=int, default=1)
    cs.add_argument("--halo", type=int, default=None,
                    help="ghost layers per exchange (default: n*t*T)")
    cs.add_argument("-v", "--verbose", action="store_true",
                    help="also print notes (what was proven, not just "
                         "what failed)")

    li = sub.add_parser(
        "lint", help="project-aware AST lint (spawn-pickle, shm "
                     "lifecycle, engine contract, span pairing, "
                     "cond-wait loop, naked perf_counter)")
    li.add_argument("paths", nargs="+", help="files or directories")
    li.add_argument("-v", "--verbose", action="store_true",
                    help="also print notes")
    return parser


def _suite_reports(args) -> List[Report]:
    from ..perf.scenarios import solver_schedules

    reports = []
    for name, shape, config, topology in solver_schedules(args.suite):
        report = analyze_schedule(config, shape, topology)
        report.subject = f"{name}: {report.subject}"
        reports.append(report)
    return reports


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "lint":
        report = lint_paths(args.paths)
        print(report.describe(verbose=args.verbose))
        return 0 if report.ok else 1

    if args.suite:
        reports = _suite_reports(args)
    else:
        spec = ScheduleSpec(
            teams=args.teams,
            threads_per_team=args.threads,
            updates_per_thread=args.updates,
            block_size=args.block,
            sync_kind=args.sync,
            d_l=args.d_l, d_u=args.d_u, team_delay=args.team_delay,
            storage=args.storage,
            passes=args.passes,
        )
        reports = [analyze_schedule(spec, args.shape, args.topology,
                                    halo=args.halo)]
    bad = 0
    for report in reports:
        print(report.describe(verbose=args.verbose))
        print()
        if not report.ok:
            bad += 1
    n = len(reports)
    print(f"{n - bad}/{n} schedule(s) certified")
    return 0 if bad == 0 else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
