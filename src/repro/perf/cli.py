"""``python -m repro.perf`` — run, list, compare and report.

Subcommands::

    run        run a suite (or a glob of scenarios) and write BENCH_<suite>.json
    list       show the registered scenario matrix
    compare    diff two result files (or one file vs the analytic model)
               and exit non-zero on a gated regression
    report     render a result file as ASCII tables

Examples::

    python -m repro.perf run --suite quick
    python -m repro.perf run --suite paper --filter 'fig3_*' --repeats 5
    python -m repro.perf list --suite quick
    python -m repro.perf compare benchmarks/baselines/BENCH_quick.json \\
        BENCH_quick.json
    python -m repro.perf compare --model BENCH_quick.json
    python -m repro.perf report BENCH_quick.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from ..text import banner, format_table
from . import compare as cmp
from . import runner, store
from .scenarios import SUITES, select_scenarios
from .schema import SchemaError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro.perf",
        description="Scenario-sweep performance harness "
                    "(JSON results database + regression gate).")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a suite and persist JSON results")
    run.add_argument("--suite", choices=SUITES, default="quick")
    run.add_argument("--filter", dest="pattern", default=None,
                     help="glob over scenario names, e.g. 'fig3_*'")
    run.add_argument("--repeats", type=int, default=3)
    run.add_argument("--warmup", type=int, default=1)
    run.add_argument("--out", type=Path, default=None,
                     help="suite document path (default BENCH_<suite>.json)")
    run.add_argument("--archive-dir", type=Path,
                     default=store.DEFAULT_ARCHIVE_DIR,
                     help="per-run archive directory")
    run.add_argument("--no-archive", action="store_true",
                     help="skip the timestamped per-run archive copy")

    lst = sub.add_parser("list", help="show the registered scenarios")
    lst.add_argument("--suite", choices=SUITES, default=None)
    lst.add_argument("--filter", dest="pattern", default=None)

    comp = sub.add_parser(
        "compare",
        help="diff two result files; non-zero exit on a gated regression")
    comp.add_argument("base", type=Path,
                      help="baseline results file (or the file to check "
                           "with --model)")
    comp.add_argument("new", type=Path, nargs="?", default=None,
                      help="candidate results file (omit with --model)")
    comp.add_argument("--threshold", type=float, default=None,
                      help="relative slowdown that fails the gate "
                           f"(default {cmp.DEFAULT_THRESHOLD}, model "
                           f"mode {cmp.DEFAULT_MODEL_THRESHOLD})")
    comp.add_argument("--model", action="store_true",
                      help="compare one file against the analytic "
                           "repro.models predictions instead of a baseline")
    comp.add_argument("--strict", action="store_true",
                      help="with --model: exit non-zero on deviations")
    comp.add_argument("--all", dest="gate_only", action="store_false",
                      help="include non-gated (host-clock) metrics")
    comp.add_argument("--wall", dest="include_wall", action="store_true",
                      help="also compare median wall times (noisy)")

    rep = sub.add_parser("report", help="render a result file")
    rep.add_argument("result", type=Path)
    return p


def _cmd_run(args: argparse.Namespace) -> int:
    def progress(name: str) -> None:
        print(f"[repro.perf] running {name} ...", flush=True)

    # Validate the selection up front so an empty match is a usage error
    # (exit 2), while a genuine fault inside a scenario body propagates
    # with its traceback instead of masquerading as one.
    if not select_scenarios(suite=args.suite, pattern=args.pattern):
        print(f"error: no scenarios match suite={args.suite!r} "
              f"pattern={args.pattern!r}", file=sys.stderr)
        return 2
    records = runner.run_suite(args.suite, repeats=args.repeats,
                               warmup=args.warmup, pattern=args.pattern,
                               progress=progress)
    doc = store.make_document(
        args.suite, records,
        environment=runner.capture_environment(),
        run_config={"repeats": args.repeats, "warmup": args.warmup,
                    "pattern": args.pattern})
    out = args.out or store.default_path(args.suite)
    store.save_document(doc, out)
    print(f"[repro.perf] wrote {out} ({len(records)} scenarios)")
    if not args.no_archive:
        archived = store.archive_document(doc, args.archive_dir)
        print(f"[repro.perf] archived {archived}")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    scenarios = select_scenarios(suite=args.suite, pattern=args.pattern)
    rows = [[sc.name, sc.kind, ",".join(sc.suites),
             "yes" if sc.model else "-", sc.description]
            for sc in scenarios]
    print(format_table(["scenario", "kind", "suites", "model", "description"],
                       rows,
                       title=f"{len(rows)} registered scenario(s)"))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    base_doc = store.load_document(args.base)
    if args.model:
        if args.new is not None:
            print("error: --model takes a single result file",
                  file=sys.stderr)
            return 2
        threshold = (args.threshold if args.threshold is not None
                     else cmp.DEFAULT_MODEL_THRESHOLD)
        deltas = cmp.compare_to_model(base_doc, threshold=threshold)
        print(banner(f"{args.base} vs analytic model "
                     f"(threshold {threshold:.0%})"))
        print(cmp.render_deltas(deltas, base_label="model",
                                new_label="measured"))
        deviations = [d for d in deltas if d.status == "deviates"]
        print(f"\n{len(deviations)} deviation(s) beyond {threshold:.0%} "
              "(expected where the paper's model fails, e.g. T >= 2)")
        return 1 if args.strict and deviations else 0

    if args.new is None:
        print("error: compare needs BASE and NEW files (or --model)",
              file=sys.stderr)
        return 2
    new_doc = store.load_document(args.new)
    threshold = (args.threshold if args.threshold is not None
                 else cmp.DEFAULT_THRESHOLD)
    deltas = cmp.compare_documents(base_doc, new_doc, threshold=threshold,
                                   gate_only=args.gate_only,
                                   include_wall=args.include_wall)
    print(banner(f"{args.base} -> {args.new} (threshold {threshold:.0%})"))
    print(cmp.render_deltas(deltas))
    bad = cmp.regressions(deltas)
    if bad:
        print(f"\nFAIL: {len(bad)} metric(s) regressed by more than "
              f"{threshold:.0%}:")
        for d in bad:
            print(f"  - {d.describe()}")
        return 1
    print(f"\nOK: no gated metric regressed by more than {threshold:.0%} "
          f"({len(deltas)} comparisons)")
    return 0


def _obs_derived(record) -> list:
    """Observability-derived summary columns, for records that carry them.

    Suites that record obs metrics (traced solves, serve scenarios) get
    a one-line digest under their table: halo-exchange wait share, span
    coverage, and the cache hit ratio ``hits / (hits + backend solves)``.
    """
    m = record.metrics
    notes = []
    if "obs_exchange_wait_frac" in m:
        notes.append(f"exchange wait {m['obs_exchange_wait_frac'].value:.1%}")
    if "obs_span_coverage" in m:
        notes.append(f"span coverage {m['obs_span_coverage'].value:.1%}")
    if "cache_hits" in m and "backend_solves" in m:
        hits = m["cache_hits"].value
        total = hits + m["backend_solves"].value
        if total > 0:
            notes.append(f"cache hit ratio {hits / total:.1%}")
    return notes


def _cmd_report(args: argparse.Namespace) -> int:
    doc = store.load_document(args.result)
    env = doc.get("environment", {})
    head = ", ".join(f"{k}={v}" for k, v in env.items() if v is not None)
    print(banner(f"repro.perf results — suite '{doc.get('suite')}'"))
    if head:
        print(head)
    for record in store.records_of(doc):
        w = record.wall
        print(f"\n{record.scenario}  [{record.kind}]  "
              f"wall median {w.median:.4f}s "
              f"(min {w.min:.4f}s, stddev {w.stddev:.4f}s, "
              f"{w.repeats} repeat(s), {w.warmup} warmup)")
        rows = [[name, m.value, m.unit,
                 "higher" if m.higher_is_better else "lower",
                 "yes" if m.gate else "-"]
                for name, m in record.metrics.items()]
        print(format_table(["metric", "value", "unit", "better", "gate"],
                           rows, floatfmt="12.3f"))
        derived = _obs_derived(record)
        if derived:
            print("obs: " + ", ".join(derived))
    return 0


_COMMANDS = {"run": _cmd_run, "list": _cmd_list, "compare": _cmd_compare,
             "report": _cmd_report}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SchemaError as exc:
        # Unreadable/incompatible result files are usage errors; any
        # other exception is a real fault and keeps its traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
