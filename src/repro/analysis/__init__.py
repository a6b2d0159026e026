"""repro.analysis — static schedule-legality & race analysis, plus lint.

The analyzer certifies a pipelined temporal-blocking schedule *without
executing a single stencil update*: it builds the write/read geometry
of the one-cell-shift pipeline symbolically, derives the minimum
ordering lead every pair of stages must keep, and then decides in
closed form whether the synchronisation window's minimum reachable
counter gap meets every lead and whether the window can freeze — each
refusal with a concrete witness interleaving of the executor's own
policy.  A companion
AST lint pass machine-checks the project's process/shared-memory and
engine-contract invariants.

Typical use::

    from repro.analysis import analyze_schedule, assert_legal

    report = analyze_schedule(config, shape=(64, 64, 64))
    if not report.ok:
        print(report.describe())

    assert_legal(config, shape, topology=(2, 1, 1))  # raises on illegal

or from the command line::

    python -m repro.analysis check-schedule --threads 4 --d-l 1 --d-u 4
    python -m repro.analysis check-schedule --suite quick
    python -m repro.analysis lint src/
"""

from .checker import analyze_schedule, assert_legal
from .findings import Finding, Report, StaticAnalysisError
from .lint import lint_paths, lint_source
from .model import ScheduleSpec

__all__ = [
    "Finding",
    "Report",
    "ScheduleSpec",
    "StaticAnalysisError",
    "analyze_schedule",
    "assert_legal",
    "lint_paths",
    "lint_source",
]
