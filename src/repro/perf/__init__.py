"""repro.perf — scenario-sweep performance harness.

The measurement subsystem behind ``python -m repro.perf`` (and the
``repro-perf`` console script):

* :mod:`repro.perf.scenarios` — declarative registry of kernel × grid
  size × backend × pipeline-config scenarios in ``quick`` / ``paper`` /
  ``stress`` suites;
* :mod:`repro.perf.figures` — the paper's figure and ablation series
  (calibrated DES and analytic models) behind the ``figure`` scenarios;
* :mod:`repro.perf.runner` — warmup/repeat timing with
  min/median/mean/stddev statistics and environment capture;
* :mod:`repro.perf.store` — versioned ``BENCH_<suite>.json`` documents
  plus timestamped per-run archives under ``benchmarks/results/perf/``;
* :mod:`repro.perf.compare` — the regression gate: diff two result
  files (or one against the :mod:`repro.models` predictions) and fail
  on a >threshold slowdown of any gated metric;
* :mod:`repro.perf.cli` — the ``run | list | compare | report``
  front-end; ``report`` is the one renderer of every record.

See EXPERIMENTS.md for the mapping from paper figures to suites and
commands.
"""

from .schema import SCHEMA, Metric, RunRecord, SchemaError, WallStats
from .scenarios import (
    SUITES,
    Scenario,
    all_scenarios,
    get_scenario,
    register,
    select_scenarios,
    unregister,
)
from .runner import run_scenario, run_suite
from .store import (
    StoreError,
    archive_document,
    default_path,
    load_document,
    make_document,
    records_of,
    save_document,
)
from .compare import (
    DEFAULT_MODEL_THRESHOLD,
    DEFAULT_THRESHOLD,
    Delta,
    compare_documents,
    compare_to_model,
    regressions,
    render_deltas,
)
from .cli import main

__all__ = [
    "SCHEMA",
    "Metric",
    "WallStats",
    "RunRecord",
    "SchemaError",
    "SUITES",
    "Scenario",
    "register",
    "unregister",
    "get_scenario",
    "all_scenarios",
    "select_scenarios",
    "run_scenario",
    "run_suite",
    "StoreError",
    "make_document",
    "save_document",
    "load_document",
    "records_of",
    "default_path",
    "archive_document",
    "DEFAULT_THRESHOLD",
    "DEFAULT_MODEL_THRESHOLD",
    "Delta",
    "compare_documents",
    "compare_to_model",
    "regressions",
    "render_deltas",
    "main",
]
