"""Scenario runner: warmup/repeat timing plus environment capture.

The runner is deliberately dumb about *what* it times — a scenario's
``fn`` returns an opaque payload, and the scenario's own ``summarize``
turns that payload (plus the median wall time) into metrics.  Timing
uses an injectable ``timer`` so the statistics are unit-testable with a
scripted clock.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional

from .scenarios import Scenario, select_scenarios
from .schema import RunRecord, WallStats

__all__ = [
    "capture_environment",
    "run_scenario",
    "run_suite",
]


def _git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """Best-effort commit id of the working tree the run came from."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd or os.getcwd(),
            capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def capture_environment() -> Dict[str, object]:
    """The reproducibility header stored with every results document."""
    import numpy as np

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git_sha": _git_sha(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_scenario(scenario: Scenario,
                 repeats: int = 3,
                 warmup: int = 1,
                 timer: Callable[[], float] = time.perf_counter,
                 ) -> RunRecord:
    """Time ``scenario`` and extract its metrics.

    ``setup`` runs once outside the timed region; ``warmup`` untimed
    executions precede ``repeats`` timed ones.  Metrics are computed
    from the payload of the last timed execution and the median wall
    time.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    state = scenario.setup() if scenario.setup is not None else None
    for _ in range(warmup):
        scenario.run_once(state)
    samples: List[float] = []
    payload: object = None
    for _ in range(repeats):
        t0 = timer()
        payload = scenario.run_once(state)
        samples.append(timer() - t0)
    wall = WallStats.from_samples(samples, warmup=warmup)
    return RunRecord(scenario=scenario.name, kind=scenario.kind,
                     params=dict(scenario.params), wall=wall,
                     metrics=dict(scenario.summarize(payload, wall.median)))


def run_suite(suite: str,
              repeats: int = 3,
              warmup: int = 1,
              pattern: Optional[str] = None,
              timer: Callable[[], float] = time.perf_counter,
              progress: Optional[Callable[[str], None]] = None,
              ) -> List[RunRecord]:
    """Run every scenario of ``suite`` (optionally glob-filtered)."""
    scenarios = select_scenarios(suite=suite, pattern=pattern)
    if not scenarios:
        raise ValueError(
            f"no scenarios match suite={suite!r} pattern={pattern!r}")
    records = []
    for sc in scenarios:
        if progress is not None:
            progress(sc.name)
        records.append(run_scenario(sc, repeats=repeats, warmup=warmup,
                                    timer=timer))
    return records
